"""Tests for repro.taxonomy (head parsing, categories, WordNet, integration)."""

import pytest

from repro.kb import Taxonomy, ns
from repro.taxonomy import (
    WORDNET,
    classify_category,
    category_class,
    integrate,
    is_plural,
    parse_label,
    wordnet_class,
)
from repro.world import schema as ws


class TestHeadParser:
    def test_premodified_plural(self):
        parsed = parse_label("Arvandian computer scientists")
        assert parsed.head == "scientists"
        assert parsed.head_lemma == "scientist"
        assert parsed.head_is_plural
        assert parsed.premodifiers == ("Arvandian", "computer")

    def test_postmodifier_of(self):
        parsed = parse_label("History of Arvandia")
        assert parsed.head == "History"
        assert not parsed.head_is_plural
        assert parsed.postmodifier == "of Arvandia"

    def test_participle_postmodifier(self):
        parsed = parse_label("Companies established in 1976")
        assert parsed.head == "Companies"
        assert parsed.head_is_plural
        assert parsed.postmodifier == "established in 1976"

    def test_people_from(self):
        parsed = parse_label("People from Corvain")
        assert parsed.head == "People"
        assert parsed.head_is_plural

    def test_year_births(self):
        parsed = parse_label("1955 births")
        assert parsed.head == "births"
        assert parsed.head_is_plural

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_label("")

    def test_is_plural_edge_cases(self):
        assert is_plural("cities")
        assert is_plural("people")
        assert not is_plural("bus")
        assert not is_plural("history")
        assert not is_plural("analysis")


class TestCategoryClassifier:
    def test_conceptual_plural(self):
        decision = classify_category("Arvandian scientists")
        assert decision.conceptual
        assert decision.head_lemma == "scientist"

    def test_decisions_are_memoized_in_a_bounded_cache(self):
        from repro.taxonomy.categories import _classify

        first = classify_category("Kelmarian physicists")
        # Positional and keyword call forms share one cache entry.
        assert classify_category(
            "Kelmarian physicists", use_plural_heuristic=True, use_stoplist=True
        ) is first
        assert classify_category("Kelmarian physicists", True, True) is first
        info = _classify.cache_info()
        assert info.maxsize == 4096
        assert info.currsize <= info.maxsize

    def test_topical_singular(self):
        assert not classify_category("History of Arvandia").conceptual

    def test_administrative_stoplist(self):
        assert not classify_category("1955 births").conceptual
        assert not classify_category("Articles needing cleanup").conceptual

    def test_stoplist_ablation(self):
        decision = classify_category("1955 births", use_stoplist=False)
        assert decision.conceptual  # leaks through without the stoplist

    def test_plural_heuristic_ablation(self):
        decision = classify_category(
            "History of Arvandia", use_plural_heuristic=False
        )
        assert decision.conceptual  # the naive all-conceptual baseline


class TestMiniWordNet:
    def test_first_synset(self):
        synset = WORDNET.first_synset("scientist")
        assert synset is not None and synset.id == "scientist.n.01"

    def test_hypernym_closure_reaches_entity(self):
        closure = [s.id for s in WORDNET.hypernym_closure("scientist.n.01")]
        assert closure[-1] == "entity.n.01"
        assert "person.n.01" in closure

    def test_is_hyponym_of(self):
        assert WORDNET.is_hyponym_of("city.n.01", "location.n.01")
        assert not WORDNET.is_hyponym_of("city.n.01", "person.n.01")

    def test_unknown_lemma(self):
        assert WORDNET.first_synset("zorbly") is None

    def test_multi_lemma_synset(self):
        assert WORDNET.first_synset("prize").id == "award.n.01"


class TestIntegration:
    @pytest.fixture(scope="class")
    def integrated(self, wiki):
        return integrate(wiki)

    def test_typed_entities_cover_most_pages(self, integrated, wiki):
        __, report = integrated
        assert report.typed_entities > 0.8 * report.pages

    def test_anchor_rate_high(self, integrated):
        __, report = integrated
        assert report.anchor_rate > 0.9

    def test_scientists_end_up_under_person(self, integrated, world, wiki):
        store, __ = integrated
        taxonomy = Taxonomy(store)
        scientists = world.entities_of_class(ws.SCIENTIST)
        person_class = wordnet_class("person.n.01")
        hits = sum(
            1 for s in scientists if taxonomy.is_instance_of(s, person_class)
        )
        assert hits / len(scientists) > 0.8

    def test_fine_classes_subclass_wordnet(self, integrated):
        store, __ = integrated
        fine = category_class("Arvandian scientists")
        anchors = store.objects(fine, ns.SUBCLASS_OF)
        assert wordnet_class("scientist.n.01") in anchors

    def test_no_birth_year_classes(self, integrated):
        store, __ = integrated
        for triple in store.match(predicate=ns.TYPE):
            assert "births" not in triple.object.id

    def test_baseline_pollutes_taxonomy(self, wiki):
        __, clean_report = integrate(wiki)
        __, noisy_report = integrate(wiki, use_plural_heuristic=False)
        assert (
            noisy_report.conceptual_categories
            > clean_report.conceptual_categories
        )
