"""Lazy NLP signals: the build pays only for what it reads.

``analyze`` computes tokens, tags and mentions; lemmas, chunks and the
dependency parse are computed on first read, and an occurrence's
dependency paths on first read of the path.  These tests pin both halves:
a KB build reads none of the lazy signals, and every lazy signal equals
the eager reference computed straight from the tokenizer, tagger and
parser.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

import repro.nlp.dependency as dependency
import repro.nlp.pipeline as nlp_pipeline
from repro.corpus import build_wiki
from repro.extraction import resolver_from_aliases, sentence_occurrences
from repro.nlp import analyze
from repro.nlp.chunk import noun_phrases, verb_groups
from repro.nlp.dependency import parse
from repro.nlp.lemmatize import lemma
from repro.nlp.ner import detect_mentions
from repro.nlp.pos import tag
from repro.nlp.tokenizer import tokenize
from repro.pipeline import KnowledgeBaseBuilder
from repro.world import WorldConfig, generate_world
from repro.world.scenarios import SCENARIOS, build_scenario


def _counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestBuildReadsNoUnusedSignal:
    def test_build_never_lemmatizes_chunks_parses_or_walks_paths(
        self, monkeypatch
    ):
        world = generate_world(WorldConfig(seed=55, n_people=12))
        wiki = build_wiki(world)
        calls: Counter = Counter()
        # Analysis looks these names up in its own module.
        for name in ("parse", "noun_phrases", "verb_groups", "lemma"):
            original = getattr(nlp_pipeline, name)
            monkeypatch.setattr(
                nlp_pipeline, name, _counting(calls, name, original)
            )
        monkeypatch.setattr(
            dependency.Parse,
            "path",
            _counting(calls, "Parse.path", dependency.Parse.path),
        )

        kb, __ = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()

        assert len(kb) > 0
        assert calls == Counter(), calls

        # The counters see a read: each lazy signal costs one call, once.
        resolver = resolver_from_aliases(world.aliases)
        gazetteer = resolver.to_gazetteer()
        occurrence = next(
            occurrence
            for page in wiki.pages.values()
            for s in page.document.sentences
            for occurrence in sentence_occurrences(
                analyze(s.text, gazetteer), resolver
            )
        )
        analysis = occurrence.analysis
        for __ in range(2):
            analysis.lemmas, analysis.nps, analysis.verb_groups
            occurrence.path_forward, occurrence.path_backward
        assert calls == Counter(
            {
                "parse": 1,
                "noun_phrases": 1,
                "verb_groups": 1,
                "lemma": len(analysis.tokens),
                "Parse.path": 2,
            }
        ), calls


@pytest.fixture(scope="module")
def scenario():
    spec = SCENARIOS["adversarial_noise"]
    return build_scenario(
        dataclasses.replace(
            spec, world=dataclasses.replace(spec.world, n_people=12)
        )
    )


@pytest.fixture(scope="module")
def scenario_sentences(scenario):
    pages = [
        s.text
        for page in scenario.wiki.pages.values()
        for s in page.document.sentences
    ]
    documents = [s.text for d in scenario.documents for s in d.sentences]
    return pages + documents


def _eager_occurrences(text, resolver, gazetteer, max_gap=8):
    """(first, second, middle, forward path, backward path) per mention
    pair, computed eagerly from a fresh tokenize/tag/parse."""
    tokens = tokenize(text)
    tags = tag(tokens)
    tree = parse(tokens, tags)
    resolved = []
    for mention in detect_mentions(tokens, tags, gazetteer):
        entity = resolver.resolve(mention.text)
        if entity is not None:
            resolved.append((mention, entity))
    rows = []
    for i, (m1, e1) in enumerate(resolved):
        for m2, e2 in resolved[i + 1:]:
            gap = m2.token_start - m1.token_end
            if e1 == e2 or gap < 0 or gap > max_gap:
                continue
            head1, head2 = m1.token_end - 1, m2.token_end - 1
            middle = tuple(
                t.text.lower() for t in tokens[m1.token_end:m2.token_start]
            )
            rows.append(
                (e1, e2, middle, tree.path(head1, head2), tree.path(head2, head1))
            )
    return rows


class TestLazyEqualsEager:
    def test_analysis_signals_match_the_eager_reference(self, scenario_sentences):
        assert len(scenario_sentences) > 100
        for text in scenario_sentences:
            tokens = tokenize(text)
            tags = tag(tokens)
            analysis = analyze(text)
            assert analysis.parse == parse(tokens, tags), text
            assert analysis.verb_groups == verb_groups(tokens, tags), text
            assert analysis.nps == noun_phrases(tokens, tags), text
            assert analysis.lemmas == [lemma(t.text) for t in tokens], text

    def test_occurrence_paths_match_the_eager_reference(
        self, scenario, scenario_sentences
    ):
        resolver = resolver_from_aliases(scenario.world.aliases)
        gazetteer = resolver.to_gazetteer()
        paths = 0
        for text in scenario_sentences:
            occurrences = list(
                sentence_occurrences(analyze(text, gazetteer), resolver)
            )
            lazy = [
                (o.first, o.second, o.middle, o.path(False), o.path(True))
                for o in occurrences
            ]
            assert lazy == _eager_occurrences(text, resolver, gazetteer), text
            paths += sum(1 for row in lazy if row[3])
        assert paths > 50

    def test_equal_occurrences_compare_equal_whatever_was_read(
        self, scenario, scenario_sentences
    ):
        resolver = resolver_from_aliases(scenario.world.aliases)
        gazetteer = resolver.to_gazetteer()
        compared = 0
        for text in scenario_sentences:
            read = list(sentence_occurrences(analyze(text, gazetteer), resolver))
            unread = list(sentence_occurrences(analyze(text, gazetteer), resolver))
            for occurrence in read:
                occurrence.path_forward, occurrence.path_backward
            assert read == unread, text
            assert [hash(o) for o in read] == [hash(o) for o in unread], text
            for occurrence in read:
                assert "Parse" not in repr(occurrence)
                assert "heads" not in repr(occurrence)
                assert "Parse" not in repr(occurrence.analysis)
            compared += len(read)
        assert compared > 50


class TestPathLengthBound:
    SENTENCE = (
        "Alan Weber , who was born in the small old town of Mara near the "
        "big river , founded Nova Corp ."
    )

    @staticmethod
    def _edges(path: str) -> int:
        # Steps alternate with the lemmas of intermediate nodes.
        return (len(path.split(":")) + 1) // 2

    def test_no_path_is_longer_than_max_length(self):
        tree = analyze(self.SENTENCE).parse
        n = len(tree.tokens)
        for max_length in range(1, 8):
            for start in range(n):
                for end in range(n):
                    path = tree.path(start, end, max_length=max_length)
                    if path:
                        assert self._edges(path) <= max_length, (
                            max_length, start, end, path
                        )
        # "Alan" -compound-> "Weber" -nsubjpass-> "born" is two edges.
        assert tree.path(0, 5, max_length=1) is None
        assert tree.path(0, 5, max_length=2) == "^compound:weber:^nsubjpass"

    def test_a_path_within_the_bound_is_unchanged(self):
        tree = analyze(self.SENTENCE).parse
        n = len(tree.tokens)
        for start in range(n):
            for end in range(n):
                unbounded = tree.path(start, end, max_length=n)
                if unbounded is None:
                    continue
                edges = self._edges(unbounded) if unbounded else 0
                for max_length in range(max(edges, 1), edges + 3):
                    assert tree.path(start, end, max_length=max_length) == unbounded
