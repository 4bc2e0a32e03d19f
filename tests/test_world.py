"""Tests for repro.world (names, schema, generator)."""

import pytest

from repro.kb import Entity, ns
from repro.world import (
    NamePool,
    WorldConfig,
    generate_world,
    identifier_from_name,
    nationality_adjective,
    person_aliases,
    pseudo_translate,
)
from repro.world import schema as ws


class TestNames:
    def test_person_names_unique(self):
        pool = NamePool(seed=1)
        names = {" ".join(pool.person_name()) for __ in range(100)}
        assert len(names) == 100

    def test_ambiguity_shrinks_surname_pool(self):
        low = NamePool(seed=1, ambiguity=0.0)
        high = NamePool(seed=1, ambiguity=1.0)
        low_surnames = {low.person_name()[1] for __ in range(80)}
        high_surnames = {high.person_name()[1] for __ in range(80)}
        assert len(high_surnames) < len(low_surnames)

    def test_invalid_ambiguity(self):
        with pytest.raises(ValueError):
            NamePool(seed=1, ambiguity=1.5)

    def test_pseudo_translate_deterministic(self):
        assert pseudo_translate("Corvain", "fr") == pseudo_translate("Corvain", "fr")

    def test_pseudo_translate_changes_name(self):
        for lang in ("de", "fr", "es"):
            assert pseudo_translate("Corvain", lang) != "Corvain"

    def test_pseudo_translate_english_identity(self):
        assert pseudo_translate("Corvain", "en") == "Corvain"

    def test_pseudo_translate_unknown_language(self):
        with pytest.raises(ValueError):
            pseudo_translate("x", "xx")

    def test_nationality_adjective(self):
        assert nationality_adjective("Arvandia") == "Arvandian"
        assert nationality_adjective("Frentis") == "Frentian"

    def test_person_aliases_order(self):
        aliases = person_aliases("Viktor", "Adler")
        assert aliases[0] == "Viktor Adler"
        assert "Adler" in aliases and "V. Adler" in aliases

    def test_identifier_from_name(self):
        assert identifier_from_name("Viktor Adler") == "Viktor_Adler"
        assert identifier_from_name("A  B") == "A_B"
        assert identifier_from_name("X. Y's") == "X_Y_s"


class TestSchema:
    def test_schema_store_has_class_tree(self):
        store = ws.schema_store()
        assert store.contains_fact(ws.SCIENTIST, ns.SUBCLASS_OF, ws.PERSON)
        assert store.contains_fact(ws.CITY, ns.SUBCLASS_OF, ws.LOCATION)

    def test_relation_signatures_present(self):
        store = ws.schema_store()
        assert store.contains_fact(ws.BORN_IN, ns.DOMAIN, ws.PERSON)
        assert store.contains_fact(ws.BORN_IN, ns.RANGE, ws.CITY)

    def test_functional_marked(self):
        from repro.kb import Taxonomy

        taxonomy = Taxonomy(ws.schema_store())
        assert taxonomy.is_functional(ws.BORN_IN)
        assert not taxonomy.is_functional(ws.WORKS_AT)


class TestGenerator:
    def test_deterministic(self):
        first = generate_world(WorldConfig(seed=9))
        second = generate_world(WorldConfig(seed=9))
        assert {t.spo() for t in first.facts} == {t.spo() for t in second.facts}

    def test_seed_changes_world(self):
        first = generate_world(WorldConfig(seed=9))
        second = generate_world(WorldConfig(seed=10))
        assert {t.spo() for t in first.facts} != {t.spo() for t in second.facts}

    def test_sizes_respected(self, world):
        config = world.config
        assert len(world.countries) == config.n_countries
        assert len(world.cities) == config.n_cities
        assert len(world.people) == config.n_people
        assert len(world.companies) == config.n_companies

    def test_every_city_located(self, world):
        for city in world.cities:
            assert world.facts.one_object(city, ws.LOCATED_IN) is not None

    def test_every_country_has_capital(self, world):
        capitals = {t.object for t in world.facts.match(predicate=ws.CAPITAL_OF)}
        assert capitals == set(world.countries)

    def test_functional_relations_respected(self, world):
        for person in world.people:
            assert len(world.facts.objects(person, ws.BORN_IN)) <= 1
            assert len(world.facts.objects(person, ws.BIRTH_YEAR)) == 1

    def test_death_city_differs_from_birth_city(self, world):
        for person in world.people:
            died = world.facts.one_object(person, ws.DIED_IN)
            if died is not None:
                assert died != world.facts.one_object(person, ws.BORN_IN)

    def test_marriages_symmetric(self, world):
        for triple in world.facts.match(predicate=ws.MARRIED_TO):
            assert world.facts.contains_fact(
                triple.object, ws.MARRIED_TO, triple.subject
            )
            assert triple.scope is not None

    def test_products_form_families(self, world):
        assert world.products
        families = {world.product_family[p] for p in world.products}
        assert len(families) == world.config.n_product_families

    def test_successor_chains(self, world):
        for triple in world.facts.match(predicate=ws.SUCCESSOR_OF):
            assert world.product_family[triple.subject] == world.product_family[
                triple.object
            ]

    def test_labels_multilingual(self, world):
        entity = world.people[0]
        for lang in ("en", "de", "fr", "es"):
            assert world.label_in(entity, lang) is not None

    def test_alias_index_has_ambiguity(self):
        ambiguous_world = generate_world(WorldConfig(seed=2, ambiguity=0.8))
        index = ambiguous_world.alias_index()
        shared = [name for name, entities in index.items() if len(entities) > 1]
        assert shared, "high-ambiguity worlds must produce shared surface forms"

    def test_entities_of_class(self, world):
        scientists = world.entities_of_class(ws.SCIENTIST)
        assert scientists
        assert all(world.primary_class[e] == ws.SCIENTIST for e in scientists)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_countries=0)
        with pytest.raises(ValueError):
            WorldConfig(n_cities=2, n_countries=5)
        with pytest.raises(ValueError):
            WorldConfig(n_prizes=10)

    @pytest.mark.parametrize(
        "field",
        ["n_cities", "n_people", "n_companies", "n_books", "n_albums"],
    )
    def test_config_rejects_negative_counts(self, field):
        # Regression: negative counts used to slip through and blow up (or
        # silently truncate) deep inside generation.
        with pytest.raises(ValueError, match="non-negative"):
            WorldConfig(**{field: -1})

    def test_config_rejects_out_of_range_ambiguity(self):
        with pytest.raises(ValueError, match="ambiguity"):
            WorldConfig(ambiguity=1.2)
        with pytest.raises(ValueError, match="ambiguity"):
            WorldConfig(ambiguity=-0.1)

    def test_config_rejects_more_families_than_companies(self):
        # Regression: zip() silently dropped the extra families, producing
        # fewer product families than configured.
        with pytest.raises(ValueError, match="company per product family"):
            WorldConfig(n_companies=2, n_product_families=3)

    def test_config_rejects_more_universities_than_name_patterns(self):
        from repro.world.names import UNIVERSITY_PATTERNS

        limit = len(UNIVERSITY_PATTERNS) * 8
        WorldConfig(n_cities=8, n_universities=limit)
        with pytest.raises(ValueError, match="universities per city"):
            WorldConfig(n_cities=8, n_universities=limit + 1)

    @pytest.mark.parametrize("seed", [306, 316, 397, 572976887])
    def test_university_city_with_every_pattern_taken_is_redrawn(self, seed):
        # Regression: these seeds drew some city a fourth time for a
        # university, which exhausted its three name patterns.
        world = generate_world(WorldConfig(seed=seed, n_people=100))
        assert len(world.universities) == 10
        assert len({world.name[u] for u in world.universities}) == 10

    def test_entities_of_class_subclass_closure(self, world):
        # Regression: superclass queries used to return only entities whose
        # *primary* class matched, so ORGANIZATION came back empty.
        organizations = world.entities_of_class(ws.ORGANIZATION)
        assert set(organizations) == set(world.companies) | set(
            world.universities
        )
        locations = world.entities_of_class(ws.LOCATION)
        assert set(locations) == set(world.cities) | set(world.countries)
        people = world.entities_of_class(ws.PERSON)
        assert set(people) == set(world.people)

    def test_entities_of_class_leaf_order_preserved(self, world):
        # The closure rewrite must not disturb leaf-class ordering (seeded
        # rng.choice over this list pins corpus corruption bytes).
        scientists = world.entities_of_class(ws.SCIENTIST)
        assert scientists == [
            e
            for e in world.people
            if world.primary_class[e] == ws.SCIENTIST
        ]

    def test_subclasses_of_closure(self):
        closure = ws.subclasses_of(ws.ORGANIZATION)
        assert ws.ORGANIZATION in closure
        assert ws.COMPANY in closure and ws.UNIVERSITY in closure
        assert ws.CITY not in closure
        # Leaves close over themselves only.
        assert ws.subclasses_of(ws.CITY) == frozenset((ws.CITY,))
