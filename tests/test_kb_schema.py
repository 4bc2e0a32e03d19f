"""Tests for repro.kb.schema (taxonomy and relation signatures)."""

import pytest

from repro.kb import Entity, Relation, Taxonomy, Triple, TripleStore, ns, schema_triples

PERSON = Entity("c:person")
SCIENTIST = Entity("c:scientist")
PHYSICIST = Entity("c:physicist")
ORG = Entity("c:org")
CITY = Entity("c:city")
EINSTEIN = Entity("w:einstein")
ACME = Entity("w:acme")
BORN = Relation("r:bornIn")
WORKS = Relation("r:worksAt")


@pytest.fixture
def store():
    store = TripleStore(
        [
            Triple(SCIENTIST, ns.SUBCLASS_OF, PERSON),
            Triple(PHYSICIST, ns.SUBCLASS_OF, SCIENTIST),
            Triple(EINSTEIN, ns.TYPE, PHYSICIST),
            Triple(ACME, ns.TYPE, ORG),
            Triple(PERSON, ns.DISJOINT_CLASS_WITH, ORG),
        ]
    )
    store.add_all(schema_triples(BORN, domain=PERSON, range_=CITY, functional=True))
    store.add_all(schema_triples(WORKS, domain=PERSON, range_=ORG))
    return store


@pytest.fixture
def taxonomy(store):
    return Taxonomy(store)


class TestHierarchy:
    def test_superclasses_transitive(self, taxonomy):
        assert taxonomy.superclasses(PHYSICIST) == {SCIENTIST, PERSON}

    def test_subclasses_transitive(self, taxonomy):
        assert taxonomy.subclasses(PERSON) == {SCIENTIST, PHYSICIST}

    def test_is_subclass_of(self, taxonomy):
        assert taxonomy.is_subclass_of(PHYSICIST, PERSON)
        assert taxonomy.is_subclass_of(PERSON, PERSON)
        assert not taxonomy.is_subclass_of(PERSON, PHYSICIST)
        assert taxonomy.is_subclass_of(ORG, ns.THING)

    def test_cycle_tolerated(self):
        store = TripleStore(
            [
                Triple(PERSON, ns.SUBCLASS_OF, SCIENTIST),
                Triple(SCIENTIST, ns.SUBCLASS_OF, PERSON),
            ]
        )
        taxonomy = Taxonomy(store)
        assert SCIENTIST in taxonomy.superclasses(PERSON)
        assert PERSON in taxonomy.superclasses(SCIENTIST)


class TestInstances:
    def test_types_of_transitive(self, taxonomy):
        assert taxonomy.types_of(EINSTEIN) == {PHYSICIST, SCIENTIST, PERSON}

    def test_types_of_direct(self, taxonomy):
        assert taxonomy.types_of(EINSTEIN, transitive=False) == {PHYSICIST}

    def test_instances_of_superclass(self, taxonomy):
        assert EINSTEIN in taxonomy.instances_of(PERSON)

    def test_instances_of_direct_only(self, taxonomy):
        assert taxonomy.instances_of(PERSON, transitive=False) == set()

    def test_is_instance_of(self, taxonomy):
        assert taxonomy.is_instance_of(EINSTEIN, PERSON)
        assert not taxonomy.is_instance_of(ACME, PERSON)
        assert taxonomy.is_instance_of(ACME, ns.THING)


class TestSignatures:
    def test_domain_range(self, taxonomy):
        assert taxonomy.domain_of(BORN) == PERSON
        assert taxonomy.range_of(BORN) == CITY
        assert taxonomy.domain_of(Relation("r:unknown")) is None

    def test_functional(self, taxonomy):
        assert taxonomy.is_functional(BORN)
        assert not taxonomy.is_functional(WORKS)

    def test_disjoint_classes_inherited(self, taxonomy):
        assert taxonomy.are_disjoint_classes(PHYSICIST, ORG)
        assert taxonomy.are_disjoint_classes(ORG, SCIENTIST)
        assert not taxonomy.are_disjoint_classes(SCIENTIST, PHYSICIST)

    def test_admits_is_open_world(self, taxonomy):
        assert taxonomy.admits(EINSTEIN, PERSON)        # an instance
        assert taxonomy.admits(EINSTEIN, ns.THING)
        assert not taxonomy.admits(EINSTEIN, ORG)       # disjoint types
        assert not taxonomy.admits(ACME, SCIENTIST)
        assert taxonomy.admits(ACME, CITY)              # nothing conflicts
        assert taxonomy.admits(Entity("w:unknown"), ORG)  # untyped

    def test_type_violations(self, taxonomy, store):
        data = TripleStore(
            [
                Triple(EINSTEIN, WORKS, ACME),   # fine
                Triple(ACME, WORKS, ACME),       # domain violation: org person
            ]
        )
        violations = taxonomy.type_violations(data)
        assert len(violations) == 1
        assert violations[0].subject == ACME

    def test_untyped_entities_not_flagged(self, taxonomy):
        ghost = Entity("w:ghost")
        data = TripleStore([Triple(ghost, WORKS, ACME)])
        assert taxonomy.type_violations(data) == []
