"""The schema of the synthetic ground-truth world.

The world plays the role Wikipedia and the Web play for real knowledge
harvesting: a population of typed entities connected by relations.  The
schema fixes the class taxonomy (persons, organizations, locations, products,
creative works) and the relation signatures (domain, range, functionality,
temporal behaviour) that both the generator and the consistency reasoner use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kb import Entity, Literal, Relation, Triple, TripleStore, canonical_triples, ns

_TRUE = Literal("true")


def cls(local: str) -> Entity:
    """A class entity in the ``cls:`` namespace."""
    return Entity(f"cls:{local}")


def rel(local: str) -> Relation:
    """A relation in the ``rel:`` namespace."""
    return Relation(f"rel:{local}")


# ---------------------------------------------------------------- class tree

PERSON = cls("person")
SCIENTIST = cls("scientist")
MUSICIAN = cls("musician")
POLITICIAN = cls("politician")
ENTREPRENEUR = cls("entrepreneur")
ATHLETE = cls("athlete")
WRITER = cls("writer")

ORGANIZATION = cls("organization")
COMPANY = cls("company")
UNIVERSITY = cls("university")

LOCATION = cls("location")
CITY = cls("city")
COUNTRY = cls("country")

PRODUCT = cls("product")
SMARTPHONE = cls("smartphone")

CREATIVE_WORK = cls("creative_work")
ALBUM = cls("album")
BOOK = cls("book")

PRIZE = cls("prize")

#: Child -> parent edges of the class taxonomy.
CLASS_TREE: dict[Entity, Entity] = {
    PERSON: ns.THING,
    SCIENTIST: PERSON,
    MUSICIAN: PERSON,
    POLITICIAN: PERSON,
    ENTREPRENEUR: PERSON,
    ATHLETE: PERSON,
    WRITER: PERSON,
    ORGANIZATION: ns.THING,
    COMPANY: ORGANIZATION,
    UNIVERSITY: ORGANIZATION,
    LOCATION: ns.THING,
    CITY: LOCATION,
    COUNTRY: LOCATION,
    PRODUCT: ns.THING,
    SMARTPHONE: PRODUCT,
    CREATIVE_WORK: ns.THING,
    ALBUM: CREATIVE_WORK,
    BOOK: CREATIVE_WORK,
    PRIZE: ns.THING,
}

def subclasses_of(cls: Entity) -> frozenset[Entity]:
    """The subclass closure of ``cls``: itself plus every class below it.

    Computed over :data:`CLASS_TREE`; classes outside the tree close over
    just themselves.
    """
    return _subclass_closure().get(cls, frozenset((cls,)))


_CLOSURE_CACHE: dict[Entity, frozenset[Entity]] = {}


def _subclass_closure() -> dict[Entity, frozenset[Entity]]:
    if not _CLOSURE_CACHE:
        descendants: dict[Entity, set[Entity]] = {}
        for child in CLASS_TREE:
            descendants.setdefault(child, set()).add(child)
            node = child
            while node in CLASS_TREE:
                node = CLASS_TREE[node]
                descendants.setdefault(node, set()).add(child)
        for anc, members in descendants.items():
            members.add(anc)
        _CLOSURE_CACHE.update(
            {anc: frozenset(members) for anc, members in descendants.items()}
        )
    return _CLOSURE_CACHE


#: Occupation classes a generated person may carry (besides PERSON).
OCCUPATIONS: tuple[Entity, ...] = (
    SCIENTIST,
    MUSICIAN,
    POLITICIAN,
    ENTREPRENEUR,
    ATHLETE,
    WRITER,
)

#: Class pairs that can never share an instance (used by consistency reasoning).
DISJOINT_CLASSES: tuple[tuple[Entity, Entity], ...] = (
    (PERSON, ORGANIZATION),
    (PERSON, LOCATION),
    (PERSON, PRODUCT),
    (ORGANIZATION, LOCATION),
    (ORGANIZATION, PRODUCT),
    (LOCATION, PRODUCT),
    (CITY, COUNTRY),
    (PERSON, CREATIVE_WORK),
)


# ---------------------------------------------------------------- relations

@dataclass(frozen=True, slots=True)
class RelationSpec:
    """Signature of a world relation."""

    relation: Relation
    domain: Entity
    range: Entity
    functional: bool = False
    temporal: bool = False
    symmetric: bool = False


BORN_IN = rel("bornIn")
DIED_IN = rel("diedIn")
BIRTH_YEAR = rel("birthYear")
DEATH_YEAR = rel("deathYear")
CITIZEN_OF = rel("citizenOf")
LIVES_IN = rel("livesIn")
WORKS_AT = rel("worksAt")
STUDIED_AT = rel("studiedAt")
MARRIED_TO = rel("marriedTo")
FOUNDED = rel("founded")
CEO_OF = rel("ceoOf")
WON_PRIZE = rel("wonPrize")
WROTE = rel("wrote")
RELEASED = rel("released")

HEADQUARTERED_IN = rel("headquarteredIn")
CREATED_PRODUCT = rel("createdProduct")
FOUNDING_YEAR = rel("foundingYear")

LOCATED_IN = rel("locatedIn")
CAPITAL_OF = rel("capitalOf")
POPULATION = rel("population")

RELEASE_YEAR = rel("releaseYear")
SUCCESSOR_OF = rel("successorOf")

#: Every relation of the world, with its signature.
RELATION_SPECS: tuple[RelationSpec, ...] = (
    RelationSpec(BORN_IN, PERSON, CITY, functional=True),
    RelationSpec(DIED_IN, PERSON, CITY, functional=True),
    RelationSpec(CITIZEN_OF, PERSON, COUNTRY),
    RelationSpec(LIVES_IN, PERSON, CITY, temporal=True),
    RelationSpec(WORKS_AT, PERSON, ORGANIZATION, temporal=True),
    RelationSpec(STUDIED_AT, PERSON, UNIVERSITY),
    RelationSpec(MARRIED_TO, PERSON, PERSON, temporal=True, symmetric=True),
    RelationSpec(FOUNDED, PERSON, COMPANY),
    RelationSpec(CEO_OF, PERSON, COMPANY, temporal=True),
    RelationSpec(WON_PRIZE, PERSON, PRIZE, temporal=True),
    RelationSpec(WROTE, PERSON, BOOK),
    RelationSpec(RELEASED, PERSON, ALBUM),
    RelationSpec(HEADQUARTERED_IN, COMPANY, CITY, functional=True),
    RelationSpec(CREATED_PRODUCT, COMPANY, PRODUCT),
    RelationSpec(LOCATED_IN, CITY, COUNTRY, functional=True),
    RelationSpec(CAPITAL_OF, CITY, COUNTRY, functional=True),
    RelationSpec(SUCCESSOR_OF, PRODUCT, PRODUCT, functional=True),
)

#: Attribute relations whose objects are literals.
LITERAL_RELATIONS: tuple[Relation, ...] = (
    BIRTH_YEAR,
    DEATH_YEAR,
    FOUNDING_YEAR,
    POPULATION,
    RELEASE_YEAR,
)

#: Relation pairs declared mutually exclusive for the same (s, o) pair.
DISJOINT_RELATIONS: tuple[tuple[Relation, Relation], ...] = (
    (BORN_IN, DIED_IN),
)

SPEC_BY_RELATION: dict[Relation, RelationSpec] = {
    spec.relation: spec for spec in RELATION_SPECS
}


def _schema_triples() -> list[Triple]:
    """Every class-tree and relation-signature triple, in declaration order."""
    triples = [
        Triple(child, ns.SUBCLASS_OF, parent)
        for child, parent in CLASS_TREE.items()
    ]
    for spec in RELATION_SPECS:
        triples.append(Triple(spec.relation, ns.DOMAIN, spec.domain))
        triples.append(Triple(spec.relation, ns.RANGE, spec.range))
        if spec.functional:
            triples.append(Triple(spec.relation, ns.FUNCTIONAL, _TRUE))
    for a, b in DISJOINT_CLASSES:
        triples.append(Triple(a, ns.DISJOINT_CLASS_WITH, b))
    for r1, r2 in DISJOINT_RELATIONS:
        triples.append(Triple(r1, ns.DISJOINT_WITH, r2))
    triples.extend([
        Triple(BIRTH_YEAR, ns.DOMAIN, PERSON),
        Triple(BIRTH_YEAR, ns.FUNCTIONAL, _TRUE),
        Triple(DEATH_YEAR, ns.DOMAIN, PERSON),
        Triple(DEATH_YEAR, ns.FUNCTIONAL, _TRUE),
        Triple(FOUNDING_YEAR, ns.DOMAIN, COMPANY),
        Triple(FOUNDING_YEAR, ns.FUNCTIONAL, _TRUE),
        Triple(POPULATION, ns.DOMAIN, CITY),
        Triple(RELEASE_YEAR, ns.DOMAIN, PRODUCT),
        Triple(RELEASE_YEAR, ns.FUNCTIONAL, _TRUE),
    ])
    return triples


#: The schema as immutable triples in canonical (s, p, o) key order, built
#: once per process: the pipeline's schema stage and every schema store.
SCHEMA_TRIPLES: tuple[Triple, ...] = tuple(canonical_triples(_schema_triples()))


def schema_store() -> TripleStore:
    """A store containing all class-tree and relation-signature triples."""
    return TripleStore(SCHEMA_TRIPLES)
