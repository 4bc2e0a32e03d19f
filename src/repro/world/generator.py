"""Generation of the synthetic ground-truth world.

A :class:`World` is the complete, noise-free truth: typed entities, their
relational facts (with temporal scopes), names, aliases, and multilingual
labels.  Corpus synthesis renders this truth into text (with controlled
noise); every experiment then measures its subsystem against the world's
gold facts.  Generation is fully deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..kb import (
    Entity,
    Literal,
    Relation,
    TimeSpan,
    Triple,
    TripleStore,
    ns,
    string_literal,
    year_literal,
)
from . import schema as ws
from .names import (
    LANGUAGES,
    PRODUCT_FAMILIES,
    UNIVERSITY_PATTERNS,
    NamePool,
    identifier_from_name,
    person_aliases,
    pseudo_translate,
)


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Size and shape parameters of a generated world."""

    seed: int = 42
    n_countries: int = 8
    n_cities: int = 30
    n_universities: int = 10
    n_companies: int = 20
    n_people: int = 120
    n_product_families: int = 2
    n_products_per_family: int = 4
    n_books: int = 12
    n_albums: int = 12
    n_prizes: int = 4
    ambiguity: float = 0.3

    def __post_init__(self) -> None:
        if self.n_countries < 1 or self.n_countries > 12:
            raise ValueError("n_countries must be between 1 and 12")
        for name in (
            "n_cities",
            "n_universities",
            "n_companies",
            "n_people",
            "n_product_families",
            "n_products_per_family",
            "n_books",
            "n_albums",
            "n_prizes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError("ambiguity must be in [0, 1]")
        if self.n_prizes > 6:
            raise ValueError("n_prizes must be at most 6")
        if self.n_product_families > len(PRODUCT_FAMILIES):
            raise ValueError(f"at most {len(PRODUCT_FAMILIES)} product families")
        if self.n_cities < self.n_countries:
            raise ValueError("need at least one city per country")
        if self.n_companies < self.n_product_families:
            # Each family needs a distinct maker; a short company list would
            # otherwise silently truncate the family zip in _generate_products.
            raise ValueError("need at least one company per product family")
        if self.n_universities > len(UNIVERSITY_PATTERNS) * self.n_cities:
            # Each city can anchor one university per name pattern.
            raise ValueError(
                f"at most {len(UNIVERSITY_PATTERNS)} universities per city"
            )


@dataclass
class World:
    """The generated ground truth.

    Attributes
    ----------
    store:
        All gold triples: schema, types, labels, facts.
    facts:
        Just the relational facts (the extraction targets), a subset view.
    name:
        Preferred English display name per entity.
    aliases:
        Surface forms a text may use for each entity.
    """

    config: WorldConfig
    store: TripleStore = field(default_factory=TripleStore)
    facts: TripleStore = field(default_factory=TripleStore)
    name: dict[Entity, str] = field(default_factory=dict)
    aliases: dict[Entity, list[str]] = field(default_factory=dict)
    people: list[Entity] = field(default_factory=list)
    cities: list[Entity] = field(default_factory=list)
    countries: list[Entity] = field(default_factory=list)
    companies: list[Entity] = field(default_factory=list)
    universities: list[Entity] = field(default_factory=list)
    products: list[Entity] = field(default_factory=list)
    books: list[Entity] = field(default_factory=list)
    albums: list[Entity] = field(default_factory=list)
    prizes: list[Entity] = field(default_factory=list)
    product_family: dict[Entity, str] = field(default_factory=dict)
    primary_class: dict[Entity, Entity] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors

    def all_entities(self) -> list[Entity]:
        """Every generated (non-class) entity."""
        return (
            self.people + self.cities + self.countries + self.companies
            + self.universities + self.products + self.books + self.albums
            + self.prizes
        )

    def entities_of_class(self, cls: Entity) -> list[Entity]:
        """All entities whose primary class is (a subclass of) ``cls``.

        Subclass semantics follow the schema taxonomy: asking for
        ``ORGANIZATION`` yields companies and universities, ``PERSON`` yields
        every person regardless of occupation.  The curated per-class lists
        come first (in their generation order), so leaf-class queries return
        exactly what they always did.
        """
        closure = ws.subclasses_of(cls)
        taxonomy = {
            ws.PERSON: self.people,
            ws.CITY: self.cities,
            ws.COUNTRY: self.countries,
            ws.COMPANY: self.companies,
            ws.UNIVERSITY: self.universities,
            ws.PRODUCT: self.products,
            ws.BOOK: self.books,
            ws.ALBUM: self.albums,
            ws.PRIZE: self.prizes,
        }
        result: list[Entity] = []
        seen: set[Entity] = set()
        for tax_cls, members in taxonomy.items():
            if tax_cls in closure:
                for entity in members:
                    if entity not in seen:
                        seen.add(entity)
                        result.append(entity)
        for entity, primary in self.primary_class.items():
            if primary in closure and entity not in seen:
                seen.add(entity)
                result.append(entity)
        return result

    def fact_exists(self, subject: Entity, relation: Relation, obj) -> bool:
        """True if the (s, r, o) fact is part of the ground truth."""
        return self.facts.contains_fact(subject, relation, obj)

    def alias_index(self) -> dict[str, set[Entity]]:
        """Surface form -> set of entities it may denote (the ambiguity map)."""
        index: dict[str, set[Entity]] = {}
        for entity, forms in self.aliases.items():
            for form in forms:
                index.setdefault(form, set()).add(entity)
        return index

    def label_in(self, entity: Entity, lang: str) -> Optional[str]:
        """The entity's label in a language, if recorded."""
        for literal in self.store.objects(entity, ns.LABEL):
            if isinstance(literal, Literal) and literal.lang == lang:
                return literal.value
        return None


def _register(
    world: World,
    name: str,
    primary: Entity,
    extra_classes: tuple[Entity, ...] = (),
    aliases: Optional[list[str]] = None,
    prefix: str = "world",
) -> Entity:
    """Create an entity, its type triples, and its (multilingual) labels."""
    local = identifier_from_name(name)
    entity = Entity(f"{prefix}:{local}")
    if entity in world.name:
        # Same display name generated twice (e.g. a book title colliding
        # with another); disambiguate the identifier, keep the surface form.
        suffix = 2
        while Entity(f"{prefix}:{local}_{suffix}") in world.name:
            suffix += 1
        entity = Entity(f"{prefix}:{local}_{suffix}")
    world.name[entity] = name
    world.primary_class[entity] = primary
    world.aliases[entity] = list(dict.fromkeys(aliases or [name]))
    world.store.add(Triple(entity, ns.TYPE, primary))
    for cls in extra_classes:
        world.store.add(Triple(entity, ns.TYPE, cls))
    world.store.add(Triple(entity, ns.PREF_LABEL, string_literal(name)))
    world.store.add(Triple(entity, ns.LABEL, string_literal(name, "en")))
    for lang in LANGUAGES:
        world.store.add(
            Triple(entity, ns.LABEL, string_literal(pseudo_translate(name, lang), lang))
        )
    return entity


def _add_fact(
    world: World,
    subject: Entity,
    relation: Relation,
    obj,
    scope: Optional[TimeSpan] = None,
) -> None:
    triple = Triple(subject, relation, obj, scope=scope)
    world.store.add(triple)
    world.facts.add(triple)


def generate_world(config: Optional[WorldConfig] = None) -> World:
    """Generate a complete world from the configuration (deterministic)."""
    if config is None:
        config = WorldConfig()
    rng = random.Random(config.seed)
    pool = NamePool(config.seed + 1, config.ambiguity)
    world = World(config=config)
    world.store.add_all(ws.SCHEMA_TRIPLES)

    _generate_geography(world, config, rng, pool)
    _generate_organizations(world, config, rng, pool)
    _generate_products(world, config, rng)
    _generate_people(world, config, rng, pool)
    _generate_works(world, config, rng, pool)
    return world


# ------------------------------------------------------------------ stages

def _generate_geography(world, config, rng, pool) -> None:
    for __ in range(config.n_countries):
        name = pool.country_name()
        country = _register(world, name, ws.COUNTRY)
        world.countries.append(country)
    for i in range(config.n_cities):
        name = pool.city_name()
        city = _register(world, name, ws.CITY)
        world.cities.append(city)
        # Round-robin the first pass so every country gets a capital.
        country = (
            world.countries[i]
            if i < len(world.countries)
            else rng.choice(world.countries)
        )
        _add_fact(world, city, ws.LOCATED_IN, country)
        if i < len(world.countries):
            _add_fact(world, city, ws.CAPITAL_OF, country)
        population = rng.randint(20, 9_000) * 1_000
        _add_fact(world, city, ws.POPULATION, Literal(str(population), "integer"))


def _generate_organizations(world, config, rng, pool) -> None:
    for __ in range(config.n_universities):
        city = rng.choice(world.cities)
        # Redraw only a city whose every university pattern is taken, so
        # worlds that never hit that case keep their random draws.
        while not pool.has_university_name(world.name[city]):
            city = rng.choice(world.cities)
        name = pool.university_name(world.name[city])
        university = _register(world, name, ws.UNIVERSITY)
        world.universities.append(university)
        _add_fact(world, university, ws.HEADQUARTERED_IN, city)
    for __ in range(config.n_companies):
        name = pool.company_name()
        stem = name.split()[0]
        company = _register(world, name, ws.COMPANY, aliases=[name, stem])
        world.companies.append(company)
        city = rng.choice(world.cities)
        _add_fact(world, company, ws.HEADQUARTERED_IN, city)
        founding = rng.randint(1950, 2010)
        _add_fact(world, company, ws.FOUNDING_YEAR, year_literal(founding))
    for __ in range(config.n_prizes):
        prize = _register(world, pool.prize_name(), ws.PRIZE)
        world.prizes.append(prize)


def _generate_products(world, config, rng) -> None:
    """Rival product families (the "iPhone vs Galaxy" analytics workload)."""
    families = list(PRODUCT_FAMILIES[: config.n_product_families])
    makers = world.companies[: len(families)]
    for family, maker in zip(families, makers):
        base_year = rng.randint(2004, 2008)
        predecessor = None
        for generation in range(1, config.n_products_per_family + 1):
            name = f"{family} {generation}"
            product = _register(
                world,
                name,
                ws.SMARTPHONE,
                aliases=[name, family],
            )
            world.products.append(product)
            world.product_family[product] = family
            _add_fact(world, maker, ws.CREATED_PRODUCT, product)
            _add_fact(
                world, product, ws.RELEASE_YEAR,
                year_literal(base_year + 2 * (generation - 1)),
            )
            if predecessor is not None:
                _add_fact(world, product, ws.SUCCESSOR_OF, predecessor)
            predecessor = product


def _generate_people(world, config, rng, pool) -> None:
    for __ in range(config.n_people):
        given, surname = pool.person_name()
        full = f"{given} {surname}"
        occupation = rng.choice(ws.OCCUPATIONS)
        person = _register(
            world, full, ws.PERSON, extra_classes=(occupation,),
            aliases=person_aliases(given, surname),
        )
        world.people.append(person)
        world.primary_class[person] = occupation

        birth_city = rng.choice(world.cities)
        birth_year = rng.randint(1900, 1990)
        _add_fact(world, person, ws.BORN_IN, birth_city)
        _add_fact(world, person, ws.BIRTH_YEAR, year_literal(birth_year))
        birth_country = world.facts.one_object(birth_city, ws.LOCATED_IN)
        if birth_country is not None:
            _add_fact(world, person, ws.CITIZEN_OF, birth_country)

        death_year = None
        if rng.random() < 0.25:
            death_year = min(birth_year + rng.randint(40, 95), 2014)
            _add_fact(world, person, ws.DEATH_YEAR, year_literal(death_year))
            # Death city differs from the birth city so the bornIn/diedIn
            # relation-disjointness constraint is sound in this world.
            death_city = rng.choice([c for c in world.cities if c != birth_city])
            _add_fact(world, person, ws.DIED_IN, death_city)

        def life_capped(begin: int, end: int):
            # No activity outside the lifespan: scopes start after age 14
            # and end no later than the death year.
            begin = max(begin, birth_year + 14)
            if death_year is not None:
                end = min(end, death_year)
                begin = min(begin, death_year)
            return TimeSpan(begin, max(begin, end))

        if world.universities and rng.random() < 0.7:
            _add_fact(world, person, ws.STUDIED_AT, rng.choice(world.universities))

        employer_pool = world.companies + world.universities
        if employer_pool and rng.random() < 0.8:
            start = birth_year + rng.randint(20, 30)
            end = start + rng.randint(2, 30)
            _add_fact(
                world, person, ws.WORKS_AT, rng.choice(employer_pool),
                scope=life_capped(start, end),
            )

        if occupation == ws.ENTREPRENEUR and world.companies and rng.random() < 0.8:
            company = rng.choice(world.companies)
            _add_fact(world, person, ws.FOUNDED, company)
            start = birth_year + rng.randint(25, 40)
            if rng.random() < 0.6:
                _add_fact(
                    world, person, ws.CEO_OF, company,
                    scope=life_capped(start, start + rng.randint(3, 20)),
                )

        if occupation == ws.SCIENTIST and world.prizes and rng.random() < 0.6:
            year = birth_year + rng.randint(30, 60)
            prize_span = life_capped(year, year)
            _add_fact(
                world, person, ws.WON_PRIZE, rng.choice(world.prizes),
                scope=TimeSpan(prize_span.begin, prize_span.begin),
            )

    # Marriages: pair up a subset, with temporal scopes capped to both
    # spouses' lifespans.
    unmarried = list(world.people)
    rng.shuffle(unmarried)
    for i in range(0, int(len(unmarried) * 0.4) - 1, 2):
        a, b = unmarried[i], unmarried[i + 1]
        year_a = int(world.facts.one_object(a, ws.BIRTH_YEAR).value)
        year_b = int(world.facts.one_object(b, ws.BIRTH_YEAR).value)
        begin = max(year_a, year_b) + rng.randint(16, 30)
        end = begin + rng.randint(5, 50)
        for person in (a, b):
            death = world.facts.one_object(person, ws.DEATH_YEAR)
            if death is not None:
                end = min(end, int(death.value))
        if end < begin:
            continue  # one spouse died before the other came of age
        scope = TimeSpan(begin, end)
        _add_fact(world, a, ws.MARRIED_TO, b, scope=scope)
        _add_fact(world, b, ws.MARRIED_TO, a, scope=scope)


def _generate_works(world, config, rng, pool) -> None:
    writers = [p for p in world.people if world.primary_class.get(p) == ws.WRITER]
    musicians = [p for p in world.people if world.primary_class.get(p) == ws.MUSICIAN]
    for __ in range(config.n_books):
        if not writers:
            break
        place = world.name[rng.choice(world.cities)]
        book = _register(world, pool.book_title(place), ws.BOOK)
        world.books.append(book)
        _add_fact(world, rng.choice(writers), ws.WROTE, book)
    for __ in range(config.n_albums):
        if not musicians:
            break
        place = world.name[rng.choice(world.cities)]
        album = _register(world, pool.album_title(place), ws.ALBUM)
        world.albums.append(album)
        _add_fact(world, rng.choice(musicians), ws.RELEASED, album)
