"""Named stress scenarios: the workload-profile layer of the synthetic world.

The tutorial's thesis is that KB construction must survive the messiness of
big data — bursty social streams, ambiguous names, conflicting and
time-varying facts, skewed language coverage.  A single pinned-seed world
exercises none of those axes deliberately, so quality regressions can hide
behind it.  This module turns the generator stack into a *scenario engine*:
each :class:`ScenarioSpec` is a named, pinned-seed bundle of world, wiki,
corpus, and social-stream configuration plus optional fault injectors, and
:func:`build_scenario` materializes it into a :class:`ScenarioBundle` — the
pages the real pipeline builds from, the gold labels it is scored against,
and measured *knobs* proving the scenario actually stresses its target axis.

Shipped profiles (:data:`SCENARIOS`):

* ``baseline`` — the nominal workload every stress knob is compared against;
* ``burst_social`` — 10–100x monthly post spikes folded into product pages,
  the delta-ingestion workload for :class:`repro.pipeline.IncrementalBuilder`;
* ``adversarial_noise`` — elevated false-fact injection (functional and
  cross-class conflicts) to stress MaxSat consistency reasoning;
* ``heavy_ambiguity`` — alias-collision-dense entity space plus short-alias
  mentions to stress NED and linkage;
* ``temporal_drift`` — facts whose truth changes across scoped spans
  (job-hopping employment chains) to stress temporal scoping;
* ``multilingual_skew`` — per-language interlanguage dropout skew to stress
  multilingual label harvesting.

Every bundle is a pure function of its spec: same profile, same bytes — in
any process, in any execution mode (the pipeline's cross-mode
contract extends to scenario builds; ``tests/test_scenarios.py`` holds the
byte-identity matrix).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional, Union

from ..corpus.document import Document
from ..corpus.social import SocialConfig, SocialStream, generate_stream
from ..corpus.synthesis import (
    CorpusConfig,
    corrupt_fact,
    render_fact_sentence,
    synthesize,
)
from ..corpus.templates import TEMPLATES, templates_for
from ..corpus.wiki import Wiki, WikiConfig, WikiPage, build_wiki
from ..determinism.stable import canonical_kb_lines
from ..kb import TimeSpan
from . import schema as ws
from .generator import World, WorldConfig, _add_fact, generate_world


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    """Adversarial false-fact injection into wiki pages.

    For each renderable gold fact of a page's entity, with probability
    ``p_false`` a corrupted variant (object swapped via
    :func:`repro.corpus.synthesis.corrupt_fact`) is rendered as an extra
    sentence on that page.  ``p_cross_class`` splits the corruption between
    cross-class swaps (caught by type constraints) and same-class siblings
    (caught only by functionality constraints) — the two conflict families
    MaxSat reasoning must arbitrate.
    """

    seed: int = 97
    p_false: float = 0.4
    p_cross_class: float = 0.5

    def __post_init__(self) -> None:
        for name, value in (
            ("p_false", self.p_false),
            ("p_cross_class", self.p_cross_class),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class DriftSpec:
    """Temporal drift: facts whose truth changes across scoped spans.

    A ``fraction`` of employed people get ``extra_spans`` additional
    WORKS_AT facts — different employers, later non-overlapping spans — so
    the same (subject, relation) pair holds different objects at different
    times.  The generator proper emits at most one employment per person,
    which is why the baseline drift knob sits at zero.
    """

    seed: int = 89
    fraction: float = 0.5
    extra_spans: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.extra_spans < 1:
            raise ValueError("extra_spans must be at least 1")


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One named, pinned-seed stress workload."""

    name: str
    description: str
    #: The subsystem axis this scenario stresses (shown by ``scenario list``).
    stresses: str
    world: WorldConfig
    wiki: WikiConfig
    corpus: CorpusConfig
    social: Optional[SocialConfig] = None
    noise: Optional[NoiseSpec] = None
    drift: Optional[DriftSpec] = None
    #: Fold the social stream's posts into the product pages (the built KB
    #: then covers the burst, and the pre-fold wiki becomes the incremental
    #: builder's seed corpus).
    fold_posts: bool = False
    #: Quality harness: also run the burst through
    #: :class:`~repro.pipeline.IncrementalBuilder` as a delta ingest and
    #: assert it is byte-identical to the one-shot build.
    incremental_burst: bool = False


@dataclass(slots=True)
class ScenarioBundle:
    """A materialized scenario: pages, gold labels, streams, and knobs."""

    spec: ScenarioSpec
    world: World
    #: The wiki the pipeline builds from (noise injected, posts folded).
    wiki: Wiki
    #: Annotated free-text corpus (document-level gold mentions/facts).
    documents: list[Document] = field(default_factory=list)
    stream: Optional[SocialStream] = None
    #: Pre-fold wiki (only when the spec folds posts): the incremental
    #: builder's seed corpus.
    base_wiki: Optional[Wiki] = None
    #: The delta batch ``attach_posts`` produced (only when folding).
    changed_pages: list[WikiPage] = field(default_factory=list)
    #: False sentences the noise injector added across all pages.
    injected_false: int = 0

    # ------------------------------------------------------------- gold

    def gold_fact_keys(self) -> frozenset:
        """(s, p, o) keys of every gold relational fact — the scoring target."""
        return frozenset(
            triple.spo()
            for triple in self.world.facts
            if triple.predicate in FACT_RELATIONS
        )

    # ------------------------------------------------------------ knobs

    def knobs(self) -> dict[str, float]:
        """Measured stress knobs — proof the scenario moves its target axis.

        * ``alias_collision_rate`` — fraction of people whose bare surname
          denotes more than one entity (NED difficulty);
        * ``surname_ambiguity_degree`` — mean number of entities a
          person's surname may denote (collision *depth*, the knob the
          ``ambiguity`` world parameter drives);
        * ``false_sentence_rate`` — fraction of gold-fact sentences on wiki
          pages that assert a false fact (reasoning difficulty);
        * ``drift_pairs`` — (subject, temporal relation) pairs holding two
          or more distinct objects across scopes (temporal difficulty);
        * ``burst_ratio`` — peak monthly post volume over the median
          (ingestion burstiness);
        * ``interlanguage_spread`` — max minus min per-language label
          coverage across pages (multilingual skew).
        """
        index = self.world.alias_index()
        people = self.world.people
        shared = 0
        degree_sum = 0.0
        for person in people:
            surname = self.world.name[person].split()[-1]
            degree = len(index.get(surname) or (person,))
            degree_sum += degree
            if degree > 1:
                shared += 1
        knobs: dict[str, float] = {
            "pages": float(len(self.wiki.pages)),
            "sentences": float(
                sum(
                    len(p.document.sentences)
                    for p in self.wiki.pages.values()
                )
            ),
            "alias_collision_rate": shared / len(people) if people else 0.0,
            "surname_ambiguity_degree": (
                degree_sum / len(people) if people else 0.0
            ),
            "false_sentence_rate": self._false_sentence_rate(),
            "drift_pairs": float(self._drift_pairs()),
            "burst_ratio": self._burst_ratio(),
            "interlanguage_spread": self._interlanguage_spread(),
        }
        return knobs

    def _false_sentence_rate(self) -> float:
        truthful = 0
        false = 0
        for page in self.wiki.pages.values():
            for sentence in page.document.sentences:
                for gold in sentence.facts:
                    if gold.truthful:
                        truthful += 1
                    else:
                        false += 1
        total = truthful + false
        return false / total if total else 0.0

    def _drift_pairs(self) -> int:
        temporal = frozenset(
            spec.relation for spec in ws.RELATION_SPECS if spec.temporal
        )
        objects_by_pair: dict[tuple, set] = {}
        for triple in self.world.facts:
            if triple.predicate in temporal and triple.scope is not None:
                key = (triple.subject, triple.predicate)
                objects_by_pair.setdefault(key, set()).add(triple.object)
        return sum(
            1 for objects in objects_by_pair.values() if len(objects) >= 2
        )

    def _burst_ratio(self) -> float:
        if self.stream is None:
            return 0.0
        months = range(len(next(iter(self.stream.gold_volume.values()), [])))
        totals = sorted(
            sum(self.stream.gold_volume[family][month]
                for family in self.stream.families)
            for month in months
        )
        if not totals:
            return 0.0
        median = totals[len(totals) // 2]
        return totals[-1] / median if median else float(totals[-1])

    def _interlanguage_spread(self) -> float:
        pages = len(self.wiki.pages)
        if not pages:
            return 0.0
        coverage = []
        for lang in ("de", "fr", "es"):
            have = sum(
                1
                for page in self.wiki.pages.values()
                if lang in page.interlanguage
            )
            coverage.append(have / pages)
        return max(coverage) - min(coverage)

    # ------------------------------------------------------ fingerprint

    def fingerprint(self) -> str:
        """A content digest of everything the scenario pins.

        Two builds of the same profile must return the same hex digest —
        the cheap, whole-bundle determinism check (pages, infoboxes,
        categories, interlanguage links, gold facts, documents, posts).
        """
        digest = hashlib.blake2b(digest_size=16)

        def feed(text: str) -> None:
            digest.update(text.encode("utf-8"))
            digest.update(b"\x00")

        for title in sorted(self.wiki.pages):
            page = self.wiki.pages[title]
            feed(f"page:{title}:{page.entity!r}")
            for sentence in page.document.sentences:
                feed(sentence.text)
            for attribute in sorted(page.infobox):
                feed(f"{attribute}={page.infobox[attribute]}")
            for category in page.categories:
                feed(f"cat:{category.name}:{category.conceptual}")
            for lang in sorted(page.interlanguage):
                feed(f"lang:{lang}:{page.interlanguage[lang]}")
            for link in page.links:
                feed(f"link:{link}")
        for line in canonical_kb_lines(self.world.facts):
            feed(line)
        for document in self.documents:
            feed(f"doc:{document.doc_id}")
            for sentence in document.sentences:
                feed(sentence.text)
        if self.stream is not None:
            for post in sorted(self.stream.posts, key=lambda p: p.post_id):
                feed(f"post:{post.post_id}:{post.month}:{post.text}")
        return digest.hexdigest()


#: Relational gold: every schema relation plus the literal attributes.
FACT_RELATIONS = frozenset(
    {spec.relation for spec in ws.RELATION_SPECS} | set(ws.LITERAL_RELATIONS)
)


# ------------------------------------------------------------- injectors


def _inject_noise(world: World, wiki: Wiki, spec: NoiseSpec) -> int:
    """Append corrupted-fact sentences to wiki pages (deterministic).

    Pages are visited in sorted-title order and each page's gold facts in
    store insertion order, so the injected sentences — and therefore the
    built KB — are a pure function of (world, wiki, spec).
    """
    rng = random.Random(spec.seed)
    injected = 0
    for title in sorted(wiki.pages):
        page = wiki.pages[title]
        facts = [
            triple
            for triple in world.facts.match(subject=page.entity)
            if triple.predicate in TEMPLATES
        ]
        for fact in facts:
            if rng.random() >= spec.p_false:
                continue
            corrupted = corrupt_fact(world, fact, rng, spec.p_cross_class)
            if corrupted is None:
                continue
            available = templates_for(fact.predicate, "hard")
            if not available:
                continue
            template = rng.choice(available)
            page.document.sentences.append(
                render_fact_sentence(
                    world, corrupted, template, rng, truthful=False
                )
            )
            injected += 1
    return injected


def _inject_drift(world: World, spec: DriftSpec) -> int:
    """Give employed people later, non-overlapping employment spans.

    Returns the number of drift facts added.  Iterates ``world.people`` in
    generation order with a dedicated seeded rng — deterministic, and
    independent of the base generator's rng stream.
    """
    rng = random.Random(spec.seed)
    employers = world.companies + world.universities
    if len(employers) < 2:
        return 0
    added = 0
    for person in world.people:
        existing = list(
            world.facts.match(subject=person, predicate=ws.WORKS_AT)
        )
        if not existing:
            continue
        if rng.random() >= spec.fraction:
            continue
        last = existing[-1]
        current = last.object
        end = last.scope.end if last.scope and last.scope.end else 1990
        for __ in range(spec.extra_spans):
            pool = [e for e in employers if e != current]
            employer = rng.choice(pool)
            begin = end + 1 + rng.randint(0, 3)
            end = begin + rng.randint(1, 8)
            _add_fact(
                world, person, ws.WORKS_AT, employer,
                scope=TimeSpan(begin, end),
            )
            current = employer
            added += 1
    return added


# -------------------------------------------------------------- registry


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="baseline",
            description=(
                "Nominal workload: modest noise, ambiguity, and social "
                "chatter — the reference point every stress knob is "
                "compared against."
            ),
            stresses="reference",
            world=WorldConfig(seed=101, n_people=48, ambiguity=0.3),
            wiki=WikiConfig(seed=103),
            corpus=CorpusConfig(seed=107, p_false=0.05),
            social=SocialConfig(
                seed=109, months=18, base_posts_per_month=20,
                release_boost=30,
            ),
        ),
        ScenarioSpec(
            name="burst_social",
            description=(
                "10-100x monthly post spikes around product releases, "
                "folded into the product pages — the delta-ingestion "
                "workload for the incremental builder."
            ),
            stresses="ingestion / IncrementalBuilder",
            world=WorldConfig(seed=211, n_people=48),
            wiki=WikiConfig(seed=213),
            corpus=CorpusConfig(seed=217),
            social=SocialConfig(
                seed=223, months=18, base_posts_per_month=8,
                release_boost=320,
            ),
            fold_posts=True,
            incremental_burst=True,
        ),
        ScenarioSpec(
            name="adversarial_noise",
            description=(
                "Half of all gold facts also appear corrupted — functional "
                "conflicts and cross-class type violations MaxSat "
                "consistency reasoning must arbitrate."
            ),
            stresses="consistency / MaxSat",
            world=WorldConfig(seed=307, n_people=48),
            wiki=WikiConfig(seed=311),
            corpus=CorpusConfig(seed=313, p_false=0.5, p_cross_class=0.5),
            noise=NoiseSpec(seed=317, p_false=0.5, p_cross_class=0.5),
        ),
        ScenarioSpec(
            name="heavy_ambiguity",
            description=(
                "Alias-collision-dense name space (0.95 ambiguity) with "
                "half of all mentions using short aliases — the NED and "
                "linkage stress case."
            ),
            stresses="NED / linkage",
            world=WorldConfig(seed=401, n_people=48, ambiguity=0.95),
            wiki=WikiConfig(seed=409, p_short_alias=0.5),
            corpus=CorpusConfig(seed=419, p_short_alias=0.5),
        ),
        ScenarioSpec(
            name="temporal_drift",
            description=(
                "Employment facts whose truth changes across scoped spans "
                "(job-hopping chains); longer pages so the drifted spans "
                "actually render."
            ),
            stresses="temporal scoping",
            world=WorldConfig(seed=503, n_people=48),
            wiki=WikiConfig(seed=509, sentences_per_page=10),
            corpus=CorpusConfig(seed=521),
            drift=DriftSpec(seed=523, fraction=0.6, extra_spans=2),
        ),
        ScenarioSpec(
            name="multilingual_skew",
            description=(
                "Skewed language editions: German labels nearly complete, "
                "Spanish nearly absent — the multilingual harvesting "
                "stress case."
            ),
            stresses="multilingual labels",
            world=WorldConfig(seed=601, n_people=48),
            wiki=WikiConfig(
                seed=607,
                interlanguage_dropout=0.2,
                interlanguage_dropout_by_lang=(
                    ("de", 0.05), ("fr", 0.5), ("es", 0.9),
                ),
            ),
            corpus=CorpusConfig(seed=613),
        ),
    )
}


def build_scenario(profile: Union[str, ScenarioSpec]) -> ScenarioBundle:
    """Materialize a scenario profile (deterministic given the spec).

    Order of operations: generate the world, inject drift (extra gold
    facts must exist before pages render), build the wiki, inject noise
    (false sentences onto built pages), synthesize the annotated document
    corpus, generate the social stream, and finally fold posts into the
    product pages when the spec asks for it — keeping the pre-fold wiki
    around as the incremental builder's seed corpus.
    """
    if isinstance(profile, str):
        try:
            spec = SCENARIOS[profile]
        except KeyError:
            known = ", ".join(sorted(SCENARIOS))
            raise KeyError(
                f"unknown scenario {profile!r} (known: {known})"
            ) from None
    else:
        spec = profile

    world = generate_world(spec.world)
    if spec.drift is not None:
        _inject_drift(world, spec.drift)
    wiki = build_wiki(world, spec.wiki)
    injected = 0
    if spec.noise is not None:
        injected = _inject_noise(world, wiki, spec.noise)
    documents = synthesize(world, spec.corpus)
    stream = (
        generate_stream(world, spec.social) if spec.social is not None else None
    )

    base_wiki: Optional[Wiki] = None
    changed_pages: list[WikiPage] = []
    if spec.fold_posts and stream is not None:
        from ..pipeline.incremental import attach_posts

        base_wiki = wiki
        changed_pages = attach_posts(wiki, stream.posts)
        folded = Wiki(
            pages=dict(wiki.pages), by_entity=dict(wiki.by_entity)
        )
        for page in changed_pages:
            folded.pages[page.title] = page
        wiki = folded

    return ScenarioBundle(
        spec=spec,
        world=world,
        wiki=wiki,
        documents=documents,
        stream=stream,
        base_wiki=base_wiki,
        changed_pages=changed_pages,
        injected_false=injected,
    )
