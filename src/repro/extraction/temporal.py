"""Temporal knowledge harvesting: expressions, scopes, year attributes.

Properly interpreting facts often requires their temporal scope (tutorial
section 3): *when* someone led a company, married, or won a prize.  This
module provides

* a temporal-expression tagger (years, "from Y1 to Y2", "since Y",
  "in Y"),
* fact scoping — attaching the tagged expression of the evidence sentence
  to an extracted fact as a :class:`~repro.kb.triple.TimeSpan`,
* year-attribute extraction (birth/founding/release years) from the same
  expressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional

from ..kb import Entity, Relation, TimeSpan, Triple, TripleStore
from ..world import schema as ws
from .base import Candidate

_YEAR = r"(1[6-9]\d{2}|20\d{2})"
_SPAN_RE = re.compile(rf"\bfrom {_YEAR} (?:to|until) {_YEAR}\b")
_SINCE_RE = re.compile(rf"\bsince {_YEAR}\b")
_UNTIL_RE = re.compile(rf"\buntil {_YEAR}\b")
_IN_RE = re.compile(rf"\bin {_YEAR}\b")
_BARE_RE = re.compile(rf"\b{_YEAR}\b")


@dataclass(frozen=True, slots=True)
class TemporalTag:
    """One tagged temporal expression."""

    start: int
    end: int
    text: str
    span: TimeSpan
    kind: str  # "span" | "since" | "until" | "point"


@lru_cache(maxsize=16384)
def _tag_temporal(text: str) -> tuple[TemporalTag, ...]:
    """The memoized tagger core (see :func:`tag_temporal`).

    Hot path: scoping calls this once per *candidate*, year-attribute
    extraction once per sentence — the same evidence text over and over.
    Tags are frozen dataclasses, so the cached tuple is safely shared.
    """
    # Every pattern requires a year literal; one scan rejects the common
    # case (no year anywhere) before the five-pattern pass.
    if _BARE_RE.search(text) is None:
        return ()
    tags: list[TemporalTag] = []
    taken: list[tuple[int, int]] = []

    def add(match: re.Match, span: TimeSpan, kind: str) -> None:
        if any(not (match.end() <= s or match.start() >= e) for s, e in taken):
            return
        taken.append((match.start(), match.end()))
        tags.append(TemporalTag(match.start(), match.end(), match.group(), span, kind))

    for match in _SPAN_RE.finditer(text):
        begin, end = int(match.group(1)), int(match.group(2))
        if begin <= end:
            add(match, TimeSpan(begin, end), "span")
    for match in _SINCE_RE.finditer(text):
        add(match, TimeSpan(int(match.group(1)), None), "since")
    for match in _UNTIL_RE.finditer(text):
        add(match, TimeSpan(None, int(match.group(1))), "until")
    for match in _IN_RE.finditer(text):
        year = int(match.group(1))
        add(match, TimeSpan(year, year), "point")
    for match in _BARE_RE.finditer(text):
        year = int(match.group(1))
        add(match, TimeSpan(year, year), "point")
    tags.sort(key=lambda t: t.start)
    return tuple(tags)


def tag_temporal(text: str) -> list[TemporalTag]:
    """All temporal expressions of a sentence, most specific first."""
    return list(_tag_temporal(text))


@lru_cache(maxsize=16384)
def sentence_scope(text: str) -> Optional[TimeSpan]:
    """The most informative temporal scope expressed by a sentence.

    Preference order: explicit spans > since/until (half-open) > points.
    Memoized (pure function of the text): many candidates share one
    evidence sentence, and scoping used to re-tag it per candidate.
    """
    tags = _tag_temporal(text)
    if not tags:
        return None
    for kind in ("span", "since", "until", "point"):
        for tag in tags:
            if tag.kind == kind:
                return tag.span
    return None


#: Relations whose facts carry temporal scopes in this world.
SCOPED_RELATIONS = frozenset(
    {ws.WORKS_AT, ws.MARRIED_TO, ws.CEO_OF, ws.WON_PRIZE, ws.LIVES_IN}
)


def attach_scopes(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Scope each candidate of a temporal relation from its evidence text."""
    scoped = []
    for candidate in candidates:
        if candidate.relation in SCOPED_RELATIONS and candidate.evidence:
            span = sentence_scope(candidate.evidence)
            if span is not None:
                scoped.append(replace(candidate, scope=span))
                continue
        scoped.append(candidate)
    return scoped


def scope_candidate(candidate: Candidate) -> Optional[TimeSpan]:
    """The scope a candidate's evidence sentence supports, if any."""
    if not candidate.evidence:
        return None
    return sentence_scope(candidate.evidence)


def infer_scope_bounds(
    store: TripleStore, adulthood_age: int = 14
) -> TripleStore:
    """Infer coarse timespans for unscoped facts from lifespan knowledge.

    The tutorial calls for "inferring the timepoints of events and
    timespans during which certain facts hold" beyond explicit statements:
    a person's employment, marriage, or prize cannot precede adulthood or
    outlive them.  For every unscoped fact of a scoped relation whose
    subject has a known birth year, this attaches the widest consistent
    span — ``[birth + adulthood_age, death]`` — as an *inferred* scope
    (source ``temporal-inference``); facts that already carry a scope pass
    through unchanged.
    """
    result = TripleStore()
    for triple in store:
        if (
            triple.predicate not in SCOPED_RELATIONS
            or triple.scope is not None
            or not isinstance(triple.subject, Entity)
        ):
            result.add(triple)
            continue
        birth = store.one_object(triple.subject, ws.BIRTH_YEAR)
        if birth is None:
            result.add(triple)
            continue
        begin = int(birth.value) + adulthood_age
        death = store.one_object(triple.subject, ws.DEATH_YEAR)
        end = int(death.value) if death is not None else None
        if end is not None and end < begin:
            begin = end
        inferred = replace(
            triple, scope=TimeSpan(begin, end), source="temporal-inference"
        )
        result.add(inferred)
    return result


def lifespan_violations(store: TripleStore, adulthood_age: int = 0) -> list[Triple]:
    """Scoped facts inconsistent with their subject's lifespan.

    A diagnostic for harvested KBs: returns facts whose scope starts
    before ``birth + adulthood_age`` or ends after the death year.
    """
    violations = []
    for triple in store:
        if triple.scope is None or not isinstance(triple.subject, Entity):
            continue
        if triple.predicate not in SCOPED_RELATIONS:
            continue
        birth = store.one_object(triple.subject, ws.BIRTH_YEAR)
        death = store.one_object(triple.subject, ws.DEATH_YEAR)
        if (
            birth is not None
            and triple.scope.begin is not None
            and triple.scope.begin < int(birth.value) + adulthood_age
        ):
            violations.append(triple)
            continue
        if (
            death is not None
            and triple.scope.end is not None
            and triple.scope.end > int(death.value)
        ):
            violations.append(triple)
    return violations


#: Evidence keywords that select which year-attribute a sentence expresses.
_YEAR_ATTRIBUTE_CUES: tuple[tuple[re.Pattern, Relation], ...] = (
    (re.compile(r"\bborn\b", re.IGNORECASE), ws.BIRTH_YEAR),
    (re.compile(r"\b(died|passed away)\b", re.IGNORECASE), ws.DEATH_YEAR),
    (re.compile(r"\b(founded|established)\b", re.IGNORECASE), ws.FOUNDING_YEAR),
    (re.compile(r"\b(launched|released)\b", re.IGNORECASE), ws.RELEASE_YEAR),
)


def extract_year_attributes(
    subject: Entity, sentence: str, subject_class: Optional[Entity] = None
) -> list[Triple]:
    """Year-attribute facts a sentence supports about its subject.

    ``subject_class`` (when known) filters out mismatched cues, e.g. a
    "founded" cue with a person subject yields the company's founding year,
    not an attribute of the founder — so person subjects only take
    born/died cues, organizations only founded, products only released.
    """
    from ..kb import year_literal

    tags = _tag_temporal(sentence)
    points = [t for t in tags if t.kind == "point"]
    if not points:
        return []
    year = points[-1].span.begin
    triples = []
    for cue, relation in _YEAR_ATTRIBUTE_CUES:
        if not cue.search(sentence):
            continue
        if subject_class is not None and not _cue_matches_class(relation, subject_class):
            continue
        triples.append(
            Triple(subject, relation, year_literal(year), confidence=0.8,
                   source=sentence)
        )
    return triples


def _cue_matches_class(relation: Relation, subject_class: Entity) -> bool:
    if relation in (ws.BIRTH_YEAR, ws.DEATH_YEAR):
        return subject_class == ws.PERSON or subject_class in ws.OCCUPATIONS
    if relation == ws.FOUNDING_YEAR:
        return subject_class in (ws.COMPANY, ws.ORGANIZATION, ws.UNIVERSITY)
    if relation == ws.RELEASE_YEAR:
        return subject_class in (ws.PRODUCT, ws.SMARTPHONE)
    return True
