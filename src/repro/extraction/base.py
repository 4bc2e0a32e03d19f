"""The shared data model of all fact extractors.

Every extractor — surface patterns, Snowball, dependency paths, distant
supervision, infobox harvesting — emits :class:`Candidate` facts: entity-
resolved (s, p, o) triples with a confidence, the extractor's name, and the
evidence sentence.  Candidates from different extractors about the same
fact are merged by noisy-or, which is how ensemble confidence is usually
combined before reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..kb import Entity, Relation, Term, TimeSpan, Triple, TripleStore
from ..obs import core as _obs


@dataclass(frozen=True, slots=True)
class Candidate:
    """One extracted fact candidate with provenance."""

    subject: Entity
    relation: Relation
    object: Term
    confidence: float
    extractor: str
    evidence: str = ""
    scope: Optional[TimeSpan] = None

    def key(self) -> tuple[Entity, Relation, Term]:
        """The (s, p, o) identity of the underlying fact."""
        return (self.subject, self.relation, self.object)

    def to_triple(self) -> Triple:
        """A KB triple carrying the confidence and extractor provenance."""
        return Triple(
            self.subject,
            self.relation,
            self.object,
            confidence=min(max(self.confidence, 0.0), 1.0),
            source=self.extractor,
            scope=self.scope,
        )


def merge_candidates(candidates: Iterable[Candidate]) -> dict[tuple, float]:
    """Noisy-or combination of candidate confidences per fact key.

    The per-key confidences are folded in sorted order, so every permutation
    of the same candidate multiset yields bit-identical floats — float
    multiplication is commutative but not associative, and callers (an
    incremental build's cached candidates, a map-reduce job) may deliver
    candidates in different orders.
    """
    grouped: dict[tuple, list[float]] = {}
    for candidate in candidates:
        grouped.setdefault(candidate.key(), []).append(candidate.confidence)
    combined: dict[tuple, float] = {}
    for key, confidences in grouped.items():
        miss = 1.0
        for confidence in sorted(confidences):
            miss *= 1.0 - confidence
        combined[key] = 1.0 - miss
    return combined


def _witness_rank(candidate: Candidate) -> tuple:
    """Sort key electing a fact's provenance witness: highest confidence
    first, ties broken by (extractor, evidence) lexicographically."""
    return (-candidate.confidence, candidate.extractor, candidate.evidence)


def _scope_rank(candidate: Candidate) -> tuple:
    """Like :func:`_witness_rank`, with the scope as a last tie-breaker so
    equal-provenance witnesses with different scopes still elect one."""
    return _witness_rank(candidate) + (str(candidate.scope),)


def merged_triples(
    candidates: Iterable[Candidate], min_confidence: float = 0.0
) -> list[Triple]:
    """Noisy-or-merged candidates above a confidence threshold, as triples
    in canonical (s, p, o) key order, one per fact.

    Multiple witnesses of the same fact (several sentences, several
    extractors) raise the merged confidence.  Provenance and temporal scope
    are elected deterministically and order-independently — the
    highest-confidence witness wins, ties broken by (extractor, evidence)
    lexicographically — and triples come out in canonical key order, so
    every build produces byte-identical output regardless of candidate
    arrival order.
    """
    from ..determinism.stable import stable_str_key

    witness_of: dict[tuple, Candidate] = {}
    scope_of: dict[tuple, Candidate] = {}
    all_candidates = list(candidates)
    facts: list[Triple] = []
    with _obs.span("extract.merge") as merging:
        for candidate in all_candidates:
            key = candidate.key()
            best = witness_of.get(key)
            if best is None or _witness_rank(candidate) < _witness_rank(best):
                witness_of[key] = candidate
            if candidate.scope is not None:
                scoped = scope_of.get(key)
                if scoped is None or _scope_rank(candidate) < _scope_rank(scoped):
                    scope_of[key] = candidate
        dropped = 0
        merged = merge_candidates(all_candidates)
        for key in sorted(merged, key=stable_str_key):
            confidence = merged[key]
            if confidence < min_confidence:
                dropped += 1
                continue
            subject, relation, obj = key
            scoped = scope_of.get(key)
            facts.append(
                Triple(
                    subject,
                    relation,
                    obj,
                    confidence=min(confidence, 1.0),
                    source=witness_of[key].extractor,
                    scope=scoped.scope if scoped is not None else None,
                )
            )
        if _obs.ENABLED:
            merging.add("candidates", len(all_candidates))
            merging.add("facts", len(facts))
            merging.add("below_threshold", dropped)
            _obs.count("extract.candidates", len(all_candidates))
            _obs.count("extract.merged_facts", len(facts))
            for extractor_name, witnesses in _witness_counts(all_candidates).items():
                _obs.count(f"extract.candidates.{extractor_name}", witnesses)
    return facts


def candidates_to_store(
    candidates: Iterable[Candidate], min_confidence: float = 0.0
) -> TripleStore:
    """A store of :func:`merged_triples`, filled in canonical key order."""
    return TripleStore(merged_triples(candidates, min_confidence))


def _witness_counts(candidates: list[Candidate]) -> dict[str, int]:
    """How many candidates each extractor contributed."""
    by_extractor: dict[str, int] = {}
    for candidate in candidates:
        by_extractor[candidate.extractor] = (
            by_extractor.get(candidate.extractor, 0) + 1
        )
    return by_extractor
