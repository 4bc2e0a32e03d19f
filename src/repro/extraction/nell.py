"""NELL-style never-ending, coupled bootstrap learning.

NELL (Carlson et al., AAAI 2010 — reference [5] of the tutorial) runs
extraction as an endless loop: induce patterns from the current KB,
extract candidates, promote the most confident ones into the KB, repeat —
with the crucial twist of *coupling*: candidate facts must respect the
ontology (type signatures, functionality, relation mutual exclusion)
before promotion.  Coupling is what keeps the loop from *semantic drift* —
the gradual poisoning of the KB by plausible-looking noise that then
generates worse patterns.

E13 reproduces the canonical NELL plot: cumulative precision of the
promoted KB per iteration, with coupling on vs off, on a corpus with
injected false statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..kb import Entity, Relation, Taxonomy, Triple, TripleStore
from .occurrences import Occurrence
from .snowball import SnowballExtractor


@dataclass(slots=True)
class IterationRecord:
    """What one never-ending-learning iteration did."""

    iteration: int
    promoted: int
    rejected_by_type: int = 0
    rejected_by_functionality: int = 0
    rejected_by_exclusion: int = 0


class NeverEndingLearner:
    """The coupled bootstrap loop over a fixed occurrence corpus."""

    def __init__(
        self,
        relations: Iterable[Relation],
        seed_kb: TripleStore,
        taxonomy: Taxonomy,
        use_coupling: bool = True,
        promote_per_relation: int = 8,
        min_pattern_support: int = 2,
        min_confidence: float = 0.6,
    ) -> None:
        self.relations = list(relations)
        self.kb = seed_kb.copy()
        self.taxonomy = taxonomy
        self.use_coupling = use_coupling
        self.promote_per_relation = promote_per_relation
        self.min_pattern_support = min_pattern_support
        self.min_confidence = min_confidence
        self.history: list[IterationRecord] = []
        self.promoted: TripleStore = TripleStore()

    # ---------------------------------------------------------------- loop

    def run(self, occurrences: list[Occurrence], iterations: int = 5) -> TripleStore:
        """Run the loop; returns the facts promoted beyond the seeds."""
        for iteration in range(1, iterations + 1):
            record = IterationRecord(iteration=iteration, promoted=0)
            for relation in self.relations:
                self._iterate_relation(relation, occurrences, record)
            self.history.append(record)
            if record.promoted == 0:
                break
        return self.promoted

    def _iterate_relation(
        self, relation: Relation, occurrences: list[Occurrence], record: IterationRecord
    ) -> None:
        seeds = [
            (t.subject, t.object)
            for t in self.kb.match(predicate=relation)
            if isinstance(t.object, Entity)
        ]
        if len(seeds) < 2:
            return
        learner = SnowballExtractor(
            relation,
            seeds,
            functional=self.taxonomy.is_functional(relation),
            min_support=self.min_pattern_support,
            min_confidence=self.min_confidence,
            max_iterations=1,
        )
        candidates = learner.run(occurrences)
        ranked = sorted(
            candidates, key=lambda c: (-c.confidence, c.subject.id, str(c.object))
        )
        promoted_now = 0
        for candidate in ranked:
            if promoted_now >= self.promote_per_relation:
                break
            if self.kb.contains_fact(candidate.subject, relation, candidate.object):
                continue
            if self.use_coupling and not self._coupled_ok(candidate, record):
                continue
            triple = Triple(
                candidate.subject,
                relation,
                candidate.object,
                confidence=candidate.confidence,
                source=f"nell-iter-{record.iteration}",
            )
            self.kb.add(triple)
            self.promoted.add(triple)
            promoted_now += 1
            record.promoted += 1

    # ------------------------------------------------------------- coupling

    def _coupled_ok(self, candidate, record: IterationRecord) -> bool:
        relation = candidate.relation
        subject, obj = candidate.subject, candidate.object
        # Type signature coupling.
        domain = self.taxonomy.domain_of(relation)
        if domain is not None and not self.taxonomy.admits(subject, domain):
            record.rejected_by_type += 1
            return False
        rng = self.taxonomy.range_of(relation)
        if (
            rng is not None
            and isinstance(obj, Entity)
            and not self.taxonomy.admits(obj, rng)
        ):
            record.rejected_by_type += 1
            return False
        # Functionality coupling: one object per subject.
        if self.taxonomy.is_functional(relation):
            existing = self.kb.objects(subject, relation)
            if existing and obj not in existing:
                record.rejected_by_functionality += 1
                return False
        # Relation mutual exclusion on the same pair.
        for other in self.relations:
            if other == relation:
                continue
            if self.taxonomy.are_disjoint_relations(relation, other) and (
                self.kb.contains_fact(subject, other, obj)
            ):
                record.rejected_by_exclusion += 1
                return False
        return True


def cumulative_precision(promoted: TripleStore, truth: TripleStore) -> float:
    """Fraction of promoted facts that are true in the reference KB."""
    triples = list(promoted)
    if not triples:
        return 1.0
    correct = sum(
        1 for t in triples if truth.contains_fact(t.subject, t.predicate, t.object)
    )
    return correct / len(triples)
