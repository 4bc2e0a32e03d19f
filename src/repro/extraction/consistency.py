"""Consistency reasoning over noisy extractions (SOFIE-style MaxSat).

The logical end of the tutorial's extraction spectrum: take the candidate
facts (soft, weighted by extraction confidence) and the schema's integrity
constraints (hard), and find the most plausible consistent subset via
weighted MaxSat.  Constraint families, individually toggleable for the E4
ablation:

* **functionality** — a functional relation admits one object per subject;
* **type signatures** — subject/object must be instances of the declared
  domain/range (checked against a type oracle, typically the harvested
  taxonomy);
* **relation disjointness** — declared mutually-exclusive relation pairs
  cannot share an (s, o) pair.

Solving is component-decomposed (:mod:`repro.reasoning.decompose`): the
clause graph shatters along the constraint locality into many small
independent components, solved in-process — exactly when small, by WalkSAT
otherwise — with component seeds and the merge order derived from
component content only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from ..kb import Entity, Relation, Taxonomy, Triple, TripleStore
from ..obs import core as _obs
from ..reasoning.decompose import ComponentCache, decompose, solve_decomposed
from ..reasoning.maxsat import WeightedMaxSat

#: A fact variable: the (s, p, o) key.
FactKey = tuple


@dataclass(slots=True)
class ConsistencyReport:
    """What the reasoner did."""

    candidates: int = 0
    accepted: int = 0
    rejected: int = 0
    functional_clauses: int = 0
    type_clauses: int = 0
    disjoint_clauses: int = 0
    soft_cost: float = 0.0
    hard_violations: int = 0
    components: int = 0
    largest_component: int = 0
    trivial_vars: int = 0
    #: Components replayed from a ComponentCache instead of re-solved
    #: (the incremental build's component-scoped re-reasoning; 0 when no
    #: cache was supplied).
    cached_components: int = 0


class ConsistencyReasoner:
    """Clean a candidate store against a schema with weighted MaxSat."""

    def __init__(
        self,
        taxonomy: Taxonomy,
        use_functionality: bool = True,
        use_types: bool = True,
        use_disjointness: bool = True,
        min_confidence_weight: float = 0.05,
        component_cache: "ComponentCache | None" = None,
    ) -> None:
        self.taxonomy = taxonomy
        self.use_functionality = use_functionality
        self.use_types = use_types
        self.use_disjointness = use_disjointness
        self.min_confidence_weight = min_confidence_weight
        # Optional content-addressed solve cache: identical components
        # replay their stored outcome instead of searching again, which is
        # what lets an incremental build re-solve only the components its
        # delta touched.  Results are byte-identical either way.
        self.component_cache = component_cache

    def ground(
        self, candidates: Iterable[Triple]
    ) -> tuple[WeightedMaxSat, dict[FactKey, Triple], ConsistencyReport]:
        """Ground ``candidates`` into a weighted MaxSat instance.

        ``candidates`` is a store or a list with one triple per (s, p, o)
        key (such as :func:`~repro.kb.store.canonical_triples` yields).
        Returns the instance, the canonical key -> triple map, and a
        report carrying the per-family clause counts.  Grounding happens
        in canonical (s, p, o) order so clause indexes — and therefore the
        WalkSAT trajectory — are the same no matter how the candidates
        were assembled.
        """
        triples: dict[FactKey, Triple] = {
            triple.spo(): triple for triple in candidates
        }
        triples = {key: triples[key] for key in sorted(triples, key=repr)}
        report = ConsistencyReport(candidates=len(triples))
        problem = WeightedMaxSat()
        for key, triple in triples.items():
            weight = max(triple.confidence, self.min_confidence_weight)
            problem.add_soft_unit(key, True, weight)

        with _obs.span("consistency.ground"):
            if self.use_functionality:
                report.functional_clauses = self._add_functionality(
                    problem, triples
                )
            if self.use_types:
                report.type_clauses = self._add_types(problem, triples)
            if self.use_disjointness:
                report.disjoint_clauses = self._add_disjointness(
                    problem, triples
                )
        return problem, triples, report

    def clean(
        self, candidates: "TripleStore | list[Triple]", seed: int = 0
    ) -> tuple["TripleStore | list[Triple]", ConsistencyReport]:
        """Return the accepted subset of ``candidates`` plus a report.

        The accepted subset takes the form of the input: a new store when
        ``candidates`` is a store, otherwise a list of triples in canonical
        (s, p, o) order — what the pipeline feeds its single final store.
        """
        with _obs.span("consistency.clean") as cleaning:
            problem, triples, report = self.ground(candidates)

            with _obs.span("consistency.solve") as solving:
                with _obs.span("maxsat.decompose"):
                    decomposition = decompose(problem)
                report.components = len(decomposition.components)
                report.largest_component = decomposition.largest_component
                report.trivial_vars = len(decomposition.trivial)
                hits_before = (
                    self.component_cache.hits if self.component_cache else 0
                )
                result = solve_decomposed(
                    problem,
                    seed=seed,
                    decomposition=decomposition,
                    cache=self.component_cache,
                )
                if self.component_cache is not None:
                    report.cached_components = (
                        self.component_cache.hits - hits_before
                    )
                solving.add("components", report.components)
                solving.add("largest_component", report.largest_component)
                solving.add("trivial_vars", report.trivial_vars)
            report.soft_cost = result.soft_cost
            report.hard_violations = result.hard_violations
            accepted = [
                triple for key, triple in triples.items()
                if result.assignment.get(key, False)
            ]
            report.accepted = len(accepted)
            report.rejected = len(triples) - report.accepted
            if _obs.ENABLED:
                cleaning.add("candidates", report.candidates)
                cleaning.add("accepted", report.accepted)
                cleaning.add("rejected", report.rejected)
                cleaning.add("clauses.functional", report.functional_clauses)
                cleaning.add("clauses.type", report.type_clauses)
                cleaning.add("clauses.disjoint", report.disjoint_clauses)
                _obs.count(
                    "consistency.clauses.functional", report.functional_clauses
                )
                _obs.count("consistency.clauses.type", report.type_clauses)
                _obs.count(
                    "consistency.clauses.disjoint", report.disjoint_clauses
                )
                _obs.count("consistency.rejected", report.rejected)
        if isinstance(candidates, TripleStore):
            return TripleStore(accepted), report
        return accepted, report

    # --------------------------------------------------------- constraints

    def _add_functionality(self, problem: WeightedMaxSat, triples) -> int:
        """!(x & y) for same-subject facts of a functional relation."""
        clauses = 0
        by_subject_relation: dict[tuple, list[FactKey]] = defaultdict(list)
        for key in triples:
            subject, relation, __ = key
            if isinstance(relation, Relation) and self.taxonomy.is_functional(relation):
                by_subject_relation[(subject, relation)].append(key)
        for group in by_subject_relation.values():
            group.sort(key=repr)
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    problem.add_hard([(group[i], False), (group[j], False)])
                    clauses += 1
        return clauses

    def _add_types(self, problem: WeightedMaxSat, triples) -> int:
        """!x for facts whose arguments violate the relation signature."""
        clauses = 0
        for key in triples:
            subject, relation, obj = key
            if not isinstance(relation, Relation):
                continue
            if self._violates_signature(subject, relation, obj):
                problem.add_hard([(key, False)])
                clauses += 1
        return clauses

    def _violates_signature(self, subject, relation, obj) -> bool:
        domain = self.taxonomy.domain_of(relation)
        if (
            domain is not None
            and isinstance(subject, Entity)
            and not self._compatible(subject, domain)
        ):
            return True
        rng = self.taxonomy.range_of(relation)
        if (
            rng is not None
            and isinstance(obj, Entity)
            and not self._compatible(obj, rng)
        ):
            return True
        return False

    def _compatible(self, entity: Entity, cls: Entity) -> bool:
        """Open-world check: only *known conflicting* types violate."""
        types = self.taxonomy.types_of(entity)
        if not types:
            return True  # untyped entities are given the benefit of the doubt
        if self.taxonomy.is_instance_of(entity, cls):
            return True
        # The entity has types, none of which is (a subclass of) the target:
        # violation only when some known type is declared disjoint with it.
        return not any(
            self.taxonomy.are_disjoint_classes(t, cls) for t in types
        )

    def _add_disjointness(self, problem: WeightedMaxSat, triples) -> int:
        """!(x & y) for declared-disjoint relations on the same (s, o).

        Only facts whose relation appears in some declared-disjoint pair
        can ever yield a clause, so groups are restricted to those
        relations up front instead of expanding O(n^2) candidate pairs per
        (s, o) group and discarding almost all of them.
        """
        eligible = self.taxonomy.relations_with_disjointness()
        if not eligible:
            return 0
        clauses = 0
        by_pair: dict[tuple, list[FactKey]] = defaultdict(list)
        for key in triples:
            subject, relation, obj = key
            if isinstance(relation, Relation) and relation in eligible:
                by_pair[(subject, obj)].append(key)
        for group in by_pair.values():
            if len(group) < 2:
                continue
            group.sort(key=repr)
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    r1, r2 = group[i][1], group[j][1]
                    if self.taxonomy.are_disjoint_relations(r1, r2):
                        problem.add_hard([(group[i], False), (group[j], False)])
                        clauses += 1
        return clauses
