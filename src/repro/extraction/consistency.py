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

No clause crosses a subject: functionality groups facts by (s, p),
disjointness by (s, o), and a type clause holds one fact.  So the reasoner
grounds each subject on its own (:class:`SubjectClauses`, over local fact
indexes) and splits it into components there, instead of grounding one
global instance and rediscovering its components by a global union-find.
Facts without a hard clause are accepted directly; every component is
solved by :func:`~repro.reasoning.decompose.solve_decomposed` — exactly when
small, by WalkSAT otherwise — with component seeds and the merge order
derived from component content only.  The components, their clause order
and therefore the result are those of :func:`~repro.reasoning.decompose
.decompose` over the global instance, which :meth:`ConsistencyReasoner
.ground` still builds (from the same per-subject grounding) for the E4b
monolithic-versus-decomposed comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

from ..kb import Entity, Relation, Taxonomy, Triple, TripleStore
from ..obs import core as _obs
from ..reasoning.decompose import Component, Decomposition, solve_decomposed
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
    #: Subject -> its share of ``components`` (subjects with none left out).
    subject_components: dict = field(default_factory=dict)


@dataclass(slots=True)
class SubjectClauses:
    """One subject's facts and the hard clauses grounded over them.

    Facts are in canonical (``repr`` of the key) order, and a clause names
    them by local index.  Every hard clause is all-negative: a functional or
    disjoint pair forbids both facts, a type clause forbids one.  Each
    family lists its clauses in the order the global instance holds them.
    """

    names: list[str]                    # repr of each fact's key
    triples: list[Triple]
    functional: list[tuple[int, int]]
    types: list[tuple[int]]
    disjoint: list[tuple[int, int]]

    def split(self) -> tuple[list[int], list[tuple[list[int], list[tuple]]]]:
        """The facts no hard clause touches, and the components.

        A component is its facts, ascending, and its hard clauses: the
        functional, then the type, then the disjoint ones.  Components are
        ordered by their first fact, which is their canonical key order.
        """
        hard = list(chain(self.functional, self.types, self.disjoint))
        if not hard:
            return list(range(len(self.triples))), []
        parent = list(range(len(self.triples)))

        def find(index: int) -> int:
            while parent[index] != index:
                parent[index] = index = parent[parent[index]]
            return index

        bound = [False] * len(self.triples)
        for clause in hard:
            root = find(clause[0])
            for index in clause:
                bound[index] = True
                parent[find(index)] = root
        free: list[int] = []
        groups: dict[int, tuple[list[int], list[tuple]]] = {}
        for index, is_bound in enumerate(bound):
            if is_bound:
                groups.setdefault(find(index), ([], []))[0].append(index)
            else:
                free.append(index)
        for clause in hard:
            groups[find(clause[0])][1].append(clause)
        return free, list(groups.values())


class ConsistencyReasoner:
    """Clean a candidate store against a schema with weighted MaxSat."""

    def __init__(
        self,
        taxonomy: Taxonomy,
        use_functionality: bool = True,
        use_types: bool = True,
        use_disjointness: bool = True,
        min_confidence_weight: float = 0.05,
    ) -> None:
        self.taxonomy = taxonomy
        self.use_functionality = use_functionality
        self.use_types = use_types
        self.use_disjointness = use_disjointness
        self.min_confidence_weight = min_confidence_weight

    def ground(
        self, candidates: Iterable[Triple]
    ) -> tuple[WeightedMaxSat, dict[FactKey, Triple], ConsistencyReport]:
        """Ground ``candidates`` into one global weighted MaxSat instance.

        ``candidates`` is a store or a list with one triple per (s, p, o)
        key (such as :func:`~repro.kb.store.canonical_triples` yields).
        Returns the instance, the canonical key -> triple map, and a
        report carrying the per-family clause counts.  The instance holds
        every fact's soft unit in canonical (s, p, o) order, then the
        functional, type and disjoint clauses, so clause indexes — and
        therefore the WalkSAT trajectory — are the same no matter how the
        candidates were assembled.  :meth:`clean` solves the same clauses
        per subject and never builds this instance.
        """
        with _obs.span("consistency.ground"):
            subjects, report = self.ground_subjects(candidates)
        problem = WeightedMaxSat()
        triples: dict[FactKey, Triple] = {}
        keys = [
            [triple.spo() for triple in subject.triples] for subject in subjects
        ]
        for subject, subject_keys in zip(subjects, keys):
            for key, triple in zip(subject_keys, subject.triples):
                problem.add_soft_unit(key, True, self._weight(triple))
                triples[key] = triple
        for family in ("functional", "types", "disjoint"):
            for subject, subject_keys in zip(subjects, keys):
                for clause in getattr(subject, family):
                    problem.add_hard(
                        [(subject_keys[index], False) for index in clause]
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
        with _obs.span("consistency.clean"):
            with _obs.span("consistency.ground"):
                subjects, report = self.ground_subjects(candidates)
                problem, decomposition, variables = self._decompose(
                    subjects, report
                )
            report.components = len(decomposition.components)
            report.largest_component = decomposition.largest_component
            report.trivial_vars = len(decomposition.trivial)

            with _obs.span("consistency.solve"):
                result = solve_decomposed(
                    problem, seed=seed, decomposition=decomposition
                )
            report.soft_cost = result.soft_cost
            report.hard_violations = result.hard_violations
            assignment = result.assignment
            accepted = [
                triple
                for subject, facts in zip(subjects, variables)
                for triple, fact in zip(subject.triples, facts)
                if fact is None or assignment[fact]
            ]
            report.accepted = len(accepted)
            report.rejected = report.candidates - report.accepted
            if _obs.ENABLED:
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

    # ----------------------------------------------------------- grounding

    def ground_subjects(
        self, candidates: Iterable[Triple]
    ) -> tuple[list[SubjectClauses], ConsistencyReport]:
        """Ground each subject's clauses, subjects in canonical order.

        The facts are sorted once by the ``repr`` of their (s, p, o) key
        (the last triple wins on a repeated key).  A key's ``repr`` starts
        with its subject's and then its predicate's, and no term's ``repr``
        is a proper prefix of another's, so the facts of one subject — and
        of one (s, p) — are contiguous in that order.
        """
        keyed = sorted(
            ((repr(triple.spo()), triple) for triple in candidates),
            key=lambda pair: pair[0],
        )
        signatures = _Signatures(self.taxonomy)
        subjects: list[SubjectClauses] = []
        report = ConsistencyReport()
        start = 0
        while start < len(keyed):
            subject = keyed[start][1].subject
            stop = start + 1
            while stop < len(keyed) and keyed[stop][1].subject == subject:
                stop += 1
            names: list[str] = []
            triples: list[Triple] = []
            for name, triple in keyed[start:stop]:
                if names and names[-1] == name:
                    triples[-1] = triple
                else:
                    names.append(name)
                    triples.append(triple)
            subjects.append(self._ground_subject(names, triples, signatures))
            start = stop
        for subject in subjects:
            report.candidates += len(subject.triples)
            report.functional_clauses += len(subject.functional)
            report.type_clauses += len(subject.types)
            report.disjoint_clauses += len(subject.disjoint)
        return subjects, report

    def _ground_subject(
        self, names: list[str], triples: list[Triple], signatures: "_Signatures"
    ) -> SubjectClauses:
        runs: list[list[int]] = []      # facts of one functional (s, p)
        types: list[tuple[int]] = []
        by_object: dict = {}
        run_relation = None
        for index, triple in enumerate(triples):
            relation = triple.predicate
            if not isinstance(relation, Relation):
                continue
            signature = signatures.of(relation)
            if self.use_functionality and signature.functional:
                if relation != run_relation:
                    runs.append([])
                    run_relation = relation
                runs[-1].append(index)
            if self.use_types and signatures.violated(
                signature, triple.subject, triple.object
            ):
                types.append((index,))
            if self.use_disjointness and signature.disjoint:
                by_object.setdefault(triple.object, []).append(index)
        functional = [
            (run[i], run[j])
            for run in runs
            for i in range(len(run))
            for j in range(i + 1, len(run))
        ]
        disjoint = [
            (group[i], group[j])
            for group in by_object.values()
            for i in range(len(group))
            for j in range(i + 1, len(group))
            if self.taxonomy.are_disjoint_relations(
                triples[group[i]].predicate, triples[group[j]].predicate
            )
        ]
        return SubjectClauses(names, triples, functional, types, disjoint)

    def _decompose(
        self, subjects: list[SubjectClauses], report: ConsistencyReport
    ) -> tuple[WeightedMaxSat, Decomposition, list[list[Optional[_Fact]]]]:
        """The components' clauses as one instance, their decomposition,
        and per subject each fact's solver variable (None for a fact
        accepted closed-form); each subject's component count goes into
        ``report``.

        Each component's clauses are contiguous in the instance and in the
        global instance's order: its soft units in key order, then its
        functional, type and disjoint clauses.  Subjects and their
        components arrive in canonical key order, so the components need no
        sort.  Facts no hard clause touches are accepted closed-form and
        never enter the instance.
        """
        problem = WeightedMaxSat()
        decomposition = Decomposition()
        variables: list[list[Optional[_Fact]]] = []
        for subject in subjects:
            facts = [_Fact(name) for name in subject.names]
            free, components = subject.split()
            if components:
                report.subject_components[subject.triples[0].subject] = len(
                    components
                )
            for index in free:
                decomposition.trivial[facts[index]] = True
                facts[index] = None
            for members, hard in components:
                first = len(problem.clauses)
                for index in members:
                    problem.add_soft_unit(
                        facts[index], True, self._weight(subject.triples[index])
                    )
                for clause in hard:
                    problem.add_hard([(facts[index], False) for index in clause])
                decomposition.components.append(
                    Component(
                        key=subject.names[members[0]],
                        variables=[facts[index] for index in members],
                        clause_indexes=list(range(first, len(problem.clauses))),
                    )
                )
            variables.append(facts)
        return problem, decomposition, variables

    def _weight(self, triple: Triple) -> float:
        return max(triple.confidence, self.min_confidence_weight)


class _Fact:
    """A fact's solver variable: its ``repr`` is its key's, so every
    ``repr``-ordered choice of the solver is the one it makes over the
    keys, and it hashes by identity."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


@dataclass(slots=True)
class _Signature:
    """What the constraints need to know of one relation."""

    functional: bool
    disjoint: bool                  # appears in a declared-disjoint pair
    domain: Optional[Entity]
    range: Optional[Entity]


class _Signatures:
    """Per-relation signatures and per-(entity, class) type checks, each
    computed once per grounding."""

    def __init__(self, taxonomy: Taxonomy) -> None:
        self.taxonomy = taxonomy
        self._eligible = taxonomy.relations_with_disjointness()
        self._signatures: dict[str, _Signature] = {}
        self._compatible: dict[tuple[str, str], bool] = {}

    def of(self, relation: Relation) -> _Signature:
        signature = self._signatures.get(relation.id)
        if signature is None:
            taxonomy = self.taxonomy
            signature = self._signatures[relation.id] = _Signature(
                functional=taxonomy.is_functional(relation),
                disjoint=relation in self._eligible,
                domain=taxonomy.domain_of(relation),
                range=taxonomy.range_of(relation),
            )
        return signature

    def violated(self, signature: _Signature, subject, obj) -> bool:
        """Whether the fact's arguments violate the relation signature."""
        if (
            signature.domain is not None
            and isinstance(subject, Entity)
            and not self.compatible(subject, signature.domain)
        ):
            return True
        return (
            signature.range is not None
            and isinstance(obj, Entity)
            and not self.compatible(obj, signature.range)
        )

    def compatible(self, entity: Entity, cls: Entity) -> bool:
        """:meth:`Taxonomy.admits`, cached per (entity, class) id pair."""
        cache_key = (entity.id, cls.id)
        answer = self._compatible.get(cache_key)
        if answer is None:
            answer = self._compatible[cache_key] = self.taxonomy.admits(
                entity, cls
            )
        return answer
