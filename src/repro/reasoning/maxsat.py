"""A weighted MaxSat solver: unit propagation plus WalkSAT local search.

The SOFIE line of work phrases knowledge-base consistency reasoning as
weighted MaxSat: candidate facts are soft unit clauses weighted by
extraction confidence, and schema constraints (functionality, type
disjointness, relation exclusion) are hard clauses.  The solver below is
the classic recipe — simplify with unit propagation on hard clauses, then
WalkSAT with random restarts — implemented incrementally (per-flip work is
proportional to the flipped variable's clause membership, not the instance
size), deterministic under a seed, and adequate for the few-thousand-clause
problems the experiments ground.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from ..obs import core as _obs

#: A literal: (variable, polarity). (x, True) means x; (x, False) means !x.
Literal = tuple[Hashable, bool]

HARD = float("inf")

#: Internal stand-in weight that makes hard violations dominate soft costs.
_HARD_PENALTY = 1e9


@dataclass(frozen=True, slots=True)
class Clause:
    """A weighted disjunction of literals; weight == HARD means mandatory."""

    literals: tuple[Literal, ...]
    weight: float

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("a clause needs at least one literal")
        if self.weight != HARD and self.weight <= 0:
            raise ValueError("soft clause weights must be positive")

    @property
    def is_hard(self) -> bool:
        return self.weight == HARD

    def satisfied(self, assignment: dict[Hashable, bool]) -> bool:
        """Evaluate under a full assignment."""
        return any(assignment[v] == polarity for v, polarity in self.literals)


@dataclass(slots=True)
class MaxSatResult:
    """Solver output."""

    assignment: dict[Hashable, bool]
    soft_cost: float            # total weight of unsatisfied soft clauses
    hard_violations: int        # 0 unless the hard clauses were not all satisfied
    flips: int = 0

    def true_variables(self) -> set[Hashable]:
        """The variables assigned True."""
        return {v for v, value in self.assignment.items() if value}


class WeightedMaxSat:
    """A weighted MaxSat instance and its local-search solver."""

    def __init__(self) -> None:
        self._clauses: list[Clause] = []
        self._variables: set[Hashable] = set()
        self._sorted_variables: Optional[list[Hashable]] = None

    def add_clause(self, literals: Iterable[Literal], weight: float) -> None:
        """Add a weighted clause (use ``HARD`` for mandatory constraints)."""
        clause = Clause(tuple(literals), weight)
        self._clauses.append(clause)
        for variable, __ in clause.literals:
            if variable not in self._variables:
                self._variables.add(variable)
                self._sorted_variables = None

    def add_hard(self, literals: Iterable[Literal]) -> None:
        """Add a mandatory clause."""
        self.add_clause(literals, HARD)

    def add_soft_unit(self, variable: Hashable, positive: bool, weight: float) -> None:
        """Add a soft unit clause (the MaxSat encoding of a weighted fact)."""
        self.add_clause([(variable, positive)], weight)

    @property
    def clauses(self) -> list[Clause]:
        """The clause list itself (treat as read-only; solve hot path)."""
        return self._clauses

    @property
    def variables(self) -> list[Hashable]:
        """The variables in canonical (repr) order, cached between adds."""
        if self._sorted_variables is None:
            self._sorted_variables = sorted(self._variables, key=repr)
        return self._sorted_variables

    def cost_of(self, assignment: dict[Hashable, bool]) -> tuple[int, float]:
        """(hard violations, soft cost) of a full assignment."""
        hard = 0
        soft = 0.0
        for clause in self._clauses:
            if clause.satisfied(assignment):
                continue
            if clause.is_hard:
                hard += 1
            else:
                soft += clause.weight
        return hard, soft

    # ------------------------------------------------------------- solving

    def solve(
        self,
        seed: int = 0,
        max_flips: int = 20_000,
        restarts: int = 3,
        noise: float = 0.1,
    ) -> MaxSatResult:
        """Solve with unit propagation + incremental WalkSAT."""
        forced = self._unit_propagate()
        rng = random.Random(seed)
        free = [v for v in self.variables if v not in forced]

        best_assignment: Optional[dict] = None
        best_key = (float("inf"), float("inf"))
        total_flips = 0
        for restart in range(max(1, restarts)):
            assignment = dict(forced)
            for v in free:
                # First restart starts all-false: with soft positive units
                # this is the "believe nothing" state, a good basin.
                assignment[v] = False if restart == 0 else rng.random() < 0.5
            state = _SearchState(self._clauses, assignment, forced)
            key, flips = state.search(rng, max_flips, noise)
            total_flips += flips
            if key < best_key:
                best_key = key
                best_assignment = dict(state.best_assignment)
            if best_key == (0, 0.0):
                break
        assert best_assignment is not None
        hard, soft = self.cost_of(best_assignment)
        if _obs.ENABLED:
            _obs.count("maxsat.solve_calls")
            _obs.count("maxsat.variables", len(self._variables))
            _obs.count("maxsat.clauses", len(self._clauses))
            _obs.count("maxsat.flips", total_flips)
        return MaxSatResult(best_assignment, soft, hard, total_flips)

    def solve_exact(self, max_variables: int = 24) -> MaxSatResult:
        """Optimal solution by branch and bound (the ILP-solver alternative).

        The tutorial lists "weighted MaxSat or ILP solvers" for consistency
        reasoning; this is the exact 0-1 optimization route, feasible for
        small instances (bounded by ``max_variables``).  Branching order is
        by clause involvement (ties by ``repr``), True before False; the
        bound prunes branches whose already-lost cost reaches the
        incumbent's, so among equally good assignments the first one in
        that order is returned.

        The search runs on positions in that order: a clause is a tuple of
        (position, polarity) literals, and the partial assignment at depth
        ``d`` is the first ``d`` entries of one values list.
        """
        variables = self.variables
        if len(variables) > max_variables:
            raise ValueError(
                f"exact solving is limited to {max_variables} variables"
            )
        involvement = {v: 0 for v in variables}
        for clause in self._clauses:
            for v, __ in clause.literals:
                involvement[v] += 1
        # ``variables`` is in ``repr`` order and the sort is stable, so ties
        # in involvement keep it.
        order = sorted(variables, key=lambda v: -involvement[v])
        position = {v: index for index, v in enumerate(order)}
        # (literals, depth at which every literal is decided, weight), in
        # clause order: the soft cost sums in that order, as it always has.
        indexed = []
        for clause in self._clauses:
            literals = tuple(
                (position[v], polarity) for v, polarity in clause.literals
            )
            decided = 1 + max(index for index, __ in literals)
            indexed.append((literals, decided, clause.weight))
        values = [False] * len(order)

        best_values: list[bool] = []
        best_key: tuple[float, float] = (float("inf"), float("inf"))

        def lost_so_far(depth: int) -> tuple[int, float]:
            """Cost of clauses already falsified by the first ``depth`` values."""
            hard = 0
            soft = 0.0
            for literals, decided, weight in indexed:
                if decided <= depth and all(
                    values[index] != polarity for index, polarity in literals
                ):
                    if weight == HARD:
                        hard += 1
                    else:
                        soft += weight
            return hard, soft

        def descend(depth: int) -> None:
            nonlocal best_values, best_key
            lost = lost_so_far(depth)
            if lost >= best_key:
                return
            if depth == len(order):
                best_key = lost
                best_values = list(values)
                return
            for value in (True, False):
                values[depth] = value
                descend(depth + 1)

        descend(0)
        best_assignment = dict(zip(order, best_values))
        hard, soft = best_key
        if _obs.ENABLED:
            _obs.count("maxsat.solve_calls")
            _obs.count("maxsat.variables", len(self._variables))
            _obs.count("maxsat.clauses", len(self._clauses))
        return MaxSatResult(best_assignment, soft, int(hard), flips=0)

    def _unit_propagate(self) -> dict[Hashable, bool]:
        """Fixpoint of hard unit clauses, queue-driven.

        Instead of rescanning every clause until a full pass changes
        nothing (O(passes x clauses) on grounding-heavy instances), a
        variable->hard-clause index limits re-examination to the clauses
        that contain a newly forced variable.  The fixpoint is the same:
        unit propagation is confluent, and both the initial sweep and the
        queue drain visit clauses in ascending index order.
        """
        forced: dict[Hashable, bool] = {}
        hard_indexes = [
            index for index, clause in enumerate(self._clauses) if clause.is_hard
        ]
        if not hard_indexes:
            return forced
        hard_clauses_of: dict[Hashable, list[int]] = {}
        for index in hard_indexes:
            for variable, __ in self._clauses[index].literals:
                hard_clauses_of.setdefault(variable, []).append(index)
        pending = deque(hard_indexes)
        queued = set(hard_indexes)
        while pending:
            index = pending.popleft()
            queued.discard(index)
            clause = self._clauses[index]
            unit: Optional[Literal] = None
            open_literals = 0
            satisfied = False
            for variable, polarity in clause.literals:
                value = forced.get(variable)
                if value is None:
                    open_literals += 1
                    if open_literals > 1:
                        break
                    unit = (variable, polarity)
                elif value == polarity:
                    satisfied = True
                    break
            if satisfied or open_literals != 1:
                continue
            assert unit is not None
            variable, polarity = unit
            forced[variable] = polarity
            for affected in hard_clauses_of.get(variable, ()):
                if affected != index and affected not in queued:
                    pending.append(affected)
                    queued.add(affected)
        return forced


class _SearchState:
    """Incremental WalkSAT state: satisfied-literal counts per clause."""

    def __init__(self, clauses, assignment, forced) -> None:
        self.clauses = clauses
        self.assignment = assignment
        self.forced = forced
        self.clauses_of: dict[Hashable, list[int]] = {}
        for index, clause in enumerate(clauses):
            for variable, __ in clause.literals:
                self.clauses_of.setdefault(variable, []).append(index)
        self.sat_count = [0] * len(clauses)
        self.unsatisfied: set[int] = set()
        for index, clause in enumerate(clauses):
            count = sum(
                1 for v, polarity in clause.literals if assignment[v] == polarity
            )
            self.sat_count[index] = count
            if count == 0:
                self.unsatisfied.add(index)
        self.best_assignment = dict(assignment)
        self.best_key = self._key()

    def _key(self) -> tuple[float, float]:
        hard = 0
        soft = 0.0
        # Sorted so the float accumulation order (and its rounding) is the
        # same in every process regardless of set history.
        for index in sorted(self.unsatisfied):
            clause = self.clauses[index]
            if clause.is_hard:
                hard += 1
            else:
                soft += clause.weight
        return (hard, soft)

    def _flip(self, variable) -> None:
        new_value = not self.assignment[variable]
        self.assignment[variable] = new_value
        for index in self.clauses_of[variable]:
            clause = self.clauses[index]
            for v, polarity in clause.literals:
                if v != variable:
                    continue
                if polarity == new_value:
                    self.sat_count[index] += 1
                    if self.sat_count[index] == 1:
                        self.unsatisfied.discard(index)
                else:
                    self.sat_count[index] -= 1
                    if self.sat_count[index] == 0:
                        self.unsatisfied.add(index)

    def _break_cost(self, variable) -> float:
        """Weight of clauses that flipping ``variable`` would break."""
        value = self.assignment[variable]
        cost = 0.0
        for index in self.clauses_of[variable]:
            if self.sat_count[index] != 1:
                continue
            clause = self.clauses[index]
            # Breaking happens iff the single satisfied literal is ours.
            for v, polarity in clause.literals:
                if v == variable and polarity == value:
                    cost += _HARD_PENALTY if clause.is_hard else clause.weight
                    break
        return cost

    def search(self, rng: random.Random, max_flips: int, noise: float):
        flips = 0
        # Clauses decided entirely by unit propagation can never be fixed
        # by flipping; they must not be selected (or worse, abort the run).
        dead = {
            index
            for index, clause in enumerate(self.clauses)
            if all(v in self.forced for v, __ in clause.literals)
        }
        while flips < max_flips:
            live = self.unsatisfied - dead
            if not live:
                break
            # Candidate pools are sorted so the rng-indexed pick (and hence
            # the whole search trajectory) never depends on set iteration
            # order; clause indexes sort by (weight desc, index) so heavier
            # clauses are repaired first on equal rng draws.
            hard_unsat = sorted(i for i in live if self.clauses[i].is_hard)
            pool = hard_unsat if hard_unsat else sorted(
                live, key=lambda i: (-self.clauses[i].weight, i)
            )
            clause = self.clauses[pool[rng.randrange(len(pool))]]
            flippable = [v for v, __ in clause.literals if v not in self.forced]
            if not flippable:
                continue
            if rng.random() < noise:
                variable = flippable[rng.randrange(len(flippable))]
            else:
                variable = min(
                    flippable, key=lambda v: (self._break_cost(v), repr(v))
                )
            self._flip(variable)
            flips += 1
            key = self._key()
            if key < self.best_key:
                self.best_key = key
                self.best_assignment = dict(self.assignment)
        return self.best_key, flips
