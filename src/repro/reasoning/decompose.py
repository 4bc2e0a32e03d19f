"""Component decomposition for weighted MaxSat (consistency reasoning).

The consistency constraints the reasoner grounds are *local*: functionality
couples facts sharing a ``(subject, relation)``, disjointness couples facts
sharing a ``(subject, object)``, and type clauses are unit.  The resulting
variable-clause graph therefore shatters into many small connected
components, and the global optimum is exactly the union of per-component
optima — so the components can be solved independently, with no loss of
quality.

This module finds the components (union-find over variables co-occurring
in a clause) and solves them:

* variables touched only by their own soft unit clause(s) of one polarity
  are decided **closed-form** (assign the satisfying polarity; no search);
* every remaining component becomes its own :class:`~.maxsat.WeightedMaxSat`
  sub-instance, routed by size (cheap and exact first, local search only
  on the residue): a component of at most :data:`EXACT_MAX_VARIABLES`
  variables is solved optimally by branch and bound
  (:meth:`~.maxsat.WeightedMaxSat.solve_exact`); a larger one goes to
  WalkSAT with a seed derived via :func:`repro.determinism.stable_hash` of
  the component's canonical key — *not* of its position in any batch — and
  a flip budget scaled to the component size;
* the per-component ``(hard, soft)`` costs and assignments merge in
  sorted-canonical-key order.

Because the route, seed and budget of a component depend only on its
content, and the merge order depends only on the canonical keys, the result
does not depend on which components a :class:`ComponentCache` replayed and
which were solved afresh.  Among equally good assignments of an exact-routed
component, branch and bound keeps the first in its documented search order
(variables by clause involvement, then ``repr``; True before False) — so on
an equal-weight functional tie the ``repr``-first candidate wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..determinism.stable import stable_hash, stable_str_key
from ..obs import core as _obs
from .maxsat import MaxSatResult, WeightedMaxSat

#: Flip budget floor per component: even a tiny conflicted component gets
#: enough flips to escape a bad restart basin.
MIN_COMPONENT_FLIPS = 500

#: Flip budget per component clause (the size-scaled part).
FLIPS_PER_CLAUSE = 200

#: Components with at most this many variables are solved exactly by branch
#: and bound; only larger ones go to WalkSAT.  WalkSAT stops early only at
#: soft cost 0, so a conflicted component burns its whole flip budget on
#: every restart.  Measured per component (single-threaded): exact was
#: faster at every size through 18 variables on functional cliques,
#: exclusion chains and random exclusion graphs (16-variable clique: 147 vs
#: 941 ms; chain: 140 vs 236 ms) and first lost on a 20-variable chain
#: (799 vs 269 ms).
EXACT_MAX_VARIABLES = 16

#: The route marker an exact-routed work order carries in place of the
#: WalkSAT parameters (seed, budget, restarts, noise).
_EXACT_ROUTE = "exact"


@dataclass(slots=True)
class Component:
    """One connected component of the variable-clause graph."""

    key: str                        # canonical key: smallest variable key
    variables: list[Hashable]       # in canonical (stable_str_key) order
    clause_indexes: list[int]       # ascending indexes into the instance

    def seed(self, base_seed: int) -> int:
        """The component's solver seed: a stable hash of (base seed, key).

        Depends only on the component's content, never on its position,
        so every solve replays the identical search trajectory.
        """
        return stable_hash((base_seed, self.key))

    def flip_budget(self, max_flips: int) -> int:
        """The component's WalkSAT budget, scaled to its clause count."""
        scaled = max(MIN_COMPONENT_FLIPS, FLIPS_PER_CLAUSE * len(self.clause_indexes))
        return min(max_flips, scaled)

    @property
    def exact(self) -> bool:
        """Whether the component is small enough for branch and bound."""
        return len(self.variables) <= EXACT_MAX_VARIABLES


@dataclass(slots=True)
class Decomposition:
    """The shattered instance: closed-form variables plus components."""

    trivial: dict[Hashable, bool] = field(default_factory=dict)
    components: list[Component] = field(default_factory=list)

    @property
    def largest_component(self) -> int:
        """Variable count of the largest component (0 when none)."""
        return max((len(c.variables) for c in self.components), default=0)

    def component_sizes(self) -> list[int]:
        """Variable counts per component, descending (for diagnostics)."""
        return sorted((len(c.variables) for c in self.components), reverse=True)


def decompose(problem: WeightedMaxSat) -> Decomposition:
    """Split ``problem`` into closed-form variables and components.

    A variable whose every clause is a soft unit clause on itself with one
    polarity is decided closed-form (the satisfying polarity; zero cost,
    zero search).  Remaining variables are grouped by union-find over
    clause co-occurrence; each clause lands in exactly one component.
    """
    clauses = problem.clauses
    membership: dict[Hashable, list[int]] = {}
    for index, clause in enumerate(clauses):
        for variable, __ in clause.literals:
            membership.setdefault(variable, []).append(index)

    trivial: dict[Hashable, bool] = {}
    for variable, indexes in membership.items():
        polarity: Optional[bool] = None
        closed_form = True
        for index in indexes:
            clause = clauses[index]
            if clause.is_hard or len(clause.literals) != 1:
                closed_form = False
                break
            unit_polarity = clause.literals[0][1]
            if polarity is None:
                polarity = unit_polarity
            elif polarity != unit_polarity:
                closed_form = False
                break
        if closed_form and polarity is not None:
            trivial[variable] = polarity

    # Union-find over the non-trivial variables of each clause.
    parent: dict[Hashable, Hashable] = {}

    def find(variable: Hashable) -> Hashable:
        root = variable
        while parent[root] != root:
            root = parent[root]
        while parent[variable] != root:     # path compression
            parent[variable], variable = root, parent[variable]
        return root

    for clause in clauses:
        live = [v for v, __ in clause.literals if v not in trivial]
        for variable in live:
            parent.setdefault(variable, variable)
        for variable in live[1:]:
            parent[find(variable)] = find(live[0])

    clause_groups: dict[Hashable, list[int]] = {}
    for index, clause in enumerate(clauses):
        anchor = next(
            (v for v, __ in clause.literals if v not in trivial), None
        )
        if anchor is None:
            continue        # a trivial variable's own unit clause
        clause_groups.setdefault(find(anchor), []).append(index)

    variable_groups: dict[Hashable, list[Hashable]] = {}
    for variable in membership:
        if variable not in trivial:
            variable_groups.setdefault(find(variable), []).append(variable)

    components = []
    for root, variables in variable_groups.items():
        variables.sort(key=stable_str_key)
        components.append(
            Component(
                key=stable_str_key(variables[0]),
                variables=variables,
                clause_indexes=clause_groups.get(root, []),
            )
        )
    components.sort(key=lambda component: component.key)
    return Decomposition(trivial=trivial, components=components)


# ------------------------------------------------------- component solving


class ComponentCache:
    """A content-addressed cache of per-component solve outcomes.

    Because a component's seed, flip budget, and clause payload derive
    from its *content* only, identical content solves to an identical
    outcome in every process — so an incremental re-reasoning pass can
    skip every component the new candidates did not touch and replay the
    stored outcome bit for bit.  Keys hash the full work order (canonical
    key, clause payload, then either the exact route marker or the WalkSAT
    seed, budget, restarts and noise — so a WalkSAT outcome is never
    replayed into an exact-routed component); values store the
    assignment as a boolean vector aligned with the component's canonical
    variable order plus the exact soft/hard/flips numbers, which makes the
    cache JSON-serializable (floats round-trip exactly through ``repr``).
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self, entries: Optional[dict[str, dict]] = None) -> None:
        self.entries = entries if entries is not None else {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def task_key(task: "_ComponentTask") -> str:
        """The content hash of one component work order (hex)."""
        return f"{stable_hash(repr(task)):016x}"

    def lookup(
        self, task: "_ComponentTask", component: Component
    ) -> Optional["_ComponentOutcome"]:
        """The stored outcome for a work order, rebuilt against the
        current component's variables — or None on a miss."""
        entry = self.entries.get(self.task_key(task))
        if entry is None or len(entry["assignment"]) != len(component.variables):
            self.misses += 1
            return None
        self.hits += 1
        return (
            component.key,
            dict(zip(component.variables, entry["assignment"])),
            entry["soft"],
            entry["hard"],
            entry["flips"],
        )

    def store(
        self,
        task: "_ComponentTask",
        component: Component,
        outcome: "_ComponentOutcome",
    ) -> None:
        """Record one solved component's outcome."""
        __, assignment, soft, hard, flips = outcome
        self.entries[self.task_key(task)] = {
            "assignment": [
                bool(assignment[variable]) for variable in component.variables
            ],
            "soft": soft,
            "hard": hard,
            "flips": flips,
        }


#: One component's work order: (canonical key, clause payloads,
#: _EXACT_ROUTE) for an exact-routed component, else (canonical key, clause
#: payloads, seed, max_flips, restarts, noise).
_ComponentTask = tuple

#: One component's outcome: (key, assignment, soft, hard, flips).
_ComponentOutcome = tuple


def _solve_component_batch(batch: list[_ComponentTask]) -> list[_ComponentOutcome]:
    """Solve one batch of components, in order."""
    outcomes: list[_ComponentOutcome] = []
    with _obs.span("maxsat.component_batch") as tracing:
        clause_total = 0
        exact = 0
        for key, clause_payload, *route in batch:
            sub = WeightedMaxSat()
            for literals, weight in clause_payload:
                sub.add_clause(literals, weight)
            clause_total += len(clause_payload)
            if route == [_EXACT_ROUTE]:
                result = sub.solve_exact(max_variables=EXACT_MAX_VARIABLES)
                exact += 1
            else:
                seed, max_flips, restarts, noise = route
                result = sub.solve(
                    seed=seed, max_flips=max_flips, restarts=restarts,
                    noise=noise,
                )
            outcomes.append(
                (
                    key,
                    dict(result.assignment),
                    result.soft_cost,
                    result.hard_violations,
                    result.flips,
                )
            )
        tracing.add("components", len(batch))
        tracing.add("clauses", clause_total)
        tracing.add("exact", exact)
        tracing.add("walksat", len(batch) - exact)
    return outcomes


def solve_decomposed(
    problem: WeightedMaxSat,
    seed: int = 0,
    max_flips: int = 20_000,
    restarts: int = 3,
    noise: float = 0.1,
    decomposition: Optional[Decomposition] = None,
    cache: Optional[ComponentCache] = None,
) -> MaxSatResult:
    """Solve ``problem`` component by component, in-process.

    Semantically equivalent to :meth:`WeightedMaxSat.solve` — the optimum
    of a disconnected instance is the union of component optima.
    Component routes, seeds and flip budgets derive from component content,
    and costs/assignments merge in sorted-canonical-key order.  Components
    of at most :data:`EXACT_MAX_VARIABLES` variables are solved optimally
    by branch and bound; the WalkSAT parameters apply to the rest.

    With a :class:`ComponentCache`, components whose content-derived work
    order is already cached replay their stored outcome instead of
    searching (the incremental build's component-scoped re-reasoning);
    freshly solved components are stored back.  Cached or not, outcomes
    merge in the same canonical component order, so the result is
    byte-identical to an uncached solve.
    """
    if decomposition is None:
        with _obs.span("maxsat.decompose"):
            decomposition = decompose(problem)
    components = decomposition.components
    if _obs.ENABLED:
        exact = sum(1 for component in components if component.exact)
        _obs.count("maxsat.components", len(components))
        _obs.count("maxsat.exact_components", exact)
        _obs.count("maxsat.walksat_components", len(components) - exact)
        _obs.count("maxsat.trivial_vars", len(decomposition.trivial))
        _obs.gauge("maxsat.largest_component", decomposition.largest_component)

    clauses = problem.clauses
    tasks: list[_ComponentTask] = []
    for component in components:
        payload = [
            (clauses[index].literals, clauses[index].weight)
            for index in component.clause_indexes
        ]
        if component.exact:
            tasks.append((component.key, payload, _EXACT_ROUTE))
        else:
            tasks.append((
                component.key,
                payload,
                component.seed(seed),
                component.flip_budget(max_flips),
                restarts,
                noise,
            ))

    # Split off cache replays: the cached positions are satisfied from the
    # stored outcomes, only the remainder goes to the solver.
    outcome_at: dict[int, _ComponentOutcome] = {}
    pending: list[tuple[int, _ComponentTask]] = []
    if cache is not None:
        for position, task in enumerate(tasks):
            hit = cache.lookup(task, components[position])
            if hit is not None:
                outcome_at[position] = hit
            else:
                pending.append((position, task))
        if _obs.ENABLED:
            _obs.count("maxsat.cache.hits", len(outcome_at))
            _obs.count("maxsat.cache.misses", len(pending))
    else:
        pending = list(enumerate(tasks))

    pending_tasks = [task for __, task in pending]
    solved = _solve_component_batch(pending_tasks) if pending_tasks else []
    for (position, task), outcome in zip(pending, solved):
        outcome_at[position] = outcome
        if cache is not None:
            cache.store(task, components[position], outcome)

    assignment: dict[Hashable, bool] = {}
    soft_cost = 0.0
    hard_violations = 0
    flips = 0
    # Outcomes merge in sorted-component-key order (the order the tasks
    # were built in), whether they were freshly solved or replayed from
    # the cache, so this float accumulation order is canonical for every
    # cache state.
    for position in range(len(components)):
        __, component_assignment, soft, hard, component_flips = outcome_at[position]
        assignment.update(component_assignment)
        soft_cost += soft
        hard_violations += hard
        flips += component_flips
    for variable in sorted(decomposition.trivial, key=stable_str_key):
        assignment[variable] = decomposition.trivial[variable]
    return MaxSatResult(assignment, soft_cost, hard_violations, flips)
