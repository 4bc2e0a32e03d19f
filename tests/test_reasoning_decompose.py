"""Tests for repro.reasoning.decompose (component-decomposed MaxSat).

The contract under test: ``solve_decomposed`` reaches the same
``(hard_violations, soft_cost)`` key as the monolithic solver (the optimum
of a disconnected instance is the union of component optima), and decides
constraint-free variables closed-form without search.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.kb import Entity, Relation, Taxonomy, Triple, TripleStore
from repro.extraction.consistency import ConsistencyReasoner
from repro.reasoning import (
    HARD,
    WeightedMaxSat,
    decompose,
    solve_decomposed,
)
from repro.reasoning.decompose import EXACT_MAX_VARIABLES


def _two_component_problem(x0_weight: float = 0.9) -> WeightedMaxSat:
    problem = WeightedMaxSat()
    # Component A: x0/x1 mutually exclusive.
    problem.add_soft_unit("x0", True, x0_weight)
    problem.add_soft_unit("x1", True, 0.4)
    problem.add_hard([("x0", False), ("x1", False)])
    # Component B: a three-variable chain.
    problem.add_soft_unit("y0", True, 0.8)
    problem.add_soft_unit("y1", True, 0.7)
    problem.add_soft_unit("y2", True, 0.6)
    problem.add_hard([("y0", False), ("y1", False)])
    problem.add_hard([("y1", False), ("y2", False)])
    # Unconstrained variables: closed-form accepts.
    problem.add_soft_unit("z0", True, 1.0)
    problem.add_soft_unit("z1", True, 0.2)
    return problem


class TestDecompose:
    def test_components_and_trivial_variables(self):
        decomposition = decompose(_two_component_problem())
        assert decomposition.trivial == {"z0": True, "z1": True}
        assert [c.variables for c in decomposition.components] == [
            ["x0", "x1"],
            ["y0", "y1", "y2"],
        ]
        assert decomposition.largest_component == 3
        assert decomposition.component_sizes() == [3, 2]

    def test_every_clause_lands_in_exactly_one_component(self):
        problem = _two_component_problem()
        decomposition = decompose(problem)
        covered = sorted(
            index
            for component in decomposition.components
            for index in component.clause_indexes
        )
        # All clauses except the two trivial variables' own soft units.
        trivial_units = {
            index
            for index, clause in enumerate(problem.clauses)
            if len(clause.literals) == 1
            and clause.literals[0][0] in decomposition.trivial
        }
        expected = [
            index
            for index in range(len(problem.clauses))
            if index not in trivial_units
        ]
        assert covered == expected

    def test_negative_polarity_units_are_trivial_too(self):
        problem = WeightedMaxSat()
        problem.add_soft_unit("keep", True, 1.0)
        problem.add_soft_unit("drop", False, 1.0)
        decomposition = decompose(problem)
        assert decomposition.trivial == {"keep": True, "drop": False}
        assert decomposition.components == []

    def test_conflicting_polarity_units_are_not_trivial(self):
        problem = WeightedMaxSat()
        problem.add_soft_unit("torn", True, 0.8)
        problem.add_soft_unit("torn", False, 0.3)
        decomposition = decompose(problem)
        assert decomposition.trivial == {}
        assert len(decomposition.components) == 1

    def test_component_seed_is_content_derived(self):
        first = decompose(_two_component_problem())
        second = decompose(_two_component_problem())
        assert [c.seed(7) for c in first.components] == [
            c.seed(7) for c in second.components
        ]
        # Different base seeds give different component seeds.
        assert first.components[0].seed(7) != first.components[0].seed(8)

    def test_flip_budget_scales_with_size_and_caps_at_max(self):
        decomposition = decompose(_two_component_problem())
        small, large = decomposition.components
        assert small.flip_budget(20_000) <= large.flip_budget(20_000)
        assert small.flip_budget(100) == 100


class TestSolveDecomposed:
    def test_trivial_only_instance_needs_no_search(self):
        problem = WeightedMaxSat()
        for i in range(40):
            problem.add_soft_unit(f"v{i}", True, 0.5)
        result = solve_decomposed(problem)
        assert result.flips == 0
        assert result.soft_cost == 0.0
        assert len(result.true_variables()) == 40

    def test_matches_monolithic_key_on_fixed_instance(self):
        problem = _two_component_problem()
        decomposed = solve_decomposed(problem, seed=3)
        monolithic = _two_component_problem().solve(seed=3)
        assert decomposed.hard_violations == monolithic.hard_violations
        assert decomposed.soft_cost == pytest.approx(monolithic.soft_cost)

    def test_empty_instance(self):
        result = solve_decomposed(WeightedMaxSat())
        assert result.assignment == {}
        assert result.soft_cost == 0.0
        assert result.hard_violations == 0

class TestSizeRouting:
    def test_equal_weight_tie_keeps_repr_first_candidate(self):
        tie = WeightedMaxSat()
        tie.add_soft_unit("b", True, 0.9)
        tie.add_soft_unit("a", True, 0.9)
        tie.add_hard([("a", False), ("b", False)])
        assert solve_decomposed(tie).true_variables() == {"a"}

# ------------------------------------------------- randomized equivalence

def _random_problem(weights: list[float], exclusions: list[tuple[int, int]]):
    problem = WeightedMaxSat()
    names = [f"v{i}" for i in range(len(weights))]
    for name, weight in zip(names, weights):
        problem.add_soft_unit(name, True, round(weight, 3))
    for i, j in exclusions:
        a, b = names[i % len(names)], names[j % len(names)]
        if a != b:
            problem.add_hard([(a, False), (b, False)])
    return problem


def _brute_force_key(problem: WeightedMaxSat):
    variables = problem.variables
    best = None
    for mask in range(1 << len(variables)):
        assignment = {
            v: bool(mask >> i & 1) for i, v in enumerate(variables)
        }
        hard = 0
        soft = 0.0
        for clause in problem.clauses:
            if clause.satisfied(assignment):
                continue
            if clause.weight == HARD:
                hard += 1
            else:
                soft += clause.weight
        key = (hard, soft)
        if best is None or key < best:
            best = key
    return best


class TestDecomposedVsMonolithicProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.1, 1.0), min_size=2, max_size=8),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=6,
        ),
    )
    def test_same_key_as_monolithic_and_optimum(self, weights, exclusions):
        monolithic = _random_problem(weights, exclusions).solve(
            seed=1, restarts=4, max_flips=4000
        )
        decomposed = solve_decomposed(
            _random_problem(weights, exclusions),
            seed=1, restarts=4, max_flips=4000,
        )
        optimum = _brute_force_key(_random_problem(weights, exclusions))
        assert decomposed.hard_violations == optimum[0]
        assert decomposed.soft_cost == pytest.approx(optimum[1], abs=1e-6)
        assert decomposed.hard_violations == monolithic.hard_violations
        assert decomposed.soft_cost == pytest.approx(
            monolithic.soft_cost, abs=1e-6
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.1, 1.0), min_size=2, max_size=8),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=5,
        ),
    )
    def test_components_agree_with_exact_solver(self, weights, exclusions):
        problem = _random_problem(weights, exclusions)
        decomposition = decompose(problem)
        clauses = problem.clauses
        for component in decomposition.components:
            sub = WeightedMaxSat()
            for index in component.clause_indexes:
                sub.add_clause(clauses[index].literals, clauses[index].weight)
            local = sub.solve(
                seed=component.seed(1), restarts=4, max_flips=4000
            )
            exact = sub.solve_exact()
            assert local.hard_violations == exact.hard_violations
            assert local.soft_cost == pytest.approx(
                exact.soft_cost, abs=1e-6
            )


def _random_component(weights, extra, doubts) -> WeightedMaxSat:
    """One connected component: an exclusion chain over every variable,
    extra exclusions, and soft negative units that pull against facts."""
    chain = [(i, i + 1) for i in range(len(weights) - 1)]
    problem = _random_problem(weights, chain + extra)
    for index, weight in doubts:
        problem.add_soft_unit(f"v{index % len(weights)}", False, round(weight, 3))
    return problem


_VARIABLE = st.integers(0, EXACT_MAX_VARIABLES - 1)


class TestExactRouteProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(st.floats(0.1, 1.0), min_size=2, max_size=EXACT_MAX_VARIABLES),
        st.lists(st.tuples(_VARIABLE, _VARIABLE), max_size=8),
        st.lists(st.tuples(_VARIABLE, st.floats(0.1, 1.0)), max_size=4),
    )
    def test_routed_solve_is_optimal_and_never_worse_than_walksat(
        self, weights, extra, doubts
    ):
        problem = _random_component(weights, extra, doubts)
        (component,) = decompose(problem).components
        assert component.exact
        routed = solve_decomposed(problem, seed=1)
        assert routed.flips == 0
        optimum = _brute_force_key(problem)
        assert routed.hard_violations == optimum[0]
        assert routed.soft_cost == pytest.approx(optimum[1], abs=1e-6)
        walksat = problem.solve(
            seed=component.seed(1), max_flips=component.flip_budget(20_000)
        )
        assert (routed.hard_violations, routed.soft_cost) <= (
            walksat.hard_violations, walksat.soft_cost + 1e-6
        )

    @settings(max_examples=5, deadline=None)
    @given(
        st.lists(
            st.floats(0.1, 1.0),
            min_size=EXACT_MAX_VARIABLES + 1,
            max_size=EXACT_MAX_VARIABLES + 1,
        ),
        st.integers(0, 2**16),
    )
    def test_one_above_cutoff_takes_walksat(self, weights, seed):
        problem = _random_component(weights, [], [])
        (component,) = decompose(problem).components
        assert not component.exact
        assert solve_decomposed(problem, seed=seed, max_flips=300).flips > 0


# --------------------------------------------- cleaned-KB byte equality

def _noisy_candidates(world) -> TripleStore:
    """World facts plus injected functional conflicts and disjoint pairs."""
    store = TripleStore()
    for index, triple in enumerate(world.facts):
        if isinstance(triple.object, Entity) and index % 2 == 0:
            store.add(
                Triple(
                    triple.subject, triple.predicate, triple.object,
                    confidence=0.9, source="test",
                )
            )
    facts = [t for t in store]
    for triple in facts[: len(facts) // 4]:
        # A second object for the same (s, p): conflicts on functional
        # relations, more components everywhere else.
        store.add(
            Triple(
                triple.subject, triple.predicate, Entity("world:Decoy"),
                confidence=0.4, source="test",
            )
        )
    return store


class TestCleanedKbCrossBackend:
    @pytest.fixture(scope="class")
    def cleaned_reference(self, world):
        reasoner = ConsistencyReasoner(Taxonomy(world.store))
        return reasoner.clean(_noisy_candidates(world))

    def test_report_carries_decomposition_shape(self, cleaned_reference):
        __, report = cleaned_reference
        assert report.components > 0
        assert report.largest_component >= 2
        assert report.trivial_vars > 0
        assert (
            report.accepted + report.rejected == report.candidates
        )
