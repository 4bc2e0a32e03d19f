"""Tests for repro.reasoning.maxsat."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.reasoning import HARD, Clause, WeightedMaxSat


class TestClause:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Clause((), 1.0)

    def test_nonpositive_soft_weight_rejected(self):
        with pytest.raises(ValueError):
            Clause((("x", True),), 0.0)

    def test_hard_flag(self):
        assert Clause((("x", True),), HARD).is_hard
        assert not Clause((("x", True),), 2.0).is_hard

    def test_satisfied(self):
        clause = Clause((("x", True), ("y", False)), 1.0)
        assert clause.satisfied({"x": True, "y": True})
        assert clause.satisfied({"x": False, "y": False})
        assert not clause.satisfied({"x": False, "y": True})


class TestSolver:
    def test_pure_soft_units_all_true(self):
        problem = WeightedMaxSat()
        for i in range(50):
            problem.add_soft_unit(f"x{i}", True, 1.0)
        result = problem.solve(seed=0)
        assert result.soft_cost == 0.0
        assert len(result.true_variables()) == 50

    def test_functional_conflict_keeps_heavier(self):
        problem = WeightedMaxSat()
        problem.add_soft_unit("a", True, 0.9)
        problem.add_soft_unit("b", True, 0.4)
        problem.add_hard([("a", False), ("b", False)])
        result = problem.solve(seed=0)
        assert result.assignment["a"] is True
        assert result.assignment["b"] is False
        assert result.soft_cost == pytest.approx(0.4)
        assert result.hard_violations == 0

    def test_unit_propagation_forces(self):
        problem = WeightedMaxSat()
        problem.add_hard([("a", True)])
        problem.add_hard([("a", False), ("b", True)])
        problem.add_soft_unit("b", False, 5.0)
        result = problem.solve(seed=0)
        assert result.assignment["a"] is True
        assert result.assignment["b"] is True  # forced despite the soft wish
        assert result.hard_violations == 0

    def test_forced_unsatisfiable_soft_does_not_stall(self):
        # A soft clause decided false by propagation must not abort search.
        problem = WeightedMaxSat()
        problem.add_hard([("dead", False)])
        problem.add_soft_unit("dead", True, 1.0)
        for i in range(20):
            problem.add_soft_unit(f"x{i}", True, 1.0)
        result = problem.solve(seed=0)
        assert len(result.true_variables()) == 20
        assert result.soft_cost == pytest.approx(1.0)

    def test_chain_implications(self):
        # (!a | b) hard, (!b | c) hard, a soft: everything comes true.
        problem = WeightedMaxSat()
        problem.add_hard([("a", False), ("b", True)])
        problem.add_hard([("b", False), ("c", True)])
        problem.add_soft_unit("a", True, 2.0)
        result = problem.solve(seed=0)
        assert result.assignment == {"a": True, "b": True, "c": True}

    def test_deterministic_per_seed(self):
        def build():
            problem = WeightedMaxSat()
            for i in range(30):
                problem.add_soft_unit(f"x{i}", i % 2 == 0, 0.5 + i * 0.01)
            problem.add_hard([("x0", False), ("x2", False)])
            return problem

        first = build().solve(seed=5)
        second = build().solve(seed=5)
        assert first.assignment == second.assignment

    def test_cost_of(self):
        problem = WeightedMaxSat()
        problem.add_soft_unit("a", True, 0.7)
        problem.add_hard([("a", False), ("b", True)])
        hard, soft = problem.cost_of({"a": True, "b": False})
        assert hard == 1
        assert soft == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=10))
    def test_mutual_exclusion_group_keeps_heaviest(self, weights):
        # All variables mutually exclusive: the optimum keeps exactly the
        # heaviest one (ties broken arbitrarily but cost must be optimal).
        problem = WeightedMaxSat()
        names = [f"v{i}" for i in range(len(weights))]
        for name, weight in zip(names, weights):
            problem.add_soft_unit(name, True, weight)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                problem.add_hard([(names[i], False), (names[j], False)])
        result = problem.solve(seed=2, restarts=4)
        assert result.hard_violations == 0
        true_vars = result.true_variables()
        assert len(true_vars) <= 1
        optimal_cost = sum(weights) - max(weights)
        assert result.soft_cost == pytest.approx(optimal_cost, rel=1e-6)


def _brute_force_exact(problem: WeightedMaxSat):
    """``solve_exact``'s documented answer by plain enumeration.

    Variables in branching order (clause involvement, then ``repr``);
    assignments in depth-first order, True before False; the cost of each
    sums the falsified soft clauses in clause order; the first strict
    optimum is kept.
    """
    involvement = {v: 0 for v in problem.variables}
    for clause in problem.clauses:
        for variable, __ in clause.literals:
            involvement[variable] += 1
    order = sorted(problem.variables, key=lambda v: (-involvement[v], repr(v)))
    best = None
    for values in itertools.product((True, False), repeat=len(order)):
        assignment = dict(zip(order, values))
        hard = 0
        soft = 0.0
        for clause in problem.clauses:
            if not clause.satisfied(assignment):
                if clause.is_hard:
                    hard += 1
                else:
                    soft += clause.weight
        if best is None or (hard, soft) < best[0]:
            best = ((hard, soft), assignment)
    return best


_LITERAL = st.tuples(st.integers(0, 7), st.booleans())
_CLAUSE = st.tuples(
    st.lists(_LITERAL, min_size=1, max_size=3),
    # Few distinct weights, so equal-cost ties are common.
    st.sampled_from([HARD, 0.1, 0.2, 0.3, 0.5, 1.0]),
)


class TestExactSolverProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.lists(_CLAUSE, min_size=1, max_size=14))
    def test_equals_brute_force_bit_for_bit(self, variables, clauses):
        problem = WeightedMaxSat()
        for literals, weight in clauses:
            problem.add_clause(
                [(f"v{index % variables}", polarity) for index, polarity in literals],
                weight,
            )
        (hard, soft), assignment = _brute_force_exact(problem)
        result = problem.solve_exact()
        assert list(result.assignment.items()) == list(assignment.items())
        assert result.hard_violations == hard
        assert result.soft_cost == soft
        assert result.flips == 0
