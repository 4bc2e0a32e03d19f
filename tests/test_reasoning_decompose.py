"""Tests for repro.reasoning.decompose (component-decomposed MaxSat).

The contract under test: ``solve_decomposed`` reaches the same
``(hard_violations, soft_cost)`` key as the monolithic solver (the optimum
of a disconnected instance is the union of component optima), and decides
constraint-free variables closed-form without search.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.determinism.stable import stable_hash
from repro.kb import Entity, Relation, Taxonomy, Triple, TripleStore
from repro.extraction.consistency import ConsistencyReasoner
from repro.pipeline import KnowledgeBaseBuilder
from repro.reasoning import (
    HARD,
    WeightedMaxSat,
    decompose,
    solve_decomposed,
)
from repro.reasoning.decompose import EXACT_MAX_VARIABLES
from repro.world import schema as ws
from repro.world.scenarios import SCENARIOS, build_scenario


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

    def test_trivial_variables_are_in_canonical_order(self):
        problem = WeightedMaxSat()
        for name in ("z1", "z0", "y"):
            problem.add_soft_unit(name, True, 1.0)
        decomposition = decompose(problem)
        assert list(decomposition.trivial) == ["y", "z0", "z1"]
        assert list(solve_decomposed(problem).assignment) == ["y", "z0", "z1"]

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


# ------------------------------------------ per-subject clean vs oracle

def _global_oracle(reasoner: ConsistencyReasoner, candidates, seed: int = 0):
    """Clean through one global instance and one global ``decompose``:
    the reference the per-subject ``clean`` must reproduce exactly."""
    problem, triples, report = reasoner.ground(candidates)
    decomposition = decompose(problem)
    result = solve_decomposed(problem, seed=seed, decomposition=decomposition)
    report.components = len(decomposition.components)
    for component in decomposition.components:
        subject = component.variables[0][0]
        report.subject_components[subject] = (
            report.subject_components.get(subject, 0) + 1
        )
    report.largest_component = decomposition.largest_component
    report.trivial_vars = len(decomposition.trivial)
    report.soft_cost = result.soft_cost
    report.hard_violations = result.hard_violations
    accepted = [
        triple for key, triple in triples.items() if result.assignment[key]
    ]
    report.accepted = len(accepted)
    report.rejected = len(triples) - len(accepted)
    return accepted, report


def _naive_clauses(reasoner: ConsistencyReasoner, candidates):
    """The global instance's clauses, grounded family by family over the
    whole candidate set (keys in ``repr`` order): what ``ground`` builds
    from its per-subject grounding."""
    taxonomy = reasoner.taxonomy
    triples = {triple.spo(): triple for triple in candidates}
    keys = sorted(triples, key=repr)
    clauses = [
        (((key, True),), max(triples[key].confidence, 0.05)) for key in keys
    ]
    relations = [key for key in keys if isinstance(key[1], Relation)]

    def pairs(groups, keep=lambda a, b: True):
        for group in groups.values():
            for i, first in enumerate(group):
                for second in group[i + 1:]:
                    if keep(first, second):
                        clauses.append((((first, False), (second, False)), HARD))

    if reasoner.use_functionality:
        groups: dict = {}
        for key in relations:
            if taxonomy.is_functional(key[1]):
                groups.setdefault(key[:2], []).append(key)
        pairs(groups)
    if reasoner.use_types:
        for subject, relation, obj in relations:
            domain = taxonomy.domain_of(relation)
            rng = taxonomy.range_of(relation)
            if (
                domain is not None and isinstance(subject, Entity)
                and not taxonomy.admits(subject, domain)
            ) or (
                rng is not None and isinstance(obj, Entity)
                and not taxonomy.admits(obj, rng)
            ):
                clauses.append(((((subject, relation, obj), False),), HARD))
    if reasoner.use_disjointness:
        eligible = taxonomy.relations_with_disjointness()
        groups = {}
        for key in relations:
            if key[1] in eligible:
                groups.setdefault((key[0], key[2]), []).append(key)
        pairs(
            groups,
            lambda a, b: taxonomy.are_disjoint_relations(a[1], b[1]),
        )
    return clauses


_ABLATIONS = [
    {},
    {"use_functionality": False},
    {"use_types": False},
    {"use_disjointness": False},
]


def _oracle_candidates(world) -> list[Triple]:
    """The noisy candidates plus mistyped facts, so that every clause
    family is grounded: a company as a birthplace (range) and a company
    born somewhere (domain)."""
    mistyped = []
    for index, person in enumerate(world.people[:6]):
        company = world.companies[index % len(world.companies)]
        mistyped.append(
            Triple(person, ws.BORN_IN, company, confidence=0.7, source="test")
        )
        mistyped.append(
            Triple(
                company, ws.BORN_IN, world.cities[index % len(world.cities)],
                confidence=0.6, source="test",
            )
        )
    return list(_noisy_candidates(world)) + mistyped


def _clique_candidates(world) -> list[Triple]:
    """A functional clique above the exact cutoff (so it takes the WalkSAT
    route under its content-derived seed), among some ordinary facts."""
    person = world.people[0]
    clique = [
        Triple(
            person, ws.BORN_IN, Entity(f"world:Decoy{index:02d}"),
            confidence=round(0.3 + 0.04 * (index * 7 % 17), 3), source="test",
        )
        for index in range(EXACT_MAX_VARIABLES + 2)
    ]
    return clique + list(_noisy_candidates(world))[:200]


class TestPerSubjectCleanMatchesGlobalOracle:
    @pytest.fixture(scope="class")
    def taxonomy(self, world):
        return Taxonomy(world.store)

    @pytest.fixture(scope="class")
    def candidates(self, world):
        return TripleStore(_oracle_candidates(world))

    @pytest.mark.parametrize("ablation", _ABLATIONS, ids=str)
    def test_report_and_accepted_equal_the_oracle(
        self, taxonomy, candidates, ablation
    ):
        reasoner = ConsistencyReasoner(taxonomy, **ablation)
        expected, expected_report = _global_oracle(reasoner, candidates)
        cleaned, report = reasoner.clean(list(candidates))
        assert report == expected_report
        assert cleaned == expected
        assert report.components > 0
        if not ablation:
            assert report.functional_clauses > 0
            assert report.type_clauses > 0
            assert report.disjoint_clauses > 0

    @pytest.mark.parametrize("ablation", _ABLATIONS, ids=str)
    def test_ground_holds_the_naive_global_clauses(
        self, taxonomy, candidates, ablation
    ):
        reasoner = ConsistencyReasoner(taxonomy, **ablation)
        problem, __, __ = reasoner.ground(candidates)
        assert [
            (clause.literals, clause.weight) for clause in problem.clauses
        ] == _naive_clauses(reasoner, candidates)

    def test_input_order_and_form_do_not_matter(self, taxonomy, candidates):
        import random

        reasoner = ConsistencyReasoner(taxonomy)
        expected, expected_report = _global_oracle(reasoner, candidates)
        shuffled = list(candidates)
        random.Random(5).shuffle(shuffled)
        cleaned, report = reasoner.clean(shuffled)
        assert (cleaned, report) == (expected, expected_report)
        store, store_report = reasoner.clean(candidates)
        assert isinstance(store, TripleStore)
        assert (list(store), store_report) == (expected, expected_report)

    def test_walksat_clique_equals_the_oracle(
        self, world, taxonomy, monkeypatch
    ):
        seeds: list[int] = []
        solve = WeightedMaxSat.solve

        def recording_solve(problem, seed=0, **kwargs):
            seeds.append(seed)
            return solve(problem, seed=seed, **kwargs)

        monkeypatch.setattr(WeightedMaxSat, "solve", recording_solve)
        candidates = _clique_candidates(world)
        reasoner = ConsistencyReasoner(taxonomy)
        expected, expected_report = _global_oracle(reasoner, candidates, 3)
        oracle_seeds, seeds[:] = list(seeds), []
        cleaned, report = reasoner.clean(candidates, seed=3)
        assert report.largest_component > EXACT_MAX_VARIABLES
        assert (cleaned, report) == (expected, expected_report)
        # One WalkSAT component, seeded from its first fact's key.
        first = min(
            (t.spo() for t in candidates if t.predicate == ws.BORN_IN
             and t.subject == world.people[0]),
            key=repr,
        )
        assert seeds == oracle_seeds == [stable_hash((3, repr(first)))]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_clean_equals_the_oracle(name, monkeypatch):
    """At full scenario size: the facts and taxonomy one build cleans,
    cleaned per subject and through the global oracle.  Cleaning the
    facts of any subject subset accepts exactly the oracle's accepted
    facts of those subjects, which lets an ingest re-reason only the
    subjects a delta touches."""
    import random

    captured = []
    clean = ConsistencyReasoner.clean

    def capturing_clean(reasoner, candidates, seed=0):
        captured.append((list(candidates), reasoner.taxonomy))
        return clean(reasoner, candidates, seed)

    monkeypatch.setattr(ConsistencyReasoner, "clean", capturing_clean)
    bundle = build_scenario(name)
    KnowledgeBaseBuilder(bundle.wiki, aliases=bundle.world.aliases).build()
    ((facts, taxonomy),) = captured
    reasoner = ConsistencyReasoner(taxonomy)
    expected, expected_report = _global_oracle(reasoner, facts)
    assert clean(reasoner, facts) == (expected, expected_report)

    subjects = sorted({fact.subject for fact in facts}, key=repr)
    rng = random.Random(name)
    for subset in [subjects[:1]] + [
        rng.sample(subjects, rng.randint(1, len(subjects) // 2))
        for __ in range(8)
    ]:
        wanted = set(subset)
        accepted, __ = clean(
            reasoner, [fact for fact in facts if fact.subject in wanted]
        )
        assert accepted == [t for t in expected if t.subject in wanted]
    # Component counts add up over a partition of the subjects.
    assert expected_report.components == sum(
        clean(reasoner, [f for f in facts if f.subject in half])[1].components
        for half in (set(subjects[::2]), set(subjects[1::2]))
    )

