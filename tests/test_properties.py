"""Cross-cutting property-based tests: implementations vs brute force.

These tests pit the optimized implementations against tiny brute-force
oracles on randomly generated inputs — the strongest correctness evidence
short of proofs for the query engine, the MaxSat solver, the parser's
structural invariants, and the bucketed histogram's error bound.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.kb import Entity, Pattern, Query, Relation, Triple, TripleStore, Var
from repro.kb.store import epoch_hex, triple_content_hash
from repro.nlp import analyze
from repro.obs.core import ALPHA, Histogram
from repro.reasoning import WeightedMaxSat
from repro.reasoning.maxsat import HARD

_entities = st.integers(0, 5).map(lambda i: Entity(f"e:{i}"))
_relations = st.integers(0, 2).map(lambda i: Relation(f"r:{i}"))
_triples = st.builds(Triple, _entities, _relations, _entities)


def _brute_force_query(triples, patterns):
    """Evaluate a conjunctive query by full enumeration."""
    solutions = []

    def extend(binding, remaining):
        if not remaining:
            solutions.append(dict(binding))
            return
        pattern = remaining[0]
        for triple in triples:
            candidate = dict(binding)
            consistent = True
            for slot, value in (
                (pattern.subject, triple.subject),
                (pattern.predicate, triple.predicate),
                (pattern.object, triple.object),
            ):
                if isinstance(slot, Var):
                    if slot.name in candidate and candidate[slot.name] != value:
                        consistent = False
                        break
                    candidate[slot.name] = value
                elif slot != value:
                    consistent = False
                    break
            if consistent:
                extend(candidate, remaining[1:])

    extend({}, patterns)
    return solutions


class TestQueryVsBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_triples, min_size=1, max_size=25),
        st.sampled_from(["svo", "chain", "star"]),
    )
    def test_join_results_match(self, triples, shape):
        store = TripleStore(triples)
        distinct = list({t.spo(): t for t in triples}.values())
        r0, r1 = Relation("r:0"), Relation("r:1")
        if shape == "svo":
            patterns = [Pattern(Var("x"), r0, Var("y"))]
        elif shape == "chain":
            patterns = [
                Pattern(Var("x"), r0, Var("y")),
                Pattern(Var("y"), r1, Var("z")),
            ]
        else:
            patterns = [
                Pattern(Var("x"), r0, Var("y")),
                Pattern(Var("x"), r1, Var("z")),
            ]
        engine_results = Query(patterns).run(store)
        brute_results = _brute_force_query(distinct, patterns)

        def canon(results):
            return sorted(
                tuple(sorted((k, str(v)) for k, v in b.items())) for b in results
            )

        assert canon(engine_results) == canon(brute_results)


def _brute_force_maxsat(clauses, variables):
    """The optimal (hard violations, soft cost) by full enumeration."""
    best = None
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        hard = 0
        soft = 0.0
        for literals, weight in clauses:
            satisfied = any(assignment[v] == pol for v, pol in literals)
            if not satisfied:
                if weight == HARD:
                    hard += 1
                else:
                    soft += weight
        key = (hard, soft)
        if best is None or key < best:
            best = key
    return best


_literal = st.tuples(st.integers(0, 4).map(lambda i: f"v{i}"), st.booleans())
_soft_clause = st.tuples(
    st.lists(_literal, min_size=1, max_size=3, unique_by=lambda l: l[0]),
    st.floats(0.1, 2.0),
)


class TestMaxSatVsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_soft_clause, min_size=1, max_size=8), st.data())
    def test_solver_reaches_optimum(self, soft_clauses, data):
        problem = WeightedMaxSat()
        clause_list = []
        for literals, weight in soft_clauses:
            weight = round(weight, 3)
            problem.add_clause(literals, weight)
            clause_list.append((literals, weight))
        # Optionally add one hard exclusion clause.
        if data.draw(st.booleans()):
            hard = [("v0", False), ("v1", False)]
            problem.add_hard(hard)
            clause_list.append((hard, HARD))
        variables = problem.variables
        optimal = _brute_force_maxsat(clause_list, variables)
        result = problem.solve(seed=1, restarts=4, max_flips=4000)
        assert result.hard_violations == optimal[0]
        assert result.soft_cost <= optimal[1] + 1e-6


_sentence_texts = st.sampled_from(
    [
        "Alan Weber founded Nimbus Systems in 1976.",
        "Nimbus Systems was founded by Alan Weber.",
        "The capital of Arvandia is Corvain.",
        "In 1955, Julia Weber was born in Lorvik.",
        "Julia Weber and Marco Santos married in 1981.",
        "Mara Santos is the CEO of Orbital Corp.",
        "He praised the new Nova 3 repeatedly.",
        "Many scientists, including Alan Weber, attended the meeting.",
        "Corvain lies in Arvandia.",
        "She has worked at Helio Labs since 1988.",
    ]
)


class TestParserInvariants:
    @settings(max_examples=30, deadline=None)
    @given(_sentence_texts)
    def test_single_root_and_total_attachment(self, text):
        parse = analyze(text).parse
        roots = [i for i, h in enumerate(parse.heads) if h == -1]
        assert len(roots) == 1
        n = len(parse.heads)
        for head in parse.heads:
            assert -1 <= head < n

    @settings(max_examples=30, deadline=None)
    @given(_sentence_texts)
    def test_no_self_loops_or_cycles(self, text):
        parse = analyze(text).parse
        for i, head in enumerate(parse.heads):
            assert head != i
        # Walking up from any token terminates at the root.
        for start in range(len(parse.heads)):
            seen = set()
            node = start
            while node != -1:
                assert node not in seen
                seen.add(node)
                node = parse.heads[node]

    @settings(max_examples=30, deadline=None)
    @given(_sentence_texts, _sentence_texts)
    def test_path_symmetric_existence(self, text_a, text_b):
        parse = analyze(text_a).parse
        n = len(parse.heads)
        if n < 2:
            return
        forward = parse.path(0, n - 1, max_length=n)
        backward = parse.path(n - 1, 0, max_length=n)
        assert (forward is None) == (backward is None)


_confident_triples = st.builds(
    Triple,
    _entities,
    _relations,
    _entities,
    st.floats(0.0, 1.0).map(lambda c: round(c, 3)),
)
_operations = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), _confident_triples),
    max_size=60,
)


class TestTripleStoreInvariants:
    """After any add/remove sequence, every index agrees with ``_by_spo``."""

    @staticmethod
    def _assert_indexes_consistent(store: TripleStore) -> None:
        # The bucket indexes are lazy: a read builds them before they are
        # inspected directly below.
        store.index_stats()
        assert store._indexed
        keys = set(store._by_spo)
        index_views = {
            "_by_s": store._by_s,
            "_by_p": store._by_p,
            "_by_o": store._by_o,
            "_by_sp": store._by_sp,
            "_by_po": store._by_po,
        }
        # 1. Every index entry points at a live key; no empty buckets linger.
        for name, index in index_views.items():
            for bucket_key, bucket in index.items():
                assert bucket, f"{name}[{bucket_key!r}] is an empty bucket"
                assert set(bucket) <= keys, f"{name} holds dead keys"
        # 2. Every live key is present in all five indexes, in the right
        #    bucket.
        for s, p, o in keys:
            assert (s, p, o) in store._by_s[s]
            assert (s, p, o) in store._by_p[p]
            assert (s, p, o) in store._by_o[o]
            assert (s, p, o) in store._by_sp[(s, p)]
            assert (s, p, o) in store._by_po[(p, o)]
        # 3. Index cardinalities add up: each index partitions the key set.
        for name, index in index_views.items():
            total = sum(len(bucket) for bucket in index.values())
            assert total == len(keys), f"{name} cardinality mismatch"

    @settings(max_examples=80, deadline=None)
    @given(_operations)
    def test_indexes_agree_after_any_operation_sequence(self, operations):
        store = TripleStore()
        oracle: dict[tuple, Triple] = {}
        for action, triple in operations:
            if action == "add":
                store.add(triple)
                existing = oracle.get(triple.spo())
                if existing is None or triple.confidence > existing.confidence:
                    oracle[triple.spo()] = triple
            else:
                store.remove(triple)
                oracle.pop(triple.spo(), None)
        self._assert_indexes_consistent(store)
        assert set(store._by_spo) == set(oracle)

    @settings(max_examples=80, deadline=None)
    @given(_operations)
    def test_higher_confidence_witness_wins(self, operations):
        store = TripleStore()
        oracle: dict[tuple, Triple] = {}
        for action, triple in operations:
            if action == "add":
                store.add(triple)
                existing = oracle.get(triple.spo())
                if existing is None or triple.confidence > existing.confidence:
                    oracle[triple.spo()] = triple
            else:
                store.remove(triple)
                oracle.pop(triple.spo(), None)
        for key, expected in oracle.items():
            stored = store.get(*key)
            assert stored is not None
            assert stored.confidence == expected.confidence

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_confident_triples, max_size=40))
    def test_match_agrees_with_scan_after_load(self, triples):
        store = TripleStore(triples)
        everything = list(store)
        for s, p, o in {t.spo() for t in everything}:
            assert store.contains_fact(s, p, o)
            assert {t.spo() for t in store.match(subject=s)} == {
                t.spo() for t in everything if t.subject == s
            }
            assert {t.spo() for t in store.match(predicate=p, obj=o)} == {
                t.spo() for t in everything
                if t.predicate == p and t.object == o
            }


_churn_entities = st.integers(0, 2).map(lambda i: Entity(f"e:{i}"))
_churn_relations = st.integers(0, 1).map(lambda i: Relation(f"r:{i}"))
#: Add/replace/remove/re-add sequences over 18 keys, so most operations
#: hit a key that is already present or was just removed.
_churn = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove"]),
        st.builds(
            Triple,
            _churn_entities,
            _churn_relations,
            _churn_entities,
            st.floats(0.0, 1.0).map(lambda c: round(c, 2)),
        ),
    ),
    min_size=1,
    max_size=60,
)
#: Every (s, p, o) pattern over that universe: all eight index shapes
#: (spo, sp, po, s+o, s, p, o, scan), hits and misses alike.
_all_patterns = list(
    itertools.product(
        [None] + [Entity(f"e:{i}") for i in range(3)],
        [None] + [Relation(f"r:{i}") for i in range(2)],
        [None] + [Entity(f"e:{i}") for i in range(3)],
    )
)


def _force(store: TripleStore, how: str) -> None:
    """Read the store the way ``how`` names, materializing lazy state."""
    if how == "match":
        list(store.match(predicate=Relation("r:0")))
    elif how == "count":
        store.count(subject=Entity("e:0"))
    elif how == "index_stats":
        store.index_stats()
    else:
        store.epoch


class TestLazyStoreEqualsEager:
    """A store whose indexes and epoch materialize on a later read (or
    only at the comparison) is indistinguishable from one that read both
    before its first add: same match order for every pattern shape, same
    epoch and bucket accounting.  Both are also held to a
    brute-force oracle (an insertion-ordered ``spo -> Triple`` dict), so
    a maintenance bug the two would share cannot pass either."""

    @settings(max_examples=150, deadline=None)
    @given(
        _churn,
        st.one_of(st.none(), st.integers(0, 60)),
        st.sampled_from(["match", "count", "index_stats", "epoch"]),
    )
    def test_lazy_matches_eager(self, operations, force_at, how):
        eager = TripleStore()
        eager.epoch
        eager.index_stats()
        assert eager._indexed
        lazy = TripleStore()
        oracle: dict[tuple, Triple] = {}
        for step, (action, triple) in enumerate(operations):
            if step == force_at:
                _force(lazy, how)
            if action == "add":
                assert lazy.add(triple) == eager.add(triple)
                existing = oracle.get(triple.spo())
                if existing is None or triple.confidence > existing.confidence:
                    oracle[triple.spo()] = triple
            else:
                assert lazy.remove(triple) == eager.remove(triple)
                oracle.pop(triple.spo(), None)
        if force_at is None or force_at >= len(operations):
            assert not lazy._indexed
            assert lazy._epoch_acc is None
        for s, p, o in _all_patterns:
            expected = [
                repr(t) for t in oracle.values()
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            ]
            for store in (lazy, eager):
                assert [repr(t) for t in store.match(s, p, o)] == expected
                assert store.count(s, p, o) == len(expected)
        content_epoch = epoch_hex(
            sum(triple_content_hash(t) for t in oracle.values())
        )
        assert lazy.epoch == eager.epoch == content_epoch
        stats = lazy.index_stats()
        assert stats == eager.index_stats()
        assert all(index["empty"] == 0 for index in stats.values())
        assert lazy.predicates() == eager.predicates()


class TestWorldDeterminism:
    def test_same_seed_same_everything(self):
        from repro.corpus import CorpusConfig, build_wiki, synthesize
        from repro.world import WorldConfig, generate_world

        def fingerprint():
            world = generate_world(WorldConfig(seed=99, n_people=40))
            wiki = build_wiki(world)
            documents = synthesize(world, CorpusConfig(seed=98))
            return (
                sorted(str(t) for t in world.facts),
                sorted(wiki.pages),
                [s.text for d in documents for s in d.sentences],
            )

        assert fingerprint() == fingerprint()


_classes = st.integers(0, 5).map(lambda i: Entity(f"c:{i}"))
_members = st.integers(0, 3).map(lambda i: Entity(f"w:{i}"))


def _reachable(start, edges):
    """Plain BFS: every node reachable from ``start``, ``start`` excluded."""
    seen, frontier = set(), [start]
    while frontier:
        node = frontier.pop()
        for nxt in edges.get(node, ()):
            if nxt not in seen and nxt != start:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestTaxonomyMemoVsBFS:
    """The frozen taxonomy's memoized closures equal an unmemoized BFS
    reference on random hierarchies (cycles and self-loops included), and
    no caller can poison a memo by mutating what it was handed."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(_classes, _classes), max_size=12),
        st.lists(st.tuples(_members, _classes), max_size=10),
        st.lists(st.tuples(_classes, _classes), max_size=4),
        st.booleans(),
    )
    def test_memoized_answers_match_bfs(self, edges, types, disjoint, as_store):
        from repro.kb import Taxonomy, ns

        triples = (
            [Triple(a, ns.SUBCLASS_OF, b) for a, b in edges]
            + [Triple(e, ns.TYPE, c) for e, c in types]
            + [Triple(a, ns.DISJOINT_CLASS_WITH, b) for a, b in disjoint]
        )
        taxonomy = Taxonomy(TripleStore(triples) if as_store else triples)
        parents, children, direct = {}, {}, {}
        for a, b in edges:
            parents.setdefault(a, set()).add(b)
            children.setdefault(b, set()).add(a)
        for e, c in types:
            direct.setdefault(e, set()).add(c)

        def up(c):
            return _reachable(c, parents)

        def types_of(e):
            found = set(direct.get(e, ()))
            for c in direct.get(e, ()):
                found |= up(c)
            return found

        def instances_of(c):
            subs = _reachable(c, children) | {c}
            return {e for e, cs in direct.items() if cs & subs}

        def disjoint_classes(c1, c2):
            up1, up2 = up(c1) | {c1}, up(c2) | {c2}
            return any(
                (a in up1 and b in up2) or (b in up1 and a in up2)
                for a, b in disjoint
            )

        classes = [Entity(f"c:{i}") for i in range(6)]
        members = [Entity(f"w:{i}") for i in range(4)]
        for __ in range(2):  # the second round answers from the memos
            for c in classes:
                for include_self in (False, True):
                    expected_up = up(c) | ({c} if include_self else set())
                    expected_down = _reachable(c, children) | (
                        {c} if include_self else set()
                    )
                    got_up = taxonomy.superclasses(c, include_self)
                    got_down = taxonomy.subclasses(c, include_self)
                    assert got_up == expected_up
                    assert got_down == expected_down
                    got_up.add(Entity("c:poison"))
                    got_down.clear()
                got_instances = taxonomy.instances_of(c)
                assert got_instances == instances_of(c)
                got_instances.add(Entity("w:poison"))
                for other in classes:
                    assert taxonomy.are_disjoint_classes(c, other) == (
                        disjoint_classes(c, other)
                    )
                    assert taxonomy.is_subclass_of(c, other) == (
                        c == other or other in up(c)
                    )
            for e in members:
                got_types = taxonomy.types_of(e)
                assert got_types == types_of(e)
                assert taxonomy.types_of(e, transitive=False) == direct.get(
                    e, set()
                )
                for c in classes:
                    assert taxonomy.is_instance_of(e, c) == (c in types_of(e))
                    # Open world: only a known type disjoint with c conflicts.
                    assert taxonomy.admits(e, c) == (
                        c in types_of(e)
                        or not any(
                            disjoint_classes(t, c) for t in types_of(e)
                        )
                    )
                got_types.clear()


_samples = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e3, allow_subnormal=False),
    # Wide ranges: any normal magnitude from 1e-300 to 1e300.
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(1.0, 9.99),
        st.integers(-300, 299),
    ),
)
_series = st.one_of(
    st.lists(_samples, min_size=1, max_size=200),
    st.builds(lambda value, n: [value] * n, _samples, st.integers(1, 50)),
)


def _nearest_rank(ordered, p):
    rank = min(max(1, math.ceil(p / 100.0 * len(ordered))), len(ordered))
    return ordered[rank - 1]


class TestHistogramVsExactPercentiles:
    """The bucketed histogram against the exact nearest-rank oracle:
    every percentile within ALPHA, count/mean/min/max exact, and a bucket
    count bounded by the value range, not the sample count."""

    @settings(max_examples=200, deadline=None)
    @given(
        _series,
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
        st.integers(1, 20),
    )
    def test_percentiles_within_alpha(self, series, ps, repeats):
        histogram = Histogram("h")
        for value in series:
            histogram.observe(value)
        buckets = len(histogram.buckets) + (1 if histogram.zeros else 0)
        ordered = sorted(series)
        assert histogram.count == len(series)
        assert histogram.min == ordered[0]
        assert histogram.max == ordered[-1]
        assert histogram.mean == pytest.approx(
            math.fsum(series) / len(series), rel=1e-9
        )
        for p in [0.0, 50.0, 95.0, 99.0, 100.0, *ps]:
            exact = _nearest_rank(ordered, p)
            got = histogram.percentile(p)
            # The 1e-9 slack absorbs float rounding at a bucket boundary,
            # where the representative is exactly ALPHA away.
            assert abs(got - exact) <= ALPHA * exact * (1 + 1e-9), (p, got, exact)
        if len(set(series)) == 1:
            assert histogram.p50 == histogram.p99 == series[0]

        positive = [value for value in series if value > 0]
        if positive:
            gamma = (1 + ALPHA) / (1 - ALPHA)
            spread = math.log(max(positive)) - math.log(min(positive))
            assert buckets <= math.ceil(spread / math.log(gamma)) + 2
        else:
            assert buckets == 1
        # More samples over the same values add no buckets.
        for _ in range(repeats):
            for value in series:
                histogram.observe(value)
        assert len(histogram.buckets) + (1 if histogram.zeros else 0) == buckets
        assert histogram.count == len(series) * (repeats + 1)
