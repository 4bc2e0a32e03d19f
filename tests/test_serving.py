"""Tests for repro.serving: engine correctness, cache accounting, and the
writer-vs-readers concurrency contract."""

import json
import threading

import pytest

from repro.kb import Entity, Pattern, Query, Relation, Triple, TripleStore, Var
from repro.kb.rdfio import term_to_text
from repro.serving import (
    MISS,
    BadRequest,
    QueryEngine,
    VersionedLRUCache,
    canonical_triple_key,
    parse_patterns,
    parse_slot,
    parse_term,
)

BORN_IN = Relation("rel:bornIn")
LOCATED_IN = Relation("rel:locatedIn")
GERMANY = Entity("world:Germany")


def make_store() -> TripleStore:
    triples = []
    for i in range(6):
        person = Entity(f"world:P{i}")
        city = Entity(f"world:C{i % 3}")
        triples.append(Triple(person, BORN_IN, city, confidence=0.5 + 0.08 * i))
    for c in range(3):
        triples.append(
            Triple(Entity(f"world:C{c}"), LOCATED_IN, GERMANY, confidence=0.9)
        )
    return TripleStore(triples)


@pytest.fixture
def store():
    return make_store()


@pytest.fixture
def engine(store):
    return QueryEngine(store)


def dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestLookup:
    def test_matches_store_match_byte_equal(self, engine, store):
        payload = engine.lookup(predicate=BORN_IN)
        expected = sorted(store.match(None, BORN_IN, None), key=canonical_triple_key)
        assert payload["count"] == len(expected) == 6
        assert [t["s"] for t in payload["triples"]] == [
            term_to_text(t.subject) for t in expected
        ]
        assert dumps(payload) == dumps(
            {
                "kb_epoch": store.epoch,
                "kb_version": store.version,
                "count": len(expected),
                "triples": [
                    {
                        "s": term_to_text(t.subject),
                        "p": term_to_text(t.predicate),
                        "o": term_to_text(t.object),
                        "confidence": t.confidence,
                        "source": t.source,
                        "scope": None if t.scope is None else str(t.scope),
                    }
                    for t in expected
                ],
            }
        )

    def test_point_lookup_and_empty(self, engine):
        hit = engine.lookup(Entity("world:P0"), BORN_IN, Entity("world:C0"))
        assert hit["count"] == 1
        miss = engine.lookup(Entity("world:Nobody"), None, None)
        assert miss["count"] == 0 and miss["triples"] == []

    def test_cold_and_warm_are_byte_identical(self, engine):
        cold = dumps(engine.lookup(predicate=LOCATED_IN))
        warm = dumps(engine.lookup(predicate=LOCATED_IN))
        assert cold == warm


class TestQueryEndpoint:
    PATTERNS = [
        Pattern(Var("x"), BORN_IN, Var("c")),
        Pattern(Var("c"), LOCATED_IN, GERMANY),
    ]

    def test_byte_equal_to_direct_query_run(self, engine, store):
        payload = engine.query(self.PATTERNS)
        direct = Query(self.PATTERNS).run(store)
        expected = [
            {name: term_to_text(value) for name, value in binding.items()}
            for binding in direct
        ]
        assert dumps(payload["bindings"]) == dumps(expected)
        assert payload["count"] == len(direct) == 6
        assert payload["vars"] == ["c", "x"]

    def test_modifiers_match_direct_run(self, engine, store):
        payload = engine.query(
            self.PATTERNS, select=["x"], distinct=True, order_by="x", limit=4
        )
        direct = Query(
            self.PATTERNS, select=["x"], distinct=True, order_by="x", limit=4
        ).run(store)
        assert dumps(payload["bindings"]) == dumps(
            [{n: term_to_text(v) for n, v in b.items()} for b in direct]
        )

    def test_select_unknown_variable_rejected(self, engine):
        with pytest.raises(BadRequest):
            engine.query(self.PATTERNS, select=["nope"])

    def test_order_by_unknown_variable_rejected(self, engine):
        with pytest.raises(BadRequest):
            engine.query(self.PATTERNS, order_by="nope")

    def test_empty_patterns_rejected(self, engine):
        with pytest.raises(BadRequest):
            engine.query([])

    def test_negative_limit_rejected(self, engine):
        with pytest.raises(BadRequest):
            engine.query(self.PATTERNS, limit=-1)


class TestTopK:
    def test_ranked_by_confidence(self, engine):
        payload = engine.topk(3, predicate=BORN_IN)
        confs = [t["confidence"] for t in payload["results"]]
        assert confs == sorted(confs, reverse=True)
        assert payload["count"] == 3 and len(payload["results"]) == 3

    def test_tie_break_is_canonical_key(self):
        # Four equal-confidence facts: rank order must be the canonical
        # (s, p, o) text order, whatever the insertion order was.
        triples = [
            Triple(Entity(f"world:P{i}"), BORN_IN, Entity("world:C0"), 0.7)
            for i in (3, 1, 2, 0)
        ]
        engine = QueryEngine(TripleStore(triples))
        payload = engine.topk(4, predicate=BORN_IN)
        assert [t["s"] for t in payload["results"]] == [
            "<world:P0>", "<world:P1>", "<world:P2>", "<world:P3>"
        ]
        # The cut at k is the same prefix.
        assert engine.topk(2, predicate=BORN_IN)["results"] == payload["results"][:2]

    def test_k_larger_than_matches(self, engine):
        payload = engine.topk(100, predicate=LOCATED_IN)
        assert payload["count"] == 3

    def test_bad_k_rejected(self, engine):
        with pytest.raises(BadRequest):
            engine.topk(0, predicate=BORN_IN)


class TestCacheAccounting:
    def test_miss_then_hit(self, engine):
        engine.lookup(predicate=BORN_IN)
        stats = engine.cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 0)
        engine.lookup(predicate=BORN_IN)
        stats = engine.cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert stats["hit_rate"] == 0.5

    def test_distinct_requests_are_distinct_entries(self, engine):
        engine.lookup(predicate=BORN_IN)
        engine.lookup(predicate=LOCATED_IN)
        engine.topk(2, predicate=BORN_IN)
        assert len(engine.cache) == 3
        assert engine.cache.stats()["hits"] == 0

    def test_lru_eviction(self, store):
        engine = QueryEngine(store, cache_size=2)
        engine.lookup(predicate=BORN_IN)        # entry A
        engine.lookup(predicate=LOCATED_IN)     # entry B
        engine.lookup(predicate=BORN_IN)        # refresh A
        engine.topk(1, predicate=BORN_IN)       # entry C evicts B (LRU)
        assert engine.cache.stats()["evictions"] == 1
        engine.lookup(predicate=BORN_IN)        # still cached
        assert engine.cache.stats()["hits"] == 2
        engine.lookup(predicate=LOCATED_IN)     # was evicted: a miss
        assert engine.cache.stats()["hits"] == 2

    def test_capacity_must_be_positive(self, store):
        with pytest.raises(ValueError):
            QueryEngine(store, cache_size=0)

    def test_raw_cache_miss_sentinel(self):
        cache = VersionedLRUCache(capacity=4)
        assert cache.get("k", "e0", 0) is MISS
        cache.put("k", "e0", 0, {"x": 1})
        assert cache.get("k", "e0", 0) == {"x": 1}
        assert cache.get("k", "e0", 1) is MISS  # version moved on: stale drop
        assert cache.stats()["stale_drops"] == 1
        cache.put("k", "e0", 1, {"x": 2})
        # Same version, different store identity: also a stale drop.
        assert cache.get("k", "e1", 1) is MISS
        assert cache.stats()["stale_drops"] == 2


class TestVersionInvalidation:
    def test_add_invalidates_and_result_reflects_store(self, engine):
        before = engine.lookup(predicate=BORN_IN)
        engine.add(Triple(Entity("world:P9"), BORN_IN, Entity("world:C0"), 0.99))
        after = engine.lookup(predicate=BORN_IN)
        assert after["kb_version"] > before["kb_version"]
        assert after["count"] == before["count"] + 1
        assert engine.cache.stats()["stale_drops"] == 1

    def test_remove_invalidates(self, engine):
        engine.topk(2, predicate=LOCATED_IN)
        engine.remove(Triple(Entity("world:C0"), LOCATED_IN, GERMANY))
        payload = engine.topk(2, predicate=LOCATED_IN)
        assert payload["count"] == 2
        assert "<world:C0>" not in [t["s"] for t in payload["results"]]
        assert engine.cache.stats()["stale_drops"] == 1

    def test_noop_mutation_keeps_cache_warm(self, engine):
        engine.lookup(predicate=BORN_IN)
        # Duplicate with no higher confidence: no state change, no bump.
        engine.add(Triple(Entity("world:P0"), BORN_IN, Entity("world:C0"), 0.1))
        engine.lookup(predicate=BORN_IN)
        assert engine.cache.stats()["hits"] == 1

    def test_unrelated_queries_recompute_at_new_version(self, engine):
        engine.lookup(predicate=BORN_IN)
        engine.add(Triple(Entity("world:C9"), LOCATED_IN, GERMANY, 0.5))
        payload = engine.lookup(predicate=BORN_IN)
        # Same triples, new version tag: still a recompute, not a stale hit.
        assert payload["kb_version"] == engine.store.version
        assert engine.cache.stats()["hits"] == 0


class TestWireParsing:
    def test_bare_identifiers(self):
        assert parse_term("world:A") == Entity("world:A")
        assert parse_term("rel:bornIn", "p") == Relation("rel:bornIn")

    def test_rdfio_syntax(self):
        assert parse_term("<world:A>") == Entity("world:A")
        assert parse_term("<<rel:x>>", "p") == Relation("rel:x")
        literal = parse_term('"Wien"@de', "o")
        assert literal.value == "Wien" and literal.lang == "de"

    def test_slots(self):
        assert parse_slot("?x") == Var("x")
        assert parse_slot("world:A") == Entity("world:A")

    def test_bad_inputs(self):
        with pytest.raises(BadRequest):
            parse_term("")
        with pytest.raises(BadRequest):
            parse_slot("?")
        with pytest.raises(BadRequest):
            parse_term('"unterminated')
        with pytest.raises(BadRequest):
            parse_patterns([["?x", "rel:p"]])
        with pytest.raises(BadRequest):
            parse_patterns("not a list")
        with pytest.raises(BadRequest):
            parse_patterns([])


class TestObsIntegration:
    def test_counters_and_latency_histograms(self, engine):
        engine.lookup(predicate=BORN_IN)
        engine.lookup(predicate=BORN_IN)
        engine.topk(2, predicate=BORN_IN)
        metrics = engine.metrics()
        endpoints = metrics["endpoints"]
        assert sorted(endpoints) == ["lookup", "topk"]
        assert endpoints["lookup"]["requests"] == 2
        assert endpoints["topk"]["requests"] == 1
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 2
        for endpoint in endpoints.values():
            latency = endpoint["latency_ms"]
            assert endpoint["requests"] == latency["count"]
            assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
            assert latency["p99"] <= latency["max"]

    def test_metrics_payload_always_on(self, engine):
        engine.lookup(predicate=BORN_IN)
        engine.lookup(predicate=BORN_IN)
        metrics = engine.metrics()
        assert metrics["cache"]["hits"] == 1
        endpoint = metrics["endpoints"]["lookup"]
        assert endpoint["requests"] == 2
        for field in ("count", "mean", "p50", "p95", "p99", "max"):
            assert field in endpoint["latency_ms"]


def _epochs_by_version(store: TripleStore, mutations) -> dict[int, str]:
    """Replay ``(method, argument)`` mutations on ``store``, which has
    already read its epoch, recording the epoch at every version."""
    store.epoch
    epochs = {store.version: store.epoch}
    for method, argument in mutations:
        getattr(store, method)(argument)
        epochs[store.version] = store.epoch
    return epochs


def _forbid_full_epoch_sum(monkeypatch, store: TripleStore) -> None:
    def full_sum():
        raise AssertionError("the store summed its whole epoch while served")

    monkeypatch.setattr(store, "_sum_epoch", full_sum)


class TestNeverReadStore:
    """Binding a store whose lazy epoch and indexes were never read: the
    engine materializes both under its lock, so no request (and no
    unlocked ``store.epoch`` read racing a writer) ever sums the store."""

    def test_bind_and_rebind_materialize(self):
        store = make_store()
        assert not store.engine.indexed and store._epoch_acc is None
        engine = QueryEngine(store)
        assert store.engine.indexed and store._epoch_acc is not None
        fresh = make_store()
        engine.rebind(fresh)
        assert fresh.engine.indexed and fresh._epoch_acc is not None

    def test_requests_and_writes_never_sum_the_store(self, monkeypatch):
        batches = [
            (
                "add_all",
                [Triple(Entity(f"world:Q{i}"), BORN_IN, Entity("world:C0"), 0.7)],
            )
            for i in range(40)
        ]
        expected = _epochs_by_version(make_store(), batches)
        store = make_store()
        engine = QueryEngine(store)
        _forbid_full_epoch_sum(monkeypatch, store)
        seen: list[tuple[int, str]] = []
        errors: list[BaseException] = []

        def writer():
            try:
                for __, batch in batches:
                    engine.add_all(batch)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                for __ in range(30):
                    for payload in (
                        engine.lookup(predicate=BORN_IN),
                        engine.query([Pattern(Var("x"), BORN_IN, Var("c"))]),
                        engine.topk(3, predicate=BORN_IN),
                        engine.metrics(),
                        engine.healthz(),
                    ):
                        seen.append((payload["kb_version"], payload["kb_epoch"]))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for __ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert seen
        for version, epoch in seen:
            assert expected[version] == epoch, version
        assert engine.epoch == expected[max(expected)]


class TestConcurrencyStress:
    """One writer mutating the store while 8 readers hammer the engine.

    Invariants checked per response: the reported ``kb_version`` is >= the
    store version observed when the request started (no stale reads), its
    ``kb_epoch`` is the epoch an eagerly hashed replay of the same writes
    has at that version, and a conjunctive join over an atomically-added
    triple *pair* binds either both variables or yields nothing (no torn
    bindings).  The store is bound never-read, and may not sum its epoch
    once served.
    """

    READERS = 8
    WRITES = 150
    READS_PER_READER = 250
    SEED = 1306
    COUNTRY = Entity("world:Atlantis")

    def _writes(self):
        """The writer's mutations in order, as ``(method, argument)``."""
        for i in range(self.WRITES):
            person = Entity(f"world:N{i}")
            city = Entity(f"world:NC{i}")
            # One atomic batch: readers must never see the person edge
            # without the city edge.
            yield "add_all", [
                Triple(person, BORN_IN, city, confidence=0.8),
                Triple(city, LOCATED_IN, self.COUNTRY, confidence=0.9),
            ]
            if i % 10 == 0:
                yield "remove", Triple(person, BORN_IN, city, 0.8)

    def test_writer_vs_readers(self, monkeypatch):
        expected_epochs = _epochs_by_version(make_store(), self._writes())
        store = make_store()
        assert not store.engine.indexed and store._epoch_acc is None
        engine = QueryEngine(store, cache_size=256)
        _forbid_full_epoch_sum(monkeypatch, store)
        country = self.COUNTRY
        identities: list[tuple[int, str]] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            try:
                for method, argument in self._writes():
                    getattr(engine, method)(argument)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                stop.set()

        def reader(reader_id: int):
            import random

            rng = random.Random(self.SEED + reader_id)
            try:
                for _ in range(self.READS_PER_READER):
                    started_at = engine.store.version
                    choice = rng.random()
                    if choice < 0.4:
                        i = rng.randrange(self.WRITES)
                        payload = engine.query(
                            [
                                Pattern(Entity(f"world:N{i}"), BORN_IN, Var("c")),
                                Pattern(Var("c"), LOCATED_IN, Var("k")),
                            ]
                        )
                        assert payload["count"] in (0, 1)
                        for binding in payload["bindings"]:
                            # No torn joins: both variables bound, and the
                            # country edge the writer added in the same
                            # atomic batch is the one joined.
                            assert set(binding) == {"c", "k"}
                            assert binding["k"] == "<world:Atlantis>"
                    elif choice < 0.7:
                        payload = engine.lookup(predicate=LOCATED_IN)
                        assert payload["count"] >= 3
                    else:
                        payload = engine.topk(5, predicate=BORN_IN)
                        assert payload["count"] >= 5
                    assert payload["kb_version"] >= started_at
                    identities.append((payload["kb_version"], payload["kb_epoch"]))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, name="stress-writer")]
        threads += [
            threading.Thread(target=reader, args=(i,), name=f"stress-reader-{i}")
            for i in range(self.READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert stop.is_set()
        # The cache survived the churn with sane accounting.
        stats = engine.cache.stats()
        assert stats["hits"] + stats["misses"] == sum(
            endpoint["requests"] for endpoint in engine.metrics()["endpoints"].values()
        )
        # Final state is consistent: every remaining person edge joins.
        final = engine.query(
            [
                Pattern(Var("x"), BORN_IN, Var("c")),
                Pattern(Var("c"), LOCATED_IN, country),
            ]
        )
        assert final["count"] == self.WRITES - (self.WRITES + 9) // 10
        for version, epoch in identities:
            assert expected_epochs[version] == epoch, version


class TestNegativeCaching:
    def test_empty_answer_is_cached_and_counted(self, engine):
        nobody = Entity("world:Nobody")
        first = engine.lookup(subject=nobody)
        assert first["count"] == 0
        stats = engine.cache.stats()
        assert stats["negative_entries"] == 1
        assert stats["negative_hits"] == 0
        second = engine.lookup(subject=nobody)
        assert second == first
        stats = engine.cache.stats()
        assert stats["negative_hits"] == 1
        assert stats["hits"] == 1

    def test_positive_entries_not_counted_negative(self, engine):
        engine.lookup(predicate=BORN_IN)
        engine.lookup(predicate=BORN_IN)
        stats = engine.cache.stats()
        assert stats["negative_entries"] == 0
        assert stats["negative_hits"] == 0
        assert stats["hits"] == 1

    def test_negative_entry_invalidated_by_write(self, engine):
        person = Entity("world:NewPerson")
        assert engine.lookup(subject=person)["count"] == 0
        engine.add(Triple(person, BORN_IN, Entity("world:C0"), confidence=0.7))
        after = engine.lookup(subject=person)
        assert after["count"] == 1
        stats = engine.cache.stats()
        # The stale negative entry was dropped, never served.
        assert stats["negative_hits"] == 0
        assert stats["stale_drops"] >= 1

    def test_raw_cache_negative_flag(self):
        cache = VersionedLRUCache(4)
        cache.put("k", "e", 1, {"count": 0}, negative=True)
        cache.put("p", "e", 1, {"count": 3})
        assert cache.get("k", "e", 1) == {"count": 0}
        assert cache.get("p", "e", 1) == {"count": 3}
        stats = cache.stats()
        assert stats["negative_entries"] == 1
        assert stats["negative_hits"] == 1
        assert stats["hits"] == 2

    def test_negative_hits_counted_in_metrics(self, engine):
        nobody = Entity("world:Nobody")
        engine.lookup(subject=nobody)
        engine.lookup(subject=nobody)
        metrics = engine.metrics()
        assert metrics["cache"]["negative_hits"] == 1
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["endpoints"]["lookup"]["requests"] == 2
