"""Tests for repro.serving: engine correctness, cache accounting, and
concurrent cold reads of one frozen KB."""

import json
import random
import sys
import threading

import pytest

from repro.kb import (
    Entity,
    Pattern,
    Query,
    Relation,
    Triple,
    TripleStore,
    Var,
    open_snapshot,
    write_segments,
)
from repro.kb.rdfio import term_to_text
from repro.serving import (
    MISS,
    BadRequest,
    QueryEngine,
    ResultCache,
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
        cache = ResultCache(capacity=4)
        assert cache.get("k") is MISS
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}


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

    def test_metrics_cache_key_set(self, engine):
        assert sorted(engine.lookup(predicate=BORN_IN)) == [
            "count", "kb_epoch", "triples",
        ]
        assert sorted(engine.topk(2, predicate=BORN_IN)) == [
            "count", "k", "kb_epoch", "results",
        ]
        assert sorted(
            engine.query([Pattern(Var("x"), BORN_IN, Var("c"))])
        ) == ["bindings", "count", "kb_epoch", "vars"]
        assert sorted(engine.healthz()) == ["kb_epoch", "status", "triples"]
        assert sorted(engine.metrics()) == [
            "cache", "endpoints", "kb_epoch", "triples",
        ]
        assert sorted(engine.metrics()["cache"]) == [
            "capacity",
            "evictions",
            "hit_rate",
            "hits",
            "misses",
            "negative_entries",
            "negative_hits",
            "size",
        ]


class TestConcurrencyStress:
    """8 threads cold-read one engine over a store that nobody has read.

    The store's lazy indexes are built by whichever first readers get
    there, each an identical copy; its epoch is summed once, when the
    engine is built.  Every response must be byte-identical to a
    1-thread replay, and so must every response of 8 more threads over
    the store's snapshot twin.
    """

    READERS = 8
    PEOPLE = 60
    CITIES = 12
    SEED = 1306

    def _store(self) -> TripleStore:
        triples = [
            Triple(
                Entity(f"world:N{i}"),
                BORN_IN,
                Entity(f"world:NC{i % self.CITIES}"),
                confidence=0.5 + 0.05 * (i % 7),
            )
            for i in range(self.PEOPLE)
        ]
        triples += [
            Triple(Entity(f"world:NC{c}"), LOCATED_IN, Entity(f"world:K{c % 3}"), 0.9)
            for c in range(self.CITIES)
        ]
        return TripleStore(triples)

    def _requests(self):
        """Every request once, as ``(name, call)``."""
        requests = [("healthz", lambda e: e.healthz())]
        for i in range(0, self.PEOPLE, 3):
            person = Entity(f"world:N{i}")
            requests.append((f"s{i}", lambda e, s=person: e.lookup(subject=s)))
            requests.append(
                (
                    f"q{i}",
                    lambda e, s=person: e.query(
                        [
                            Pattern(s, BORN_IN, Var("c")),
                            Pattern(Var("c"), LOCATED_IN, Var("k")),
                        ]
                    ),
                )
            )
        for c in range(self.CITIES):
            city = Entity(f"world:NC{c}")
            requests.append((f"o{c}", lambda e, o=city: e.lookup(obj=o)))
            requests.append(
                (f"t{c}", lambda e, o=city: e.topk(3, predicate=BORN_IN, obj=o))
            )
        requests.append(("p", lambda e: e.lookup(predicate=LOCATED_IN)))
        return requests

    def _cold_read(self, engine) -> list[tuple[str, str]]:
        """Run every request from READERS threads, each in its own order."""
        requests = self._requests()
        responses: list[tuple[str, str]] = []
        errors: list[BaseException] = []

        def reader(reader_id: int):
            order = list(requests)
            random.Random(self.SEED + reader_id).shuffle(order)
            try:
                for name, call in order:
                    responses.append((name, dumps(call(engine))))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=reader, args=(i,), name=f"cold-reader-{i}")
            for i in range(self.READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(responses) == self.READERS * len(requests)
        return responses

    def test_cold_readers_match_one_thread_replay(self, monkeypatch, tmp_path):
        reference_engine = QueryEngine(self._store())
        reference = {
            name: dumps(call(reference_engine)) for name, call in self._requests()
        }

        store = self._store()
        sums: list[str] = []
        sum_epoch = store._sum_epoch

        def counted_sum():
            sums.append(threading.current_thread().name)
            return sum_epoch()

        monkeypatch.setattr(store, "_sum_epoch", counted_sum)
        assert not store._indexed and store._epoch_acc is None
        engine = QueryEngine(store)
        assert sums == [threading.current_thread().name]
        assert not store._indexed
        for name, body in self._cold_read(engine):
            assert body == reference[name], name
        assert store._indexed
        assert len(sums) == 1

        directory = str(tmp_path / "seg")
        write_segments(self._store(), directory)
        with open_snapshot(directory) as snapshot:
            for name, body in self._cold_read(QueryEngine(snapshot)):
                assert body == reference[name], name


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

    def test_raw_cache_negative_flag(self):
        cache = ResultCache(4)
        cache.put("k", {"count": 0}, negative=True)
        cache.put("p", {"count": 3})
        assert cache.get("k") == {"count": 0}
        assert cache.get("p") == {"count": 3}
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
