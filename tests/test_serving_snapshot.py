"""Serving over segment snapshots: byte-identity with the in-memory
engine, the read-only engine API, concurrent cache misses, and the store
identity that tells two equal-size stores apart."""

import json
import threading

import pytest

from repro.kb import (
    Entity,
    Relation,
    Triple,
    TripleStore,
    open_snapshot,
    write_segments,
)
from repro.serving import QueryEngine

BORN_IN = Relation("rel:bornIn")
LOCATED_IN = Relation("rel:locatedIn")
GERMANY = Entity("world:Germany")


def make_store() -> TripleStore:
    triples = []
    for i in range(6):
        triples.append(
            Triple(
                Entity(f"world:P{i}"),
                BORN_IN,
                Entity(f"world:C{i % 3}"),
                confidence=0.5 + 0.08 * i,
            )
        )
    for c in range(3):
        triples.append(
            Triple(Entity(f"world:C{c}"), LOCATED_IN, GERMANY, confidence=0.9)
        )
    return TripleStore(triples)


def dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture
def snapshot(tmp_path):
    directory = str(tmp_path / "seg")
    write_segments(make_store(), directory)
    snap = open_snapshot(directory)
    yield snap
    snap.close()


class TestByteIdentity:
    def test_every_endpoint_matches_in_memory_engine(self, snapshot):
        # The in-memory twin is loaded *from the snapshot* so both sides
        # share content and epoch — responses must be byte-equal.
        memory = QueryEngine(TripleStore(snapshot))
        snapped = QueryEngine(snapshot)
        calls = [
            lambda e: e.lookup(predicate=BORN_IN),
            lambda e: e.lookup(subject=Entity("world:P1")),
            lambda e: e.lookup(obj=GERMANY),
            lambda e: e.lookup(subject=Entity("world:C1"), obj=GERMANY),
            lambda e: e.lookup(),
            lambda e: e.topk(3, predicate=BORN_IN),
            lambda e: e.query_json(
                {"patterns": [["?x", "<<rel:bornIn>>", "?c"],
                              ["?c", "<<rel:locatedIn>>", "?r"]]}
            ),
            lambda e: e.healthz(),
        ]
        for call in calls:
            assert dumps(call(memory)) == dumps(call(snapped))

    def test_cold_vs_warm_snapshot_byte_identical(self, snapshot):
        engine = QueryEngine(snapshot)
        cold = dumps(engine.lookup(predicate=BORN_IN))
        warm = dumps(engine.lookup(predicate=BORN_IN))
        assert cold == warm
        assert engine.cache.stats()["hits"] == 1


class TestImmutableServing:
    def test_writes_rejected(self, snapshot):
        engine = QueryEngine(snapshot)
        triple = Triple(Entity("world:X"), BORN_IN, Entity("world:C0"))
        for name in ("add", "add_all", "remove", "mutate"):
            with pytest.raises(AttributeError):
                getattr(engine, name)(triple)

    def test_cache_miss_does_not_take_engine_lock(self, snapshot, monkeypatch):
        """A miss must complete while another thread's miss is still
        computing: cold reads never queue behind one another."""
        engine = QueryEngine(snapshot)
        entered = threading.Event()
        release = threading.Event()
        match = snapshot.match

        def slow_match(subject=None, predicate=None, obj=None):
            if predicate == LOCATED_IN:
                entered.set()
                release.wait(timeout=10)
            return match(subject, predicate, obj)

        monkeypatch.setattr(snapshot, "match", slow_match)
        hogger = threading.Thread(
            target=lambda: engine.lookup(predicate=LOCATED_IN)
        )
        hogger.start()
        assert entered.wait(timeout=5)
        done = threading.Event()
        result = {}

        def read():
            result["payload"] = engine.lookup(predicate=BORN_IN)
            done.set()

        reader = threading.Thread(target=read)
        reader.start()
        # The reader must finish while the other miss is still computing.
        assert done.wait(timeout=5), "a cache miss waited for another miss"
        release.set()
        hogger.join(timeout=10)
        reader.join(timeout=10)
        assert not hogger.is_alive() and not reader.is_alive()
        assert result["payload"]["count"] == 6


class TestRebindStaleness:
    """Two different stores of the same size: only the epoch tells them
    apart, so it is what every response carries."""

    A, B, C = Entity("w:a"), Entity("w:b"), Entity("w:c")
    KNOWS = Relation("w:knows")

    def _equal_size_stores(self):
        t1 = Triple(self.A, self.KNOWS, self.B)
        t2 = Triple(self.B, self.KNOWS, self.C)
        t3 = Triple(self.A, self.KNOWS, self.C)
        t4 = Triple(self.C, self.KNOWS, self.A)
        first = TripleStore([t1, t2, t3])
        second = TripleStore([t1, t2, t4])
        return first, second

    def test_equal_size_stores_carry_different_epochs(self):
        first, second = self._equal_size_stores()
        assert len(first) == len(second) == 3
        assert first.epoch != second.epoch
        first_health = QueryEngine(first).healthz()
        second_health = QueryEngine(second).healthz()
        assert first_health["triples"] == second_health["triples"]
        assert first_health["kb_epoch"] != second_health["kb_epoch"]
