"""E18 — KB serving under zipf-skewed concurrent read workloads.

Benchmarks the serving layer the way a production service is judged:
N reader threads replay a pinned-seed workload of 10k/100k requests
(SPO lookups, top-k, and 2-pattern conjunctive joins) whose target
entities are zipf-distributed — a few hot entities dominate, as web
query logs do — so the engine's LRU result cache is load-bearing:
its capacity is set *below* the number of distinct request keys, and only
the skew keeps the hit rate high.  Reported per configuration: throughput,
p50/p99 latency (from :class:`~repro.obs.core.Histogram` buckets, so
within 1% of the exact sample), and cache hit rate, all emitted into
``--benchmark-json`` via ``extra_info``.

Also asserts the serving acceptance invariant: the same request set
returns byte-identical JSON across cold cache, warm cache, and 1-vs-8
reader threads.

``REPRO_E18_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import threading
import time

import pytest

from repro.eval import print_table
from repro.kb import Entity, Pattern, Relation, TripleStore, Var
from repro.obs.core import Histogram
from repro.serving import QueryEngine

SEED = 181
ZIPF_EXPONENT = 1.1
#: Deliberately smaller than the distinct-key universe (~2x people +
#: relations): an unskewed workload would thrash, only the zipf head fits.
CACHE_CAPACITY = 256

BORN_IN = Relation("rel:bornIn")
LOCATED_IN = Relation("rel:locatedIn")

_SMOKE = bool(os.environ.get("REPRO_E18_SMOKE"))
WORKLOAD_SIZES = (2_000,) if _SMOKE else (10_000, 100_000)
READER_COUNTS = (1, 8)


def _zipf_cumulative(n: int) -> list[float]:
    weights, total = [], 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank**ZIPF_EXPONENT
        weights.append(total)
    return weights


def _build_workload(store: TripleStore, n_queries: int) -> list[tuple]:
    """A pinned-seed request list: (kind, args) tuples, zipf over entities."""
    people = sorted(
        {t.subject for t in store.match(None, BORN_IN, None)}, key=lambda e: e.id
    )
    relations = sorted(store.predicates(), key=lambda r: r.id)
    rng = random.Random(SEED)
    people_cum = _zipf_cumulative(len(people))
    relations_cum = _zipf_cumulative(len(relations))

    def zipf_pick(items, cumulative):
        return items[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]

    ops = []
    for _ in range(n_queries):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("lookup", zipf_pick(people, people_cum)))
        elif roll < 0.80:
            ops.append(("topk", zipf_pick(relations, relations_cum)))
        else:
            ops.append(("join", zipf_pick(people, people_cum)))
    return ops


def _execute(engine: QueryEngine, op: tuple) -> dict:
    kind, target = op
    if kind == "lookup":
        return engine.lookup(subject=target)
    if kind == "topk":
        return engine.topk(10, predicate=target)
    return engine.query(
        [
            Pattern(target, BORN_IN, Var("c")),
            Pattern(Var("c"), LOCATED_IN, Var("k")),
        ]
    )


def _run_workload(engine: QueryEngine, ops: list[tuple], readers: int) -> dict:
    """Replay ``ops`` over ``readers`` threads; return latency/digest stats.

    Thread t executes ops[t::readers]; per-request digests land in an
    op-indexed array so the response byte-stream can be compared across
    reader counts regardless of interleaving.
    """
    latencies: list[list[float]] = [[] for _ in range(readers)]
    digests: list[bytes] = [b""] * len(ops)
    before = engine.cache.stats()

    def reader(thread_index: int) -> None:
        times = latencies[thread_index]
        for op_index in range(thread_index, len(ops), readers):
            t0 = time.perf_counter()
            payload = _execute(engine, ops[op_index])
            times.append(time.perf_counter() - t0)
            digests[op_index] = hashlib.blake2b(
                json.dumps(payload, sort_keys=True).encode(), digest_size=16
            ).digest()

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"e18-reader-{i}")
        for i in range(readers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    after = engine.cache.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    histogram = Histogram("e18")
    for series in latencies:
        for latency in series:
            histogram.observe(latency)
    return {
        "queries": len(ops),
        "readers": readers,
        "elapsed_s": elapsed,
        "throughput_qps": len(ops) / elapsed if elapsed else 0.0,
        "p50_ms": histogram.p50 * 1000.0,
        "p99_ms": histogram.p99 * 1000.0,
        "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        "digests": digests,
    }


@pytest.mark.benchmark(group="e18")
def test_e18_serving_throughput_zipf(benchmark, bench_world):
    store = TripleStore(bench_world.facts)
    runs = []
    digest_sets: dict[int, list[bytes]] = {}
    warm_digests: dict[int, list[bytes]] = {}
    for n_queries in WORKLOAD_SIZES:
        ops = _build_workload(store, n_queries)
        for readers in READER_COUNTS:
            engine = QueryEngine(store, cache_size=CACHE_CAPACITY)
            cold = _run_workload(engine, ops, readers)
            if readers == max(READER_COUNTS):
                warm = _run_workload(engine, ops, readers)
                warm_digests[n_queries] = warm.pop("digests")
            digests = cold.pop("digests")
            if n_queries in digest_sets:
                # 1-vs-N readers: byte-identical response streams.
                assert digests == digest_sets[n_queries]
            else:
                digest_sets[n_queries] = digests
            runs.append(cold)

    # Cold vs warm cache: byte-identical response streams.
    for n_queries, digests in warm_digests.items():
        assert digests == digest_sets[n_queries]

    # The zipf skew keeps the undersized cache load-bearing.
    for run in runs:
        assert run["hit_rate"] > 0.5, run

    # The timed benchmark: the smallest workload at full reader fan-out.
    bench_ops = _build_workload(store, WORKLOAD_SIZES[0])

    def serve_once():
        engine = QueryEngine(store, cache_size=CACHE_CAPACITY)
        return _run_workload(engine, bench_ops, max(READER_COUNTS))

    benchmark(serve_once)

    print_table(
        "E18: serving throughput under zipf-skewed concurrent readers "
        f"(cache capacity {CACHE_CAPACITY})",
        ["queries", "readers", "qps", "p50 ms", "p99 ms", "hit rate"],
        [
            [
                run["queries"],
                run["readers"],
                round(run["throughput_qps"]),
                round(run["p50_ms"], 4),
                round(run["p99_ms"], 4),
                round(run["hit_rate"], 3),
            ]
            for run in runs
        ],
    )
    benchmark.extra_info["workloads"] = [
        {key: value for key, value in run.items() if key != "digests"}
        for run in runs
    ]
    benchmark.extra_info["cache_capacity"] = CACHE_CAPACITY
    benchmark.extra_info["zipf_exponent"] = ZIPF_EXPONENT
    benchmark.extra_info["byte_identical_across_readers"] = True
    benchmark.extra_info["byte_identical_cold_vs_warm"] = True


@pytest.mark.benchmark(group="e18")
def test_e18_cache_ablation_zipf_vs_uniform(benchmark, bench_world):
    """The skew is what makes the cache work: a uniform workload over the
    same entities on the same undersized cache hits far less often."""
    store = TripleStore(bench_world.facts)
    n_queries = WORKLOAD_SIZES[0]
    zipf_ops = _build_workload(store, n_queries)

    people = sorted(
        {t.subject for t in store.match(None, BORN_IN, None)}, key=lambda e: e.id
    )
    rng = random.Random(SEED + 1)
    uniform_ops = [("lookup", rng.choice(people)) for _ in range(n_queries)]

    def hit_rate(ops):
        engine = QueryEngine(store, cache_size=64)
        return _run_workload(engine, ops, 4)["hit_rate"]

    zipf_rate = hit_rate(zipf_ops)
    uniform_rate = hit_rate(uniform_ops)
    print_table(
        "E18b: hit rate, zipf vs uniform workload (cache capacity 64)",
        ["workload", "hit rate"],
        [["zipf", round(zipf_rate, 3)], ["uniform", round(uniform_rate, 3)]],
    )
    assert zipf_rate > uniform_rate
    benchmark.extra_info["zipf_hit_rate"] = zipf_rate
    benchmark.extra_info["uniform_hit_rate"] = uniform_rate
    benchmark(lambda: hit_rate(zipf_ops))
