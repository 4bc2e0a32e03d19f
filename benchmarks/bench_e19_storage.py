"""E19 — persistent segment storage: build at scale, reopen cold, serve.

Benchmarks the on-disk storage engine the way a KB deployment is judged:

* **build** — emit the sorted-segment files for a store ~10x the unit-test
  world, under a tracemalloc watch, reporting write time, bytes/triple,
  and peak build memory;
* **reopen** — open a cold snapshot (header validation + mmap + bloom
  load, no record scan) and time it;
* **serve cold vs warm** — per-request latency of a snapshot-backed
  engine answering straight off disk (cold file cache for the first
  touch of each page) against an in-memory ``TripleStore`` twin, with
  the acceptance invariant asserted: both engines return byte-identical
  JSON for the same request stream.  Its p50/p99 come from
  :class:`~repro.obs.core.Histogram` buckets, within 1% of the exact
  sample.

Also asserts byte-pinning end to end: two independent segment builds of
the same store produce byte-identical directories
(``diff_segment_dirs == []``).

``REPRO_E19_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

import pytest

from repro import obs
from repro.eval import print_table
from repro.kb import TripleStore, diff_segment_dirs, open_snapshot, write_segments
from repro.obs.core import Histogram
from repro.serving import QueryEngine

SEED = 191
_SMOKE = bool(os.environ.get("REPRO_E19_SMOKE"))
#: Requests replayed against each engine in the latency comparison.
N_REQUESTS = 500 if _SMOKE else 5_000


def _segment_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def _build_requests(store: TripleStore, n: int) -> list[tuple]:
    """A pinned request stream: subject lookups, predicate top-k."""
    import random

    subjects = sorted({t.subject for t in store}, key=lambda e: repr(e))
    predicates = sorted(store.predicates(), key=lambda r: repr(r))
    rng = random.Random(SEED)
    ops = []
    for _ in range(n):
        if rng.random() < 0.7:
            ops.append(("lookup", rng.choice(subjects)))
        else:
            ops.append(("topk", rng.choice(predicates)))
    return ops


def _replay(engine: QueryEngine, ops: list[tuple]) -> tuple[Histogram, list[str]]:
    histogram = Histogram("e19")
    digests = []
    for kind, target in ops:
        t0 = time.perf_counter()
        if kind == "lookup":
            payload = engine.lookup(subject=target)
        else:
            payload = engine.topk(10, predicate=target)
        histogram.observe(time.perf_counter() - t0)
        digests.append(json.dumps(payload, sort_keys=True))
    return histogram, digests


def _bloom_stats(snap, ops: list[tuple]) -> dict[str, float]:
    """Snapshot probes and bloom skips over one untimed replay of ``ops``,
    read from the ``repro.obs`` registry (off during the timed replays)."""
    obs.reset()
    obs.enable()
    try:
        _replay(QueryEngine(snap, cache_size=1), ops)
        counters = obs.core.counters()
    finally:
        obs.disable()
        obs.reset()
    return {
        "probes": sum(
            value for name, value in counters.items()
            if name.startswith("kb.segments.match.shape.")
        ),
        "bloom_skips": counters.get("kb.segments.bloom_skips", 0),
    }


def _build_store(bench_world) -> TripleStore:
    """The build workload: ~10x the unit-test KB (smoke keeps it small)."""
    if _SMOKE:
        return TripleStore(bench_world.facts)
    from repro.world import WorldConfig, generate_world

    world = generate_world(
        WorldConfig(
            seed=SEED,
            n_people=1_500,
            n_cities=100,
            n_countries=12,
            n_companies=60,
            n_universities=30,
        )
    )
    return TripleStore(world.facts)


@pytest.mark.benchmark(group="e19")
def test_e19_segment_build_and_reopen(benchmark, bench_world, tmp_path):
    store = _build_store(bench_world)
    left, right = str(tmp_path / "left"), str(tmp_path / "right")

    tracemalloc.start()
    t0 = time.perf_counter()
    write_segments(store, left)
    write_s = time.perf_counter() - t0
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    write_segments(store, right)
    assert diff_segment_dirs(left, right) == []

    t0 = time.perf_counter()
    snap = open_snapshot(left)
    open_s = time.perf_counter() - t0
    assert len(snap) == len(store)
    assert snap.epoch == store.epoch
    snap.close()

    total_bytes = _segment_bytes(left)
    print_table(
        "E19: segment build and cold reopen",
        ["triples", "write s", "open ms", "MiB on disk", "bytes/triple",
         "peak build MiB"],
        [[
            len(store),
            round(write_s, 3),
            round(open_s * 1000.0, 3),
            round(total_bytes / 2**20, 2),
            round(total_bytes / len(store)),
            round(peak / 2**20, 2),
        ]],
    )
    benchmark.extra_info["triples"] = len(store)
    benchmark.extra_info["write_s"] = write_s
    benchmark.extra_info["open_s"] = open_s
    benchmark.extra_info["disk_bytes"] = total_bytes
    benchmark.extra_info["bytes_per_triple"] = total_bytes / len(store)
    benchmark.extra_info["peak_build_bytes"] = peak
    benchmark.extra_info["byte_identical_builds"] = True

    def build_once():
        write_segments(store, str(tmp_path / "bench"))

    benchmark(build_once)


@pytest.mark.benchmark(group="e19")
def test_e19_cold_vs_warm_serving(benchmark, bench_world, tmp_path):
    store = TripleStore(bench_world.facts)
    directory = str(tmp_path / "seg")
    write_segments(store, directory)
    ops = _build_requests(store, N_REQUESTS)

    snap = open_snapshot(directory)
    # The in-memory twin is loaded from the snapshot so both engines
    # share content and epoch — responses must be byte-equal.
    warm_store = TripleStore(snap)

    cold_engine = QueryEngine(snap, cache_size=1)  # effectively uncached
    warm_engine = QueryEngine(warm_store, cache_size=1)
    cold_hist, cold_digests = _replay(cold_engine, ops)
    warm_hist, warm_digests = _replay(warm_engine, ops)
    assert cold_digests == warm_digests  # byte-identical serving

    # A second snapshot pass shows the mmap page cache warming up.
    second_hist, _ = _replay(QueryEngine(snap, cache_size=1), ops)

    rows = [
        ["snapshot (cold)", round(cold_hist.p50 * 1e6, 1), round(cold_hist.p99 * 1e6, 1)],
        ["snapshot (2nd pass)", round(second_hist.p50 * 1e6, 1), round(second_hist.p99 * 1e6, 1)],
        ["in-memory", round(warm_hist.p50 * 1e6, 1), round(warm_hist.p99 * 1e6, 1)],
    ]
    print_table(
        f"E19: per-request latency, snapshot vs in-memory ({N_REQUESTS} requests)",
        ["engine", "p50 µs", "p99 µs"],
        rows,
    )
    benchmark.extra_info["requests"] = N_REQUESTS
    benchmark.extra_info["cold_p50_us"] = cold_hist.p50 * 1e6
    benchmark.extra_info["cold_p99_us"] = cold_hist.p99 * 1e6
    benchmark.extra_info["second_pass_p50_us"] = second_hist.p50 * 1e6
    benchmark.extra_info["second_pass_p99_us"] = second_hist.p99 * 1e6
    benchmark.extra_info["warm_p50_us"] = warm_hist.p50 * 1e6
    benchmark.extra_info["warm_p99_us"] = warm_hist.p99 * 1e6
    benchmark.extra_info["bloom_stats"] = _bloom_stats(snap, ops)
    benchmark.extra_info["byte_identical_cold_vs_warm"] = True

    benchmark(lambda: _replay(QueryEngine(snap, cache_size=1), ops[:200]))
    snap.close()
