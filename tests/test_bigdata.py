"""Tests for repro.bigdata (map-reduce, PrefixSpan, MinHash/LSH)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bigdata import (
    MapReduce,
    MinHasher,
    closed_sequences,
    frequent_sequences,
    jaccard,
    lsh_candidate_pairs,
    shingles,
    word_count,
)


class TestMapReduce:
    def test_word_count(self):
        counts, stats = word_count(["a b a", "b c"], shards=2)
        assert counts == {"a": 2, "b": 2, "c": 1}
        assert stats.map_input_records == 2
        assert stats.map_output_records == 5
        assert stats.reduce_groups == 3

    def test_combiner_reduces_shuffle(self):
        documents = ["a a a a a a"] * 10
        __, with_combiner = word_count(documents, shards=2)
        engine: MapReduce = MapReduce(shards=2)

        def mapper(doc):
            for word in doc.split():
                yield word, 1

        def reducer(word, counts):
            yield word, sum(counts)

        __, without_combiner = engine.run(documents, mapper, reducer)
        assert with_combiner.shuffled_records < without_combiner.shuffled_records

    def test_deterministic_output_order(self):
        first, __ = word_count(["z y x w v"], shards=4)
        second, __ = word_count(["z y x w v"], shards=4)
        assert list(first.items()) == list(second.items())

    def test_shard_assignment_is_pinned(self):
        # Shard routing must be identical in every process (stable_hash,
        # never builtin hash), so the key->shard mapping is a contract.
        # These values were computed once and must never drift.
        from repro.determinism.stable import stable_hash

        expected_mod4 = {
            "alpha": 2, "beta": 3, "gamma": 2, "delta": 1, "epsilon": 2,
        }
        expected_mod7 = {
            "alpha": 4, "beta": 3, "gamma": 0, "delta": 0, "epsilon": 1,
        }
        for key, shard in expected_mod4.items():
            assert stable_hash(repr(key)) % 4 == shard
        for key, shard in expected_mod7.items():
            assert stable_hash(repr(key)) % 7 == shard

    def test_shard_routing_matches_stable_hash(self):
        # The engine must route a key to stable_hash(repr(key)) % shards —
        # the exact rule the pinned mapping above freezes.
        from repro.determinism.stable import stable_hash

        engine: MapReduce = MapReduce(shards=4)

        def mapper(word):
            yield word, 1

        def reducer(word, counts):
            yield word, sum(counts)

        keys = ["alpha", "beta", "gamma", "delta", "epsilon"]
        __, stats = engine.run(keys, mapper, reducer)
        expected_per_shard = [0, 0, 0, 0]
        for key in keys:
            expected_per_shard[stable_hash(repr(key)) % 4] += 1
        assert stats.records_per_shard == expected_per_shard

    def test_records_per_shard_accounting(self):
        __, stats = word_count(["a b c d e f g h"], shards=4)
        assert len(stats.records_per_shard) == 4
        assert sum(stats.records_per_shard) == stats.shuffled_records
        assert stats.skew >= 1.0

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            MapReduce(shards=0)

    def test_empty_input(self):
        counts, stats = word_count([], shards=2)
        assert counts == {}
        assert stats.map_input_records == 0

    def test_empty_input_stats_are_well_defined(self):
        """Regression: a 0-record job must yield complete, finite JobStats."""
        engine: MapReduce = MapReduce(shards=3)

        def mapper(record):
            yield record, 1

        def reducer(key, values):
            yield key, sum(values)

        results, stats = engine.run([], mapper, reducer)
        assert results == []
        assert stats.shards == 3
        assert stats.records_per_shard == [0, 0, 0]
        assert stats.map_output_records == 0
        assert stats.shuffled_records == 0
        assert stats.shuffled_bytes == 0
        assert stats.reduce_groups == 0
        assert stats.skew == 1.0  # no division by zero on an empty job

    def test_default_constructed_jobstats_skew(self):
        from repro.bigdata.mapreduce import JobStats

        assert JobStats().skew == 1.0
        assert JobStats(records_per_shard=[0, 0]).skew == 1.0
        assert JobStats(records_per_shard=[2, 6]).skew == 1.5


# ------------------------------------------------------- execution backends

# Module-level so the process backend can resolve them by reference.
def _square(x):
    return x * x


def _wc_mapper(doc):
    for word in doc.split():
        yield word, 1


def _wc_reducer(word, counts):
    yield word, sum(counts)


def _traced_mapper(doc):
    from repro import obs

    with obs.span("test.map") as tracing:
        pairs = [(word, 1) for word in doc.split()]
        tracing.add("pairs", len(pairs))
    return pairs


def _boom_initializer():
    raise AssertionError("initializer must not run for an empty task list")


_MARKER = None


def _set_marker(marker):
    global _MARKER
    _MARKER = marker


def _read_marker(__):
    return _MARKER


def _sleepy(seconds):
    """A traced task long enough that an idle worker always picks up the
    next one."""
    import time

    from repro import obs

    with obs.span("test.sleep"):
        time.sleep(seconds)
    return seconds


class TestExecutionBackends:
    DOCS = ["a b a c", "b c d", "d d a", "e", "a b c d e f"]

    def _backends(self):
        from repro.bigdata.backends import ProcessBackend, SerialBackend

        return [SerialBackend(), ProcessBackend(2)]

    def test_chunked_partitions_in_order(self):
        from repro.bigdata.backends import chunked

        assert chunked([], 4) == []
        assert chunked([1, 2], 5) == [[1], [2]]
        batches = chunked(list(range(10)), 3)
        assert batches == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [x for batch in batches for x in batch] == list(range(10))

    def test_map_returns_results_in_task_order(self):
        tasks = list(range(20))
        expected = [x * x for x in tasks]
        for backend in self._backends():
            with backend:
                assert backend.map(_square, tasks) == expected

    def test_get_backend_resolution(self):
        from repro.bigdata.backends import (
            ProcessBackend,
            SerialBackend,
            get_backend,
        )

        assert isinstance(get_backend(0), SerialBackend)
        assert isinstance(get_backend(1), SerialBackend)
        pool = get_backend(4)
        assert isinstance(pool, ProcessBackend)
        assert pool.workers == 4
        with pytest.raises(ValueError):
            ProcessBackend(-1)

    def test_mapreduce_identical_across_backends(self):
        serial_engine: MapReduce = MapReduce(shards=3)
        reference, ref_stats = serial_engine.run(
            self.DOCS, _wc_mapper, _wc_reducer
        )
        for backend in self._backends():
            with backend:
                engine: MapReduce = MapReduce(shards=3, backend=backend)
                results, stats = engine.run(self.DOCS, _wc_mapper, _wc_reducer)
            assert results == reference
            assert stats == ref_stats

    def test_worker_telemetry_merged_into_parent(self):
        from repro import obs
        from repro.bigdata.backends import ProcessBackend

        obs.reset()
        obs.enable()
        try:
            with ProcessBackend(2) as backend:
                engine: MapReduce = MapReduce(shards=2, backend=backend)
                engine.run(self.DOCS, _traced_mapper, _wc_reducer)
            stages = obs.stage_breakdown()
        finally:
            obs.disable()
            obs.reset()
        worker_stages = [s for s in stages if "worker[" in s["stage"]]
        assert worker_stages, "worker spans did not reach the parent trace"
        total_pairs = sum(
            s["counters"].get("pairs", 0)
            for s in stages
            if s["stage"].endswith("test.map")
        )
        assert total_pairs == sum(len(doc.split()) for doc in self.DOCS)


class TestBackendWorkerCounts:
    """Regression: explicit worker counts must be honored exactly.

    An explicit process count N >= 1 always wins; ``get_backend`` maps
    ``workers <= 1`` to the in-process backend.
    """

    def test_explicit_one_worker_is_one_worker(self):
        from repro.bigdata.backends import ProcessBackend, get_backend

        assert get_backend(1).workers == 1
        assert ProcessBackend(1).workers == 1

    def test_explicit_counts_honored_for_every_backend(self):
        from repro.bigdata.backends import ProcessBackend, get_backend

        for n in (1, 2, 3, 5):
            assert ProcessBackend(n).workers == n
        for n in (2, 3, 5):
            assert get_backend(n).workers == n

    def test_zero_workers_means_backend_default(self):
        import os

        from repro.bigdata.backends import ProcessBackend, get_backend

        assert get_backend(0).workers == 1
        assert ProcessBackend().workers == (os.cpu_count() or 1)

    def test_negative_workers_rejected(self):
        from repro.bigdata.backends import get_backend

        with pytest.raises(ValueError):
            get_backend(-1)


class TestEmptyInputParity:
    """All backends agree on empty input: [] back, no initializer run."""

    def test_empty_map_returns_empty_without_initializer(self):
        from repro.bigdata.backends import ProcessBackend, SerialBackend

        for backend in (SerialBackend(), ProcessBackend(2)):
            with backend:
                assert backend.map(
                    _square, [], initializer=_boom_initializer
                ) == []
            # Pooled backends must not even spin a pool up for no work.
            assert backend.spinups == 0


class TestPoolPersistence:
    def test_pool_reused_across_maps(self):
        from repro.bigdata.backends import ProcessBackend

        backend = ProcessBackend(2)
        try:
            assert (backend.spinups, backend.reuses) == (0, 0)
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert (backend.spinups, backend.reuses) == (1, 0)
            assert backend.map(_square, [4, 5]) == [16, 25]
            assert (backend.spinups, backend.reuses) == (1, 1)
        finally:
            backend.close()

    def test_close_then_map_respins(self):
        from repro.bigdata.backends import ProcessBackend

        backend = ProcessBackend(2)
        try:
            backend.map(_square, [1])
            backend.close()
            assert backend.map(_square, [2, 3]) == [4, 9]
            assert backend.spinups == 2
        finally:
            backend.close()

    def test_context_manager_closes_pool(self):
        from repro.bigdata.backends import ProcessBackend

        with ProcessBackend(2) as backend:
            backend.map(_square, [1, 2])
            assert backend._pool is not None
        assert backend._pool is None

    def test_initializer_delivered_per_call_on_persistent_process_pool(self):
        from repro.bigdata.backends import ProcessBackend

        with ProcessBackend(2) as backend:
            first = backend.map(_read_marker, [1, 2, 3],
                                initializer=_set_marker, initargs=("first",))
            second = backend.map(_read_marker, [4, 5, 6],
                                 initializer=_set_marker, initargs=("second",))
            assert backend.spinups == 1
        # The pool persisted across calls, yet each call's initializer
        # reached every worker before that call's tasks ran.
        assert first == ["first"] * 3
        assert second == ["second"] * 3


class TestWorkerTelemetryGrouping:
    DOCS = ["a b a c", "b c d", "d d a", "e", "a b c d e f",
            "f g", "g h i", "i", "j k", "k l m n"]

    def test_one_wrapper_span_per_worker(self):
        from repro import obs
        from repro.bigdata.backends import ProcessBackend
        from repro.obs import core as obs_core

        obs.reset()
        obs.enable()
        try:
            with ProcessBackend(1) as backend:
                with obs_core.span("test.call"):
                    backend.map(_traced_mapper, self.DOCS)
            roots = obs_core.take_roots()
        finally:
            obs.disable()
            obs.reset()
        (call_span,) = roots
        wrappers = [
            child for child in call_span.children
            if child.name.startswith("worker[")
        ]
        # One worker ran all ten tasks: exactly one wrapper span holding
        # all ten per-task spans — not ten sibling wrappers.
        assert len(wrappers) == 1
        assert len(call_span.children) == 1
        assert len(wrappers[0].children) == len(self.DOCS)
        assert all(
            span.name == "test.map" for span in wrappers[0].children
        )

    def test_workers_one_uses_exactly_one_worker(self):
        from repro import obs
        from repro.bigdata.backends import ProcessBackend
        from repro.obs import core as obs_core

        obs.reset()
        obs.enable()
        try:
            with ProcessBackend(1) as backend:
                assert backend.workers == 1
                backend.map(_traced_mapper, self.DOCS)
            counters = obs_core.counters()
            tasks_hist = obs_core.histograms()["backend.worker.tasks"]
            busy_hist = obs_core.histograms()["backend.worker.busy_s"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["backend.tasks_dispatched"] == len(self.DOCS)
        # One histogram sample per reporting worker: exactly one worker
        # executed, and it executed every task.
        assert tasks_hist.values == [len(self.DOCS)]
        assert busy_hist.count == 1

    def test_utilization_histogram_covers_all_tasks(self):
        from repro import obs
        from repro.bigdata.backends import ProcessBackend
        from repro.obs import core as obs_core

        obs.reset()
        obs.enable()
        try:
            with ProcessBackend(2) as backend:
                backend.map(_traced_mapper, self.DOCS)
            tasks_hist = obs_core.histograms()["backend.worker.tasks"]
        finally:
            obs.disable()
            obs.reset()
        assert sum(tasks_hist.values) == len(self.DOCS)
        assert 1 <= tasks_hist.count <= 2  # one sample per worker

    def test_both_workers_report_busy_time(self):
        from repro import obs
        from repro.bigdata.backends import ProcessBackend
        from repro.obs import core as obs_core

        tasks = [0.05] * 6
        obs.reset()
        obs.enable()
        try:
            with ProcessBackend(2) as backend:
                assert backend.map(_sleepy, tasks) == tasks
            counters = obs_core.counters()
            histograms = obs_core.histograms()
        finally:
            obs.disable()
            obs.reset()
        assert counters["backend.tasks_dispatched"] == len(tasks)
        # A worker is never idle while a sleeping peer holds the queue's
        # head, so both workers ran tasks and both reported busy time.
        tasks_per_worker = histograms["backend.worker.tasks"].values
        assert len(tasks_per_worker) == 2
        assert sum(tasks_per_worker) == len(tasks)
        busy = histograms["backend.worker.busy_s"].values
        assert len(busy) == 2
        assert all(seconds > 0 for seconds in busy)


class TestPrefixSpan:
    def test_gappy_sequences(self):
        database = [("a", "b", "c"), ("a", "c"), ("a", "b")]
        frequent = frequent_sequences(database, min_support=2)
        assert frequent[("a",)] == 3
        assert frequent[("a", "b")] == 2
        assert frequent[("a", "c")] == 2
        assert ("b", "a") not in frequent

    def test_contiguous_ngrams(self):
        database = [("was", "born", "in"), ("was", "born", "in"), ("born", "in", "x")]
        frequent = frequent_sequences(database, min_support=2, contiguous=True)
        assert frequent[("was", "born", "in")] == 2
        assert frequent[("born", "in")] == 3

    def test_max_length_respected(self):
        database = [("a", "b", "c", "d")] * 3
        frequent = frequent_sequences(database, min_support=2, max_length=2)
        assert all(len(seq) <= 2 for seq in frequent)

    def test_support_counted_once_per_sequence(self):
        database = [("a", "a", "a")]
        frequent = frequent_sequences(database, min_support=1, max_length=1)
        assert frequent[("a",)] == 1

    def test_closed_sequences(self):
        database = [("was", "born", "in")] * 3
        frequent = frequent_sequences(database, min_support=2, contiguous=True)
        closed = closed_sequences(frequent)
        assert ("was", "born", "in") in closed
        # "was born" is dominated by "was born in" at equal support.
        assert ("was", "born") not in closed

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            frequent_sequences([], min_support=0)
        with pytest.raises(ValueError):
            frequent_sequences([], max_length=0)


class TestMinHash:
    def test_identical_sets_agree(self):
        hasher = MinHasher(num_hashes=32)
        items = {"a", "b", "c"}
        assert hasher.signature(items) == hasher.signature(items)
        assert MinHasher.estimate_jaccard(
            hasher.signature(items), hasher.signature(items)
        ) == 1.0

    def test_jaccard_exact(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(0, 40), min_size=5, max_size=30),
        st.sets(st.integers(0, 40), min_size=5, max_size=30),
    )
    def test_estimate_tracks_jaccard(self, set_a, set_b):
        hasher = MinHasher(num_hashes=256)
        estimate = MinHasher.estimate_jaccard(
            hasher.signature(set_a), hasher.signature(set_b)
        )
        assert abs(estimate - jaccard(set_a, set_b)) < 0.25

    def test_lsh_finds_near_duplicates(self):
        hasher = MinHasher(num_hashes=64)
        signatures = {
            "x": hasher.signature(shingles("Nimbus Systems")),
            "y": hasher.signature(shingles("Nimbus Systemz")),
            "z": hasher.signature(shingles("completely different name")),
        }
        pairs = lsh_candidate_pairs(signatures, bands=16)
        assert ("x", "y") in pairs
        assert ("x", "z") not in pairs

    def test_lsh_band_validation(self):
        hasher = MinHasher(num_hashes=64)
        signatures = {"x": hasher.signature({"a"})}
        with pytest.raises(ValueError):
            lsh_candidate_pairs(signatures, bands=7)

    def test_shingles(self):
        assert shingles("ab", 3) == {"ab"}
        assert "abc" in shingles("abcd", 3)


class TestChunkedEdgeCases:
    def test_empty_input(self):
        from repro.bigdata import chunked

        assert chunked([], 1) == []
        assert chunked([], 100) == []

    def test_more_chunks_than_items(self):
        from repro.bigdata import chunked

        assert chunked([1, 2, 3], 10) == [[1], [2], [3]]

    def test_single_item(self):
        from repro.bigdata import chunked

        assert chunked(["only"], 1) == [["only"]]
        assert chunked(["only"], 8) == [["only"]]

    def test_nonpositive_chunk_count_clamps_to_one(self):
        from repro.bigdata import chunked

        assert chunked([1, 2, 3], 0) == [[1, 2, 3]]
        assert chunked([1, 2, 3], -5) == [[1, 2, 3]]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(), max_size=40),
        st.integers(min_value=-3, max_value=50),
    )
    def test_partition_invariants(self, items, chunks):
        from repro.bigdata import chunked

        batches = chunked(items, chunks)
        assert [x for batch in batches for x in batch] == items
        assert all(batch for batch in batches)
        if items:
            assert len(batches) == max(1, min(chunks, len(items)))
            sizes = [len(batch) for batch in batches]
            assert max(sizes) - min(sizes) <= 1
