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
