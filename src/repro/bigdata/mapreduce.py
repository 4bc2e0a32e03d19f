"""A map-reduce engine with shuffle accounting.

The tutorial repeatedly points at map-reduce computation as the big-data
substrate of web-scale knowledge harvesting.  Real clusters are out of
scope, so this engine executes the same programming model — mapper,
optional combiner, partitioned shuffle, reducer — deterministically, while
*measuring* what a cluster would have to move: records and approximate
bytes shuffled per shard.  The scaling experiment (E11) reads those
counters instead of wall-clock network time.  Every phase runs
in-process, in input order.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, Optional, TypeVar

from ..determinism.stable import stable_hash
from ..obs import core as _obs

I = TypeVar("I")   # input record
K = TypeVar("K")   # intermediate key
V = TypeVar("V")   # intermediate value
R = TypeVar("R")   # reduce output

Mapper = Callable[[I], Iterable[tuple[K, V]]]
Combiner = Callable[[K, list[V]], Iterable[V]]
Reducer = Callable[[K, list[V]], Iterable[R]]


@dataclass(slots=True)
class JobStats:
    """Counters a cluster scheduler would report for one job."""

    shards: int = 0
    map_input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    shuffled_records: int = 0
    shuffled_bytes: int = 0
    reduce_groups: int = 0
    reduce_output_records: int = 0
    records_per_shard: list[int] = field(default_factory=list)

    @property
    def skew(self) -> float:
        """Max/mean shard load (1.0 = perfectly balanced).

        Defined as 1.0 for an empty job (no shards, or no records shuffled
        at all) so callers never see a division by zero — an empty input is
        a legitimate job, not an error.
        """
        if not self.records_per_shard:
            return 1.0
        mean = sum(self.records_per_shard) / len(self.records_per_shard)
        if mean == 0:
            return 1.0
        return max(self.records_per_shard) / mean

    def publish(self) -> None:
        """Fold these counters into the observability registry.

        This is the single metrics mechanism for map-reduce jobs: the
        dataclass stays the structured return value, and (when tracing is
        enabled) the same numbers land in the global registry under
        ``mapreduce.*`` along with a per-shard load histogram.
        """
        if not _obs.ENABLED:
            return
        _obs.count("mapreduce.jobs")
        _obs.count("mapreduce.map_input_records", self.map_input_records)
        _obs.count("mapreduce.map_output_records", self.map_output_records)
        _obs.count("mapreduce.combine_output_records", self.combine_output_records)
        _obs.count("mapreduce.shuffled_records", self.shuffled_records)
        _obs.count("mapreduce.shuffled_bytes", self.shuffled_bytes)
        _obs.count("mapreduce.reduce_groups", self.reduce_groups)
        _obs.count("mapreduce.reduce_output_records", self.reduce_output_records)
        _obs.gauge("mapreduce.last_job.skew", self.skew)
        for records in self.records_per_shard:
            _obs.observe("mapreduce.shard.records", records)


def _approximate_size(value) -> int:
    """A cheap, deterministic stand-in for serialized record size."""
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (tuple, list)):
        return 2 + sum(_approximate_size(v) for v in value)
    if isinstance(value, dict):
        return 2 + sum(
            _approximate_size(k) + _approximate_size(v) for k, v in value.items()
        )
    return len(repr(value))


class MapReduce(Generic[I, K, V, R]):
    """A map-reduce executor with deterministic sharding."""

    def __init__(self, shards: int = 4) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = shards

    def run(
        self,
        inputs: Iterable[I],
        mapper: Mapper,
        reducer: Reducer,
        combiner: Optional[Combiner] = None,
    ) -> tuple[list[R], JobStats]:
        """Execute one job; return (reduce outputs, counters).

        An empty input is a valid job: every counter is zero,
        ``records_per_shard`` is a zero per shard, and ``skew`` is 1.0.
        """
        stats = JobStats(shards=self.shards)
        with _obs.span("mapreduce.run"):

            # Map phase: each mapper output is routed to a shard by key hash.
            shard_buffers: list[dict[K, list[V]]] = [
                defaultdict(list) for __ in range(self.shards)
            ]
            with _obs.span("mapreduce.map"):
                for record in inputs:
                    stats.map_input_records += 1
                    for key, value in mapper(record):
                        stats.map_output_records += 1
                        shard = stable_hash(repr(key)) % self.shards
                        shard_buffers[shard][key].append(value)

            # Combine phase (runs "map-side", before the shuffle).
            with _obs.span("mapreduce.combine"):
                if combiner is not None:
                    for buffer in shard_buffers:
                        for key in list(buffer):
                            combined = list(combiner(key, buffer[key]))
                            buffer[key] = combined
                            stats.combine_output_records += len(combined)
                else:
                    stats.combine_output_records = stats.map_output_records

            # Shuffle accounting: everything crossing the map/reduce border.
            with _obs.span("mapreduce.shuffle"):
                stats.records_per_shard = [0] * self.shards
                for shard_index, buffer in enumerate(shard_buffers):
                    for key, values in buffer.items():
                        stats.shuffled_records += len(values)
                        stats.records_per_shard[shard_index] += len(values)
                        stats.shuffled_bytes += sum(
                            _approximate_size(key) + _approximate_size(v)
                            for v in values
                        )

            # Reduce phase: shards in order, keys sorted for determinism.
            # Each shard's reduce wall time feeds the per-shard histogram —
            # the straggler signal a cluster scheduler would watch.
            results: list[R] = []
            with _obs.span("mapreduce.reduce"):
                for buffer in shard_buffers:
                    shard_t0 = time.perf_counter() if _obs.ENABLED else 0.0
                    for key in sorted(buffer, key=repr):
                        stats.reduce_groups += 1
                        for output in reducer(key, buffer[key]):
                            results.append(output)
                            stats.reduce_output_records += 1
                    if _obs.ENABLED:
                        _obs.observe(
                            "mapreduce.shard.reduce_s",
                            time.perf_counter() - shard_t0,
                        )
            stats.publish()
        return results, stats


def word_count(
    documents: Iterable[str], shards: int = 4
) -> tuple[dict[str, int], JobStats]:
    """The canonical example job, used by tests and the quickstart."""

    def mapper(document: str):
        for word in document.split():
            yield word.lower(), 1

    def combiner(word: str, counts: list[int]):
        yield sum(counts)

    def reducer(word: str, counts: list[int]):
        yield word, sum(counts)

    engine: MapReduce = MapReduce(shards=shards)
    pairs, stats = engine.run(documents, mapper, reducer, combiner=combiner)
    return dict(pairs), stats
