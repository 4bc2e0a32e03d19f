"""Shared pieces of the benchmark: statistics, the run outcome, scratch space.

Everything here is repo-agnostic plumbing; the workload modules hold the
decisions about what is measured.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for segment directories and span files; listed in
#: ``.gitignore`` and removed when a run ends.
SCRATCH_PARENT = os.path.join(ROOT, ".perfbench_tmp")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Length of one slice of a serve pass's timed phase, in seconds.
SLICE_S = 1.0

#: The host-speed probe, run in a process of its own.
CALIBRATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "calibrator.py")
#: Milliseconds one calibrator reading takes on the reference host (2
#: cores, quiet).  Every timing the benchmark reports is scaled by
#: ``REFERENCE_MS`` over the reading taken around it (:class:`HostClock`).
REFERENCE_MS = 28.0
#: Least wall-clock seconds between two readings inside a timed loop (one
#: reading takes about 0.2 s).
READ_EVERY_S = 1.5


class HostClock:
    """How fast the shared host runs, read between timed operations.

    On the shared 2-core reference host the same full build took from 1.6
    to 2.7 s within three minutes, and the calibrator's reading slowed
    with it: over windows of 7 builds, the build's median moved by 66%
    from the fastest window to the slowest, and its ratio to a reading of
    the calibrator's first two loops by 11% (``calibrator.py`` says why it
    has a third).  So every operation's time is scaled by ``REFERENCE_MS`` over
    the reading interpolated at the operation's midpoint.  A slower or
    faster host cancels out; a slower or faster program does not, because
    the calibrator never runs the program's code.  Readings are taken
    between operations, never inside a timed span, and the measured
    process waits idle while one is taken.
    """

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, CALIBRATOR], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        #: (moment, ms) of every reading, in time order.
        self.readings: list[tuple[float, float]] = []
        try:
            self.read()
        except BaseException:
            self.close()
            raise

    def read(self) -> None:
        """Take a reading now."""
        started = time.perf_counter()
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the calibrator exited")
        self.readings.append(((started + time.perf_counter()) / 2, float(line)))

    def tick(self) -> None:
        """Between two operations: a reading, if ``READ_EVERY_S`` have
        passed since the last one."""
        if time.perf_counter() - self.readings[-1][0] >= READ_EVERY_S:
            self.read()

    def scale_at(self, moment: float) -> float:
        """``REFERENCE_MS`` over the reading interpolated at ``moment``
        (the nearest reading outside the readings' span)."""
        moments = [at for at, __ in self.readings]
        position = bisect.bisect_right(moments, moment)
        if position == 0:
            ms = self.readings[0][1]
        elif position == len(moments):
            ms = self.readings[-1][1]
        else:
            (t0, m0), (t1, m1) = self.readings[position - 1:position + 1]
            ms = m0 + (m1 - m0) * (moment - t0) / (t1 - t0)
        return REFERENCE_MS / ms

    def close(self) -> None:
        """Stop the calibrator and wait for it."""
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def another_round(started: float, done: int, per_round: int,
                  seconds: float) -> bool:
    """Whether a timed loop of whole rounds of ``per_round`` operations,
    ``done`` of them done since ``started``, goes on: always within a round
    and before the first, and after that while the round boundary nearest
    to ``seconds`` lies ahead."""
    if done % per_round or not done:
        return True
    elapsed = time.perf_counter() - started
    return elapsed * (1.0 + 0.5 * per_round / done) < seconds


def sub_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one generator, derived from the run seed."""
    return random.Random(f"perfbench:{seed}:{label}").randrange(1, 2**31)


def scenario_inputs(name: str, seed: int, prefix: str, people: int):
    """The named scenario scaled to ``people`` people, with the seed of each
    of its generators but the world's re-drawn from ``seed`` under the label
    ``<prefix>.<part>``.

    The world keeps the scenario's own pinned seed, for two reasons.  The
    world's shape moved the work of a build between seeds: re-seeding it
    spread the solver's work (``reasoning.flips``) by 27% over 10 seeds
    (quartile distance over median), against 8% with the world pinned.  And
    the world generator raises ``name pool exhausted`` for about 1% of
    world seeds (2 of 180 tried for ``baseline`` at 100 people), which would
    fail whole runs for reasons outside every workload.
    """
    from repro.world.scenarios import SCENARIOS, build_scenario

    spec = SCENARIOS[name]
    changes = {"world": dataclasses.replace(spec.world, n_people=people)}
    for part in ("wiki", "corpus", "social", "noise"):
        config = getattr(spec, part)
        if config is not None:
            changes[part] = dataclasses.replace(
                config, seed=sub_seed(seed, f"{prefix}.{part}")
            )
    return build_scenario(dataclasses.replace(spec, **changes))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def kb_shape(store) -> dict[str, int]:
    """Triples, predicates and entities of a KB: a speed-up that shrinks
    the KB shows up here rather than as a win."""
    subjects = {triple.subject for triple in store}
    return {
        "kb.triples": len(store),
        "kb.predicates": len(store.predicates()),
        "kb.entities": len(subjects),
    }


def quality(kb, bundle) -> tuple[float, float]:
    """Precision and recall of the KB's relational facts against the
    scenario world's gold facts.  Both are exact for a given seed."""
    from repro.eval.metrics import precision_recall
    from repro.world.scenarios import FACT_RELATIONS

    predicted = {t.spo() for t in kb if t.predicate in FACT_RELATIONS}
    scores = precision_recall(predicted, bundle.gold_fact_keys())
    return scores.precision, scores.recall


def put_quality(outcome: "Outcome", kb, bundle) -> None:
    """``kb_p`` and ``kb_r`` of one KB (:func:`quality`)."""
    precision, recall = quality(kb, bundle)
    outcome.final["kb_p"] = [precision, "ratio"]
    outcome.final["kb_r"] = [recall, "ratio"]


class Scratch:
    """A private directory under :data:`SCRATCH_PARENT`, removed on exit."""

    def __init__(self) -> None:
        os.makedirs(SCRATCH_PARENT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT)

    def sub(self, name: str) -> str:
        return os.path.join(self.path, name)

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_PARENT)
        except OSError:
            pass  # another run still uses it


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    #: The name this quantity has in the workload's own vocabulary
    #: (``build_ms``, ``read_qps``, ...), printed next to the metric.
    alias: str = ""


@dataclass
class Outcome:
    """What one leg of a workload measured and checked (JSON-able), or the
    merge of a pass's legs."""

    #: Seconds per timed operation, scaled by :class:`HostClock`.
    latencies: list[float] = field(default_factory=list)
    #: The same, as the wall clock read them (printed, not reported).
    raw_latencies: list[float] = field(default_factory=list)
    #: Seconds from a leg's start to its first timed operation, scaled.
    setup_times: list[float] = field(default_factory=list)
    raw_setup_times: list[float] = field(default_factory=list)
    #: Scaled latencies of the operations that completed in each full
    #: ``SLICE_S`` slice of the timed phase (``serve`` only).
    slices: list[list[float]] = field(default_factory=list)
    #: Operations per scaled second in each of those slices.
    slice_rates: list[float] = field(default_factory=list)
    #: Scaled seconds of the timed loop (checks included, calibrator
    #: readings excluded): the throughput's denominator.
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Failed checks, one line each (empty = every check passed).
    problems: list[str] = field(default_factory=list)
    #: Counts that must repeat exactly in every pass of a seed (in a
    #: merged pass: one dict per leg, keyed by the leg's index).
    counts: dict = field(default_factory=dict)
    #: End-state metrics: name -> [value, unit].
    final: dict = field(default_factory=dict)
    #: Traced passes: one ``tracing.per_op`` record per timed operation
    #: (tagged with ``"leg"`` in a merged pass).
    records: list[dict] = field(default_factory=list)
    #: Traced passes: workload-specific totals, summed over legs.
    extra: dict = field(default_factory=dict)

    def add_op(self, latency: float, busy: float, scale: float) -> None:
        """One completed operation: ``latency`` seconds of the operation,
        ``busy`` seconds of its loop iteration (checks included), both
        wall clock, and the host scale measured around them."""
        self.latencies.append(latency * scale)
        self.raw_latencies.append(latency)
        self.window_s += busy * scale

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dataclasses.asdict(self), handle)

    @classmethod
    def load(cls, path: str) -> "Outcome":
        with open(path, encoding="utf-8") as handle:
            return cls(**json.load(handle))


def scale_records(records: list[dict], scales: list[float]) -> list[dict]:
    """Scale the times of per-operation trace records (``tracing.per_op``)
    by each operation's host scale, as its latency was."""
    if len(records) != len(scales):
        raise ValueError(f"{len(records)} trace records for {len(scales)} "
                         "operations")
    return [
        {key: value * scale if key.endswith("_ms") else value
         for key, value in record.items()}
        for record, scale in zip(records, scales)
    ]


def merge(legs: list[Outcome]) -> Outcome:
    """Pool the legs of one pass.  Each leg ran its own inputs, so the
    merged exact counts are keyed by the leg's index, and each trace record
    is tagged with its leg."""
    merged = Outcome()
    for index, leg in enumerate(legs):
        merged.counts[str(index)] = leg.counts
        merged.latencies += leg.latencies
        merged.raw_latencies += leg.raw_latencies
        merged.slices += leg.slices
        merged.slice_rates += leg.slice_rates
        merged.setup_times += leg.setup_times
        merged.raw_setup_times += leg.raw_setup_times
        merged.window_s += leg.window_s
        merged.attempted += leg.attempted
        merged.failed += leg.failed
        merged.problems += [f"leg {index}: {p}" for p in leg.problems]
        merged.records += [{**record, "leg": index} for record in leg.records]
        for key, value in leg.extra.items():
            merged.extra[key] = merged.extra.get(key, 0) + value
    for name, (__, unit) in legs[0].final.items():
        values = [leg.final[name][0] for leg in legs]
        merged.final[name] = [statistics.median(values), unit]
    return merged


def end_to_end(
    outcome: Outcome, names: tuple[str, str, str], tail_q: float
) -> dict[str, Metric]:
    """The end-to-end metrics of a merged pass.

    ``names`` are the workload's own names for the median, the tail and
    the throughput; throughput is operations per second of the window.
    With slices, the tail and the throughput are the medians of the
    slices' tails and rates, so a burst of load from outside the benchmark
    moves a few slices, not the result.
    """
    median_name, tail_name, rate_name = names
    latencies = outcome.latencies
    count = len(latencies)
    if not count:
        outcome.problems.append("no timed operation completed")
        latencies = [0.0]
    tail = percentile(latencies, tail_q)
    rate = count / outcome.window_s
    if outcome.slices:
        # A slice in which nothing completed counts as rate 0; its stalled
        # requests show up in the tail of the slice they complete in.
        tail = statistics.median(
            percentile(piece, tail_q) for piece in outcome.slices if piece
        )
        rate = statistics.median(outcome.slice_rates)
    metrics = {
        "setup_s": Metric(
            statistics.median(outcome.setup_times), "s",
            len(outcome.setup_times),
        ),
        "op_ms": Metric(
            statistics.median(latencies) * 1000.0, "ms", count, median_name
        ),
        "tail_ms": Metric(tail * 1000.0, "ms", count, tail_name),
        "ops_per_s": Metric(rate, "1/s", count, rate_name),
    }
    for name, (value, unit) in outcome.final.items():
        metrics[name] = Metric(value, unit, 1)
    return metrics
