"""``ingest``: a stream of 1% deltas through ``IncrementalBuilder``.

Why it exists: it is the write-side use of ``kb.segments`` and the
maintenance half of the KB lifecycle.  The same reasoning code as
``build`` runs, but nearly every consistency component replays from the
component cache, so the time goes to incremental bookkeeping, the rebuild
of the downstream stages, flushes and compactions.

The delta stream is a cycle: ``CYCLE_EDITS`` deltas each edit about 1% of
the pages, then as many deltas revert those edits in a seed-drawn order.
The corpus size stays constant, every cycle ends on the seed corpus, and
whole cycles leave a directory whose size is a function of the seed alone.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import statistics
import time
from dataclasses import dataclass

from common import (
    Metric,
    another_round,
    Outcome,
    dir_bytes,
    kb_shape,
    peak_rss_mb,
    put_quality,
    scale_records,
    scenario_inputs,
    sub_seed,
)
from tracing import ingest_counts, per_op

#: People in the scaled baseline world (about 200 wiki pages).
PEOPLE = 100
#: The measured work runs in the leg process alone, on one core (``leg.py``).
ONE_CORE = True
#: Share of the pages one delta replaces.
DELTA_SHARE = 0.01
#: Edit deltas per cycle; the cycle is twice as long (edits, then reverts).
CYCLE_EDITS = 6
#: Every COMPACT_EVERY-th delta compacts the segment stack synchronously.
COMPACT_EVERY = 4
#: Above the deepest stack the cadence allows (COMPACT_EVERY + 1), so the
#: store's background compaction never fires and compaction stays on the
#: fixed cadence.
COMPACT_THRESHOLD = 2 * COMPACT_EVERY


@dataclass
class Inputs:
    bundle: object
    #: Pages of the seed corpus, in title order.
    seed_pages: list
    #: One page list per delta of the cycle.
    cycle: list


def make_inputs(seed: int) -> Inputs:
    from repro.corpus.wiki import build_wiki

    bundle = scenario_inputs("baseline", seed, "ingest", PEOPLE)
    pages = bundle.wiki.pages
    # An edit replaces a page with the same entity's page rendered under
    # another wiki seed: new sentences, same title and entity.
    edited = build_wiki(
        bundle.world,
        dataclasses.replace(
            bundle.spec.wiki, seed=sub_seed(seed, "ingest.edits")
        ),
    ).pages
    editable = sorted(
        title for title in pages
        if title in edited
        and edited[title].document.sentences != pages[title].document.sentences
    )
    per_delta = max(1, round(DELTA_SHARE * len(pages)))
    rng = random.Random(sub_seed(seed, "ingest.deltas"))
    chosen = rng.sample(editable, CYCLE_EDITS * per_delta)
    groups = [
        chosen[i * per_delta:(i + 1) * per_delta] for i in range(CYCLE_EDITS)
    ]
    reverts = rng.sample(range(CYCLE_EDITS), CYCLE_EDITS)
    cycle = [[edited[t] for t in group] for group in groups] + [
        [pages[t] for t in groups[i]] for i in reverts
    ]
    return Inputs(
        bundle=bundle,
        seed_pages=[pages[title] for title in sorted(pages)],
        cycle=cycle,
    )


def _listing(directory: str) -> dict[str, tuple[int, int, int]]:
    listing = {}
    for entry in os.scandir(directory):
        stat = entry.stat()
        listing[entry.name] = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
    return listing


def _bytes_written(before: dict, after: dict) -> int:
    """Bytes of the files a delta created or replaced."""
    return sum(
        identity[2]
        for name, identity in after.items()
        if before.get(name) != identity
    )


def _delta_counts(report, written: int) -> list:
    return [*ingest_counts(report).values(), written]


#: This workload's names for ``op_ms``, ``tail_ms`` and ``ops_per_s``.
NAMES = ("ingest_ms", "ingest_p90_ms", "deltas_per_s")
TAIL_Q = 0.9


def _one_shot(directory: str, inputs: Inputs):
    """An ``IncrementalBuilder`` holding one compacted ingest of the seed
    corpus."""
    from repro.pipeline.incremental import IncrementalBuilder

    builder = IncrementalBuilder(directory, compact_threshold=COMPACT_THRESHOLD)
    builder.ingest(
        pages=inputs.seed_pages, aliases=inputs.bundle.world.aliases,
        compact=True,
    )
    return builder


@dataclass
class State:
    inputs: Inputs
    directory: str
    builder: object


def setup(seed: int, scratch, traced: bool) -> State:
    """Generate the inputs and seed-ingest the corpus."""
    inputs = make_inputs(seed)
    directory = scratch.sub("segments")
    return State(inputs, directory, _one_shot(directory, inputs))


def close(state: State) -> None:
    state.builder.close()


def measure(state: State, seconds: float, tracer, scratch, clock) -> Outcome:
    """Run whole delta cycles for about ``seconds`` (at least one)."""
    from repro.kb.segments import diff_segment_dirs, open_snapshot
    from repro.pipeline.incremental import STATE_NAME

    outcome = Outcome()
    inputs, directory, builder = state.inputs, state.directory, state.builder
    if tracer is not None:
        tracer.install("ingest")
    deltas = []
    cycle = inputs.cycle
    moments, done = [], []
    window_start = time.perf_counter()
    try:
        while another_round(window_start, len(deltas), len(cycle), seconds):
            iteration = time.perf_counter()
            position = len(deltas)
            pages = cycle[position % len(cycle)]
            compact = (position + 1) % COMPACT_EVERY == 0
            before = _listing(directory)
            gc.collect()
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        report = builder.ingest(pages=pages, compact=compact)
                else:
                    report = builder.ingest(pages=pages, compact=compact)
            except Exception as error:  # the stream cannot go on
                outcome.failed += 1
                outcome.problems.append(f"delta {position} raised {error!r}")
                moments.append((started + time.perf_counter()) / 2)
                break
            ended = time.perf_counter()
            moments.append((started + ended) / 2)
            deltas.append(
                _delta_counts(report, _bytes_written(before, _listing(directory)))
            )
            done.append(
                (ended - started, time.perf_counter() - iteration, moments[-1])
            )
            clock.tick()
    finally:
        if tracer is not None:
            tracer.uninstall()
        builder.close()
    clock.read()
    scales = [clock.scale_at(moment) for moment in moments]
    for latency, busy, moment in done:
        outcome.add_op(latency, busy, clock.scale_at(moment))
    if tracer is not None:
        outcome.records = scale_records(per_op(tracer.spans, "op"), scales)

    # Whole cycles end on the seed corpus: the directory must equal a
    # one-shot ingest of it.
    reference = scratch.sub("one-shot")
    _one_shot(reference, inputs).close()
    differences = diff_segment_dirs(directory, reference)
    if differences:
        outcome.failed = outcome.attempted
        outcome.problems.append(
            "after whole cycles the segment directory differs from a "
            f"one-shot ingest of the same corpus: {differences[:3]}"
        )
    outcome.final["disk_mb"] = [dir_bytes(directory) / 1e6, "MB"]
    outcome.final["peak_rss_mb"] = [peak_rss_mb(), "MB"]
    outcome.counts = {
        "deltas": deltas[:len(cycle)],
        "pipeline.state_bytes": os.path.getsize(
            os.path.join(directory, STATE_NAME)
        ),
    }
    with open_snapshot(directory) as snapshot:
        outcome.counts.update(kb_shape(snapshot))
        put_quality(outcome, snapshot, inputs.bundle)
    return outcome


_TIMES = [
    ("pipeline.ingest_self_ms", "pipeline.ingest.self_ms"),
    ("pipeline.rebuild_ms", "pipeline.rebuild_ms"),
    ("taxonomy.integrate_ms", "taxonomy.integrate_ms"),
    ("extraction.extract_ms", "extraction.extract_ms"),
    ("extraction.temporal_ms", "extraction.temporal_ms"),
    ("extraction.merge_ms", "extraction.merge_ms"),
    ("extraction.labels_ms", "extraction.labels_ms"),
    ("reasoning.clean_ms", "reasoning.clean_ms"),
    ("reasoning.solve_ms", "reasoning.solve_ms"),
    ("kb.logical_parts_ms", "kb.logical_parts_ms"),
    ("kb.flush_ms", "kb.flush_ms"),
]

#: Per-delta counts, in ``_delta_counts`` order (``ingest_counts``, then
#: the bytes written).
_DELTA_COUNTS = [
    ("extraction.reextracted_pages", "count"),
    ("reasoning.cached_share", "ratio"),
    ("kb.added", "count"),
    ("kb.tombstones", "count"),
    ("kb.bytes_written", "B"),
]


def layer_metrics(outcome: Outcome) -> dict[str, Metric]:
    """Per-layer medians over every traced delta of every leg; per-delta
    counts are medians over each leg's first cycle, which is the same
    sequence in every run of a seed, and the end-state counts are summed
    over the legs' inputs."""
    records = outcome.records
    result = {
        name: Metric(
            statistics.median([r.get(field, 0.0) for r in records]), "ms",
            len(records),
        )
        for name, field in _TIMES
    }
    compactions = [
        r["kb.compact_ms"] for r in records if r.get("kb.compact.calls")
    ]
    result["kb.compact_ms"] = Metric(
        statistics.median(compactions), "ms", len(compactions)
    )
    first_cycles = [counts["deltas"] for counts in outcome.counts.values()]
    for index, (name, unit) in enumerate(_DELTA_COUNTS):
        values = [delta[index] for cycle in first_cycles for delta in cycle]
        result[name] = Metric(statistics.median(values), unit, len(values))
    for leg, cycle in zip(outcome.counts, first_cycles):
        ops = [r for r in records if r["leg"] == int(leg)][:len(cycle)]
        for index, (name, __) in enumerate(_DELTA_COUNTS[:4]):
            if [r.get(name, 0.0) for r in ops] != [d[index] for d in cycle]:
                outcome.problems.append(
                    f"leg {leg}: {name}: the wrapper's values differ from "
                    "the ingest reports"
                )
    for name in (
        "pipeline.state_bytes", "kb.triples", "kb.predicates", "kb.entities"
    ):
        unit = "B" if name.endswith("bytes") else "count"
        result[name] = Metric(
            sum(counts[name] for counts in outcome.counts.values()), unit,
            len(outcome.counts),
        )
    return result
