"""``build``: repeated full builds of the ``adversarial_noise`` scenario.

Why it exists: it is the workload where reasoning does most of the work.
Weighted MaxSat consistency cleaning is most of a build here, and the
injected conflicts keep ``kb_p`` below 1, so a solver change shows up in
quality as well as time.  Segments and serving are bypassed.
"""

from __future__ import annotations

import gc
import hashlib
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
    quality,
    scale_records,
    scenario_inputs,
    sub_seed,
)
from tracing import per_op

#: People in the scaled scenario world (about 140 wiki pages, with the
#: scenario's organisations and places): a build short enough for a few
#: builds per leg.
PEOPLE = 40
#: The measured work runs in the leg process alone, on one core (``leg.py``).
ONE_CORE = True


def make_inputs(seed: int):
    """The scenario bundle for ``seed``: wiki pages, injected conflicts and
    gold facts.  The seed re-draws the page text, the injected false facts
    and the document corpus; the world stays pinned
    (``common.scenario_inputs``)."""
    return scenario_inputs("adversarial_noise", seed, "build", PEOPLE)


def build_once(bundle):
    from repro.pipeline.builder import KnowledgeBaseBuilder

    return KnowledgeBaseBuilder(bundle.wiki, aliases=bundle.world.aliases).build()


def canonical_digest(kb) -> str:
    from repro.determinism.stable import canonical_kb_text

    return hashlib.blake2b(
        canonical_kb_text(kb).encode("utf-8"), digest_size=16
    ).hexdigest()


def report_counts(kb, report) -> dict:
    """Exact counts readable from the build's return values."""
    consistency = report.consistency
    counts = {
        "extraction.candidates": (
            report.infobox_candidates
            + report.pattern_candidates
            + report.year_candidates
        ),
        "reasoning.components": consistency.components,
        "reasoning.largest_component": consistency.largest_component,
        "reasoning.soft_cost": consistency.soft_cost,
        "reasoning.hard_violations": consistency.hard_violations,
    }
    counts.update(kb_shape(kb))
    return counts


#: This workload's names for ``op_ms``, ``tail_ms`` and ``ops_per_s``.
NAMES = ("build_ms", "build_p75_ms", "builds_per_s")
#: About 20 builds of 9 inputs per run: the p90 has two builds beyond it,
#: so it follows the heaviest input and spread 0.22 (quartile distance over
#: median) over 5 seeds.
TAIL_Q = 0.75


#: Inputs per leg, each derived from the leg's seed: a leg builds them in
#: turn, so a run averages the build cost of 3 x INPUTS inputs.
INPUTS = 3


@dataclass
class State:
    bundles: list
    #: The warm-up build of each input: every timed build must reproduce it.
    kbs: list
    reports: list


def setup(seed: int, scratch, traced: bool) -> State:
    """Generate the inputs and run a warm-up build of each."""
    bundles = [make_inputs(sub_seed(seed, f"input{i}")) for i in range(INPUTS)]
    built = [build_once(bundle) for bundle in bundles]
    return State(bundles, [kb for kb, __ in built], [r for __, r in built])


def close(state: State) -> None:
    pass


def measure(state: State, seconds: float, tracer, scratch, clock) -> Outcome:
    """Build the inputs in turn, in whole rounds, for about ``seconds``
    (at least one round)."""
    from repro.pipeline.builder import emit_segments

    outcome = Outcome()
    expected = []
    for index, (kb, report) in enumerate(zip(state.kbs, state.reports)):
        counts = {**report_counts(kb, report), "kb.digest": canonical_digest(kb)}
        expected.append(counts)
        outcome.counts[str(index)] = counts

    if tracer is not None:
        tracer.install("build")
    moments, done = [], []
    window_start = time.perf_counter()
    try:
        while another_round(window_start, outcome.attempted, INPUTS, seconds):
            iteration = time.perf_counter()
            index = outcome.attempted % INPUTS
            bundle = state.bundles[index]
            gc.collect()
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        kb, report = build_once(bundle)
                else:
                    kb, report = build_once(bundle)
            except Exception as error:  # one failed build is counted, not fatal
                outcome.failed += 1
                outcome.problems.append(f"build raised {error!r}")
                moments.append((started + time.perf_counter()) / 2)
                clock.tick()
                continue
            ended = time.perf_counter()
            moments.append((started + ended) / 2)
            if canonical_digest(kb) != expected[index]["kb.digest"]:
                outcome.failed += 1
                outcome.problems.append(
                    f"build {outcome.attempted}: canonical KB bytes differ "
                    f"from the set-up build of input {index}"
                )
            elif {**report_counts(kb, report),
                  "kb.digest": expected[index]["kb.digest"]} != expected[index]:
                outcome.failed += 1
                outcome.problems.append(
                    f"build {outcome.attempted}: counts differ from the "
                    f"set-up build of input {index}"
                )
            done.append(
                (ended - started, time.perf_counter() - iteration, moments[-1])
            )
            clock.tick()
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.read()
    scales = [clock.scale_at(moment) for moment in moments]
    for latency, busy, moment in done:
        outcome.add_op(latency, busy, clock.scale_at(moment))
    if tracer is not None:
        records = scale_records(per_op(tracer.spans, "op"), scales)
        outcome.records = [
            {**record, "input": position % INPUTS}
            for position, record in enumerate(records)
        ]

    # End state: the mean over the leg's inputs of each one's KB.
    sizes, precisions, recalls = [], [], []
    for index, (kb, bundle) in enumerate(zip(state.kbs, state.bundles)):
        directory = scratch.sub(f"segments-{index}")
        emit_segments(kb, directory)
        sizes.append(dir_bytes(directory) / 1e6)
        precision, recall = quality(kb, bundle)
        precisions.append(precision)
        recalls.append(recall)
    outcome.final["disk_mb"] = [statistics.mean(sizes), "MB"]
    outcome.final["peak_rss_mb"] = [peak_rss_mb(), "MB"]
    outcome.final["kb_p"] = [statistics.mean(precisions), "ratio"]
    outcome.final["kb_r"] = [statistics.mean(recalls), "ratio"]
    return outcome


#: Per-layer times of one build: (metric, field of a ``per_op`` record).
_TIMES = [
    ("taxonomy.integrate_ms", "taxonomy.integrate_ms"),
    ("extraction.extract_ms", "extraction.extract_ms"),
    ("extraction.temporal_ms", "extraction.temporal_ms"),
    ("extraction.merge_ms", "extraction.merge_ms"),
    ("extraction.labels_ms", "extraction.labels_ms"),
    ("reasoning.clean_ms", "reasoning.clean_ms"),
    ("reasoning.solve_ms", "reasoning.solve_ms"),
    ("pipeline.build_self_ms", "self_ms"),
]

#: Counts a wrapper read from a return value, and how the legs' values
#: combine into the reported one.  Each must equal the build report's count
#: where the report has one; ``run.py`` then compares the report counts with
#: the untraced pass's.
_COUNTS = [
    ("reasoning.flips", "count", sum),
    ("reasoning.components", "count", sum),
    ("reasoning.largest_component", "count", max),
    ("reasoning.soft_cost", "weight", sum),
    ("reasoning.hard_violations", "count", sum),
    ("extraction.candidates", "count", sum),
]


def layer_metrics(outcome: Outcome) -> dict[str, Metric]:
    """Per-layer medians over the traced builds of every leg, plus the
    exact counts, combined over every leg's inputs (each count must be
    equal in every traced build of an input)."""
    records = outcome.records
    result = {
        name: Metric(
            statistics.median([r.get(field, 0.0) for r in records]), "ms",
            len(records),
        )
        for name, field in _TIMES
    }
    inputs = [
        (int(leg), int(index), counts)
        for leg, per_input in outcome.counts.items()
        for index, counts in per_input.items()
    ]
    for name, unit, combine in _COUNTS:
        per_input = []
        for leg, index, counts in inputs:
            values = {
                r.get(name, 0.0) for r in records
                if r["leg"] == leg and r["input"] == index
            }
            if len(values) != 1:
                outcome.problems.append(
                    f"leg {leg} input {index}: {name} differs between traced "
                    "builds"
                )
            value = min(values)
            if name in counts and counts[name] != value:
                outcome.problems.append(
                    f"leg {leg} input {index}: {name}: wrapper saw {value}, "
                    f"the build report says {counts[name]}"
                )
            per_input.append(value)
        result[name] = Metric(combine(per_input), unit, len(records))
    for name in ("kb.triples", "kb.predicates", "kb.entities"):
        result[name] = Metric(
            sum(counts[name] for __, __, counts in inputs), "count",
            len(inputs),
        )
    return result
