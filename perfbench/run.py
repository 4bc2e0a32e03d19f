"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build|ingest|serve --seed N \\
        --seconds S --trace 0|1

A pass runs the workload in ``LEGS`` fresh processes one after another,
each with its own ``PYTHONHASHSEED`` (1, 2, 3), its own inputs, its own
set-up and an equal share of ``--seconds``, and pools what they measured.
One process's hash seed moved a full build's speed by up to 20%, so a
single process per run would make that lottery part of the run-to-run
spread; fixed seeds make it the same in every run, and three of them
average it.  Each leg's inputs derive from ``--seed`` and the leg's index:
a full build of 100 people took from 1.56 to 2.03 s over five seeds, so a
run of one input would make the seed a lottery too, and a run of three
legs' inputs (nine for ``build``) averages it.  ``setup_s`` is the median
of the legs' ``LEGS`` cold set-ups, each in a fresh process.

``--trace 0`` runs one pass with nothing installed and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs two passes with
the same inputs: untraced, then with span wrappers around each layer's entry
points.  It reports the per-layer metrics, prints both passes' end-to-end
numbers side by side (their difference is the tracing overhead), and fails
the run if an exact count differs between the passes.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

from common import ROOT, Metric, Outcome, Scratch, end_to_end, merge

WORKLOADS = ("build", "ingest", "serve")
LEGS = 3
LEG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "leg.py")


def _definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _leg(mode: str, args, index: int, scratch: Scratch) -> Outcome:
    out = scratch.sub(f"{mode}-leg{index}.json")
    subprocess.run(
        [sys.executable, LEG, mode, args.workload, str(args.seed),
         str(index), repr(args.seconds / LEGS), out],
        env=dict(os.environ, PYTHONHASHSEED=str(index + 1)),
        check=True,
    )
    return Outcome.load(out)


def _pass(args, mode: str, scratch: Scratch) -> Outcome:
    return merge([_leg(mode, args, index, scratch) for index in range(LEGS)])


def _print_outcome(
    label: str, outcome: Outcome, metrics: dict[str, Metric]
) -> None:
    print(f"[{label}] attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={str(outcome.correct).lower()}")
    for name, metric in metrics.items():
        alias = f" ({metric.alias})" if metric.alias else ""
        print(f"  {name:<12} {metric.value:>14.4f} {metric.unit:<6} "
              f"n={metric.samples}{alias}")
    raw = statistics.median(outcome.raw_latencies or [0.0]) * 1000.0
    raw_setup = statistics.median(outcome.raw_setup_times)
    print(f"  unscaled wall clock: setup_s {raw_setup:.4f} s, op_ms "
          f"{raw:.4f} ms (median host scale "
          f"{metrics['setup_s'].value / raw_setup:.3f} at set-up, "
          f"{metrics['op_ms'].value / raw if raw else 0.0:.3f} at op_ms)")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")


def _json_metrics(declared: list[dict], measured: dict[str, Metric]) -> dict:
    result = {}
    for entry in declared:
        metric = measured[entry["name"]]
        if metric.unit != entry["unit"]:
            raise ValueError(
                f"{entry['name']}: measured in {metric.unit}, declared in "
                f"{entry['unit']}"
            )
        result[entry["name"]] = {"value": metric.value, "unit": metric.unit}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program source under {source}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    definition = _definition()
    workload = importlib.import_module(f"{args.workload}_workload")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} legs={LEGS}")

    with Scratch() as scratch:
        untraced = _pass(args, "plain", scratch)
        traced = _pass(args, "traced", scratch) if args.trace else None
    plain = end_to_end(untraced, workload.NAMES, workload.TAIL_Q)
    _print_outcome("untraced", untraced, plain)
    if traced is None:
        metrics = _json_metrics(definition["end_to_end"], plain)
        outcomes = [untraced]
    else:
        layers = workload.layer_metrics(traced)
        for leg, counts in untraced.counts.items():
            for name, value in counts.items():
                if traced.counts[leg].get(name) != value:
                    traced.problems.append(
                        f"leg {leg}: exact count {name} differs between the "
                        "untraced and the traced pass"
                    )
        with_trace = end_to_end(traced, workload.NAMES, workload.TAIL_Q)
        _print_outcome("traced", traced, with_trace)
        print("tracing overhead (traced / untraced):")
        for name, metric in plain.items():
            ratio = with_trace[name].value / metric.value
            print(f"  {name:<12} {ratio:>8.3f}")
        layers["trace.overhead_pct"] = Metric(
            (with_trace["op_ms"].value / plain["op_ms"].value - 1.0) * 100.0,
            "%", 1,
        )
        print("per-layer:")
        for name, metric in layers.items():
            print(f"  {name:<30} {metric.value:>14.4f} {metric.unit:<9} "
                  f"n={metric.samples}")
        # Layers this workload does not run report zero time and zero calls.
        for entry in definition["per_layer"]:
            layers.setdefault(entry["name"], Metric(0.0, entry["unit"], 0))
        metrics = _json_metrics(definition["per_layer"], layers)
        outcomes = [untraced, traced]

    print(json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
