"""Run one leg of a workload in this process and save its outcome.

Usage: ``python perfbench/leg.py MODE WORKLOAD SEED LEG SECONDS OUT_JSON``.
The leg's inputs derive from SEED and the leg's index LEG.  MODE ``plain``
sets up and measures with nothing installed, ``traced`` measures with the
span wrappers installed.  Every leg times its set-up the same way, from
before the workload's first import of the program to the end of its
``setup``, scaled by the host's speed read just before and just after
(``common.HostClock``); the same clock then scales the timed operations.
``run.py`` starts the legs and pools them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

from common import ROOT, HostClock, Scratch, sub_seed
from tracing import Tracer

MODES = ("plain", "traced")


def main() -> int:
    mode, workload, seed, leg, seconds, out = sys.argv[1:]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; expected one of {MODES}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    module = importlib.import_module(f"{workload}_workload")
    tracer = Tracer() if mode == "traced" else None
    if module.ONE_CORE:
        # Keep this process and the calibrator it starts (which inherits
        # the affinity) on one core, so that each reading is of the core
        # the work runs on; unpinned, both moved between the two cores.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Scratch() as scratch, HostClock() as clock:
        started = time.perf_counter()
        state = module.setup(
            sub_seed(int(seed), f"leg{leg}"), scratch, tracer is not None
        )
        ended = time.perf_counter()
        try:
            clock.read()
            outcome = module.measure(
                state, float(seconds), tracer, scratch, clock
            )
        finally:
            module.close(state)
    setup_s = ended - started
    outcome.setup_times.append(setup_s * clock.scale_at((started + ended) / 2))
    outcome.raw_setup_times.append(setup_s)
    outcome.save(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
