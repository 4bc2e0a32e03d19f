"""Observability for the KB-construction pipeline: spans + metrics.

Production knowledge-base pipelines live or die by curation telemetry —
knowing which extractor produced which fact at what cost (Weikum et al.,
*Machine Knowledge*, 2020).  This subpackage provides exactly that for the
toolkit, in-process and dependency-free:

* **Tracing spans** — ``with span("pipeline.extract.infobox"):`` context
  managers that record wall time, per-span counters, and parent/child
  nesting into a trace tree.
* **Metrics registry** — process-local counters, gauges, and histograms
  (with p50/p95/p99/max) keyed by dotted names.  A histogram keeps sparse
  log-spaced bucket counts, not samples: each percentile is within
  ``core.ALPHA`` (1%) of the exact nearest-rank sample, count/mean/min/
  max are exact, and its memory depends on the value range, not on the
  number of samples.
* **A near-zero-overhead disabled path** — instrumentation is off by
  default; every instrumented call site checks the module-level
  ``core.ENABLED`` flag before allocating anything, so the hot paths
  (``TripleStore.add`` in particular) pay only a module-attribute load.

Usage::

    from repro import obs

    obs.enable()
    with obs.span("pipeline.build"):
        with obs.span("pipeline.extract"):
            obs.annotate("candidates", 17)   # counter on the open span
        obs.count("kb.store.add", 3)         # global counter
        obs.observe("shard.records", 128.0)  # histogram sample
    print(obs.render_trace())
    print(obs.render_metrics())
    payload = obs.report_json()              # machine-readable export
    obs.reset()

Hot-path modules import the state-bearing module directly and gate on the
flag themselves so the disabled cost is a single attribute check::

    from ..obs import core as _obs
    ...
    if _obs.ENABLED:
        _obs.count("kb.store.add", 1)
"""

from __future__ import annotations

from . import core
from .core import (
    Histogram,
    Span,
    annotate,
    count,
    current_span,
    disable,
    enable,
    enabled,
    gauge,
    observe,
    reset,
    span,
    take_roots,
)
from .render import (
    render_metrics,
    render_trace,
    report_json,
    stage_breakdown,
)

__all__ = [
    "core",
    "Histogram",
    "Span",
    "annotate",
    "count",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "observe",
    "reset",
    "span",
    "take_roots",
    "render_metrics",
    "render_trace",
    "report_json",
    "stage_breakdown",
]
