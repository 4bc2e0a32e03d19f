"""Presentation of recorded telemetry: trace trees, tables, JSON export,
and the ``prefix: key=value ...`` telemetry lines the CLI prints.

Rendering happens once, after the traced work finished, so nothing here is
performance-sensitive.  Sibling spans with the same name (e.g. the per-page
``pipeline.extract.infobox`` spans) are merged into one line with a ``xN``
multiplicity so a 10k-page build still renders as a readable stage tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import core
from .core import Span


# ------------------------------------------------------------- aggregation


@dataclass(slots=True)
class MergedSpan:
    """Same-named sibling spans folded together."""

    name: str
    calls: int = 0
    total: float = 0.0
    children: list["MergedSpan"] = field(default_factory=list)


def merge_spans(spans: list[Span]) -> list[MergedSpan]:
    """Fold same-named siblings, recursively, preserving first-seen order."""
    merged: dict[str, MergedSpan] = {}
    order: list[str] = []
    child_groups: dict[str, list[Span]] = {}
    for node in spans:
        if node.name not in merged:
            merged[node.name] = MergedSpan(name=node.name)
            order.append(node.name)
            child_groups[node.name] = []
        bucket = merged[node.name]
        bucket.calls += 1
        bucket.total += node.elapsed
        child_groups[node.name].extend(node.children)
    for name in order:
        merged[name].children = merge_spans(child_groups[name])
    return [merged[name] for name in order]


def _flatten(merged: list[MergedSpan], prefix: str, into: list[dict]) -> None:
    for node in merged:
        path = f"{prefix}{node.name}" if not prefix else f"{prefix}/{node.name}"
        into.append({"stage": path, "calls": node.calls, "total_s": node.total})
        _flatten(node.children, path, into)


def stage_breakdown() -> list[dict]:
    """A flat, JSON-ready list of merged stages with calls and total time.

    Stage names are slash-joined span paths (``pipeline.build/
    pipeline.extract/extract.infobox``), one entry per distinct path.
    """
    flat: list[dict] = []
    _flatten(merge_spans(core.take_roots()), "", flat)
    return flat


# --------------------------------------------------------------- rendering


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1000.0:8.2f}ms"


def _format_count(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


def _render_node(
    node: MergedSpan,
    prefix: str,
    connector: str,
    child_prefix: str,
    lines: list[str],
) -> None:
    label = node.name if node.calls == 1 else f"{node.name} x{node.calls}"
    stem = prefix + connector
    lines.append(
        f"{stem}{label:<{max(1, 46 - len(stem))}} {_format_seconds(node.total)}"
    )
    for i, child in enumerate(node.children):
        last = i == len(node.children) - 1
        _render_node(
            child,
            child_prefix,
            "└─ " if last else "├─ ",
            child_prefix + ("   " if last else "│  "),
            lines,
        )


def render_trace() -> str:
    """The merged span tree as an aligned text diagram."""
    roots = merge_spans(core.take_roots())
    if not roots:
        return "(no spans recorded)"
    lines: list[str] = []
    for root in roots:
        _render_node(root, "", "", "", lines)
    return "\n".join(lines)


def render_metrics() -> str:
    """Counters, gauges, and histogram digests as aligned text tables."""
    counters = core.counters()
    gauges = core.gauges()
    histograms = core.histograms()
    if not counters and not gauges and not histograms:
        return "(no metrics recorded)"
    lines: list[str] = []
    if counters:
        width = max(len(name) for name in counters)
        lines.append(f"{'counter':<{width}}  value")
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {_format_count(counters[name])}")
    if gauges:
        if lines:
            lines.append("")
        width = max(len(name) for name in gauges)
        lines.append(f"{'gauge':<{width}}  value")
        for name in sorted(gauges):
            lines.append(f"{name:<{width}}  {gauges[name]:g}")
    if histograms:
        if lines:
            lines.append("")
        width = max(len(name) for name in histograms)
        lines.append(
            f"{'histogram':<{width}}  count      mean       p50       p95       max"
        )
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"{name:<{width}}  {h.count:<6}"
                f" {h.mean:>9.3f} {h.p50:>9.3f} {h.p95:>9.3f} {h.max:>9.3f}"
            )
    return "\n".join(lines)


def telemetry_line(prefix: str, fields: Mapping[str, object]) -> str:
    """One greppable ``prefix: key=value key=value`` line.

    A bool renders as ``true``/``false``, ``None`` as ``-``, a float with
    three decimals, anything else through ``str``.
    """
    parts = []
    for key, value in fields.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif value is None:
            text = "-"
        elif isinstance(value, float):
            text = f"{value:.3f}"
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    return f"{prefix}: " + " ".join(parts)


# ------------------------------------------------------------------ export


def report_json() -> dict:
    """Everything recorded since the last reset, as plain JSON-able data.

    Keys: ``spans`` (the raw trace forest), ``stages`` (the merged
    breakdown :func:`stage_breakdown` computes), ``counters``, ``gauges``,
    and ``histograms`` (digests, not raw samples).
    """
    return {
        "spans": [root.to_dict() for root in core.take_roots()],
        "stages": stage_breakdown(),
        "counters": core.counters(),
        "gauges": core.gauges(),
        "histograms": {
            name: histogram.summary()
            for name, histogram in core.histograms().items()
        },
    }
