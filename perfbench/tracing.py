"""Spans around calls into each layer's public functions, from outside.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: (id, parent id, name, start, end, counts).  Each name is
patched where its caller looks it up (``repro.pipeline.builder.integrate``,
not ``repro.taxonomy.integration.integrate``), so no file of the program
changes and untraced runs install nothing.  Spans stay in memory until the
pass ends.  The parent of a span is the innermost open span of the same
thread, so concurrent server threads keep separate trees.

:data:`LAYERS` lists what each workload wraps; :func:`per_op` folds the spans
of each timed operation into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

#: A span: (id, parent id or 0, name, start, end, counts or None).
Span = tuple


def _flips(result) -> dict:
    return {"reasoning.flips": result.flips}


def _clean_counts(result) -> dict:
    __, report = result
    return {
        "reasoning.components": report.components,
        "reasoning.largest_component": report.largest_component,
        "reasoning.soft_cost": report.soft_cost,
        "reasoning.hard_violations": report.hard_violations,
    }


def _candidates(result) -> dict:
    return {"extraction.candidates": len(result)}


def ingest_counts(report) -> dict:
    """Per-delta counts from an ``IngestReport``."""
    return {
        "extraction.reextracted_pages": report.reextracted_pages,
        "reasoning.cached_share": (
            report.cached_components / report.components
            if report.components else 1.0
        ),
        "kb.added": report.added,
        "kb.tombstones": report.tombstones,
    }


# (module, attribute path, span name, counts from the return value)
_BUILD = [
    ("repro.pipeline.builder", "integrate", "taxonomy.integrate", None),
    ("repro.pipeline.builder", "PageExtractor.extract", "extraction.extract",
     _candidates),
    ("repro.pipeline.builder", "attach_scopes", "extraction.temporal", None),
    ("repro.pipeline.builder", "candidates_to_store", "extraction.merge", None),
    ("repro.pipeline.builder", "harvest_labels", "extraction.labels", None),
    ("repro.extraction.consistency", "ConsistencyReasoner.clean",
     "reasoning.clean", _clean_counts),
    ("repro.extraction.consistency", "solve_decomposed", "reasoning.solve",
     _flips),
]

LAYERS: dict[str, list] = {
    "build": _BUILD,
    "ingest": _BUILD + [
        ("repro.pipeline.incremental", "IncrementalBuilder.ingest",
         "pipeline.ingest", ingest_counts),
        ("repro.pipeline.builder", "KnowledgeBaseBuilder.build",
         "pipeline.rebuild", None),
        ("repro.kb.segments", "SegmentStore.logical_parts",
         "kb.logical_parts", None),
        ("repro.kb.segments", "SegmentStore.flush", "kb.flush", None),
        ("repro.kb.segments", "SegmentStore.compact", "kb.compact", None),
    ],
    "serve": [
        ("repro.serving.http", "KBServer.finish_request",
         "serving.finish_request", None),
        ("repro.serving.engine", "QueryEngine.lookup", "serving.engine", None),
        ("repro.serving.engine", "QueryEngine.topk", "serving.engine", None),
        ("repro.serving.engine", "QueryEngine.query", "serving.engine", None),
        ("repro.serving.engine", "QueryEngine.metrics", "serving.metrics",
         None),
        ("repro.kb.segments", "SegmentSnapshot.match", "kb.snapshot_match",
         None),
        ("repro.kb.query", "Query.run", "kb.query_run", None),
    ],
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself (an operation root)."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, None))

    def _wrap(
        self, owner: object, attribute: str, name: str,
        counts: Optional[Callable],
    ) -> None:
        original = getattr(owner, attribute)
        if inspect.isgeneratorfunction(original):
            wrapper = self._wrap_generator(original, name)
        else:
            wrapper = self._wrap_call(original, name, counts)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def _wrap_call(
        self, original: Callable, name: str, counts: Optional[Callable]
    ) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(
                (sid, parent, name, start, end,
                 counts(result) if counts else None)
            )
            return result

        return wrapper

    def _wrap_generator(self, original: Callable, name: str) -> Callable:
        """A generator's work happens while it is consumed, so its span
        covers the time spent inside ``next`` (start + that sum), not the
        time the caller spends between items."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else 0
            inner = original(*args, **kwargs)
            first, spent = time.perf_counter(), 0.0
            try:
                while True:
                    start = time.perf_counter()
                    stack.append(sid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spent += time.perf_counter() - start
                    yield item
            finally:
                self.spans.append(
                    (sid, parent, name, first, first + spent, None)
                )

        return wrapper

    def install(self, workload: str) -> "Tracer":
        for module_name, path, name, counts in LAYERS[workload]:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self._wrap(owner, attribute, name, counts)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def per_op(spans: list[Span], root: str) -> list[dict]:
    """Fold spans into one record per ``root`` span, in start order.

    Each record is a plain dict (missing names read as 0 through ``.get``)
    mapping ``<name>_ms`` to the total time of that name's spans
    inside the operation, ``<name>.self_ms`` to that time minus the time
    of their direct children, ``<name>.calls`` to the call count, and each
    count a wrapper took from a return value to its sum.  ``op_ms`` is the
    root's own duration.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    records = []
    for span in sorted(
        (s for s in spans if s[2] == root), key=lambda s: s[3]
    ):
        record: dict[str, float] = defaultdict(float)
        record["op_ms"] = (span[4] - span[3]) * 1000.0
        record["start"] = span[3]
        pending = list(children.get(span[0], ()))
        while pending:
            child = pending.pop()
            sid, __, name, start, end, counts = child
            duration = (end - start) * 1000.0
            nested = children.get(sid, ())
            record[f"{name}_ms"] += duration
            record[f"{name}.self_ms"] += duration - sum(
                (c[4] - c[3]) * 1000.0 for c in nested
            )
            record[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                record[key] += value
            pending.extend(nested)
        record["self_ms"] = record["op_ms"] - sum(
            (c[4] - c[3]) * 1000.0 for c in children.get(span[0], ())
        )
        records.append(dict(record))
    return records
