"""The observability state: the enabled flag, span stack, and registry.

Everything lives at module level so hot call sites can gate on a single
attribute load (``core.ENABLED``) — when the flag is False no span, dict,
or float is ever allocated.  State is process-local and *per-thread*: each
thread records spans and metrics into its own registry, so server handler
threads never race on a shared span stack.

The span stack is explicit: ``span()`` pushes on ``__enter__`` and pops on
``__exit__``, attaching each finished span to its parent (or to the
finished-roots list when the stack empties).  Trace *structure* — names,
nesting, counter values — is deterministic for a deterministic program;
only the recorded wall times vary run to run, which is what the pipeline
determinism test relies on.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Optional

#: The master switch.  Read directly (``core.ENABLED``) in hot paths;
#: flipped only through :func:`enable` / :func:`disable` so the module
#: attribute stays the single source of truth.
ENABLED: bool = False

# ----------------------------------------------------------------- registry


class _State:
    """One thread's registry: counters, gauges, histograms, span stack."""

    __slots__ = ("counters", "gauges", "histograms", "stack", "roots")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, "Histogram"] = {}
        # The open-span stack and the finished top-level spans, oldest first.
        self.stack: list["Span"] = []
        self.roots: list["Span"] = []

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.stack.clear()
        self.roots.clear()


#: The main thread's registry — the one ``take_roots``/``counters`` etc.
#: read in ordinary single-threaded use.
_MAIN_STATE = _State()

_TLS = threading.local()


def _state() -> _State:
    """The calling thread's registry (the module singleton on the main
    thread, a thread-local instance on any other)."""
    if threading.current_thread() is threading.main_thread():
        return _MAIN_STATE
    state = getattr(_TLS, "state", None)
    if state is None:
        state = _TLS.state = _State()
    return state


def enable() -> None:
    """Turn instrumentation on (spans and metrics start recording)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn instrumentation off; already-recorded data is kept."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return ENABLED


def reset() -> None:
    """Drop the calling thread's recorded spans and metrics (flag kept).

    Call between pipeline runs so one run's telemetry does not bleed into
    the next — the CLI does this before ``build --trace`` and the bench
    harness before its instrumented run.
    """
    _state().clear()


# -------------------------------------------------------------------- spans


class Span:
    """One finished or in-flight region of the trace tree."""

    __slots__ = ("name", "elapsed", "counters", "children", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed: float = 0.0
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self._t0: float = 0.0

    def add(self, counter: str, n: float = 1) -> None:
        """Increment one of this span's counters."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def structure(self) -> tuple:
        """The timing-free shape: (name, counters, child structures).

        Two runs of a deterministic program produce equal structures even
        though their wall times differ.
        """
        return (
            self.name,
            tuple(sorted(self.counters.items())),
            tuple(child.structure() for child in self.children),
        )

    def to_dict(self) -> dict:
        """A JSON-able export of this span subtree."""
        return {
            "name": self.name,
            "elapsed_s": self.elapsed,
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, elapsed={self.elapsed:.6f}, "
            f"children={len(self.children)})"
        )


class _SpanHandle:
    """Context manager that opens a :class:`Span` on the global stack."""

    __slots__ = ("_span",)

    def __init__(self, name: str) -> None:
        self._span = Span(name)

    def __enter__(self) -> Span:
        opened = self._span
        _state().stack.append(opened)
        opened._t0 = time.perf_counter()
        return opened

    def __exit__(self, exc_type, exc, tb) -> bool:
        opened = self._span
        opened.elapsed = time.perf_counter() - opened._t0
        stack = _state().stack
        # Tolerate reset() having been called while this span was open.
        if stack and stack[-1] is opened:
            stack.pop()
            if stack:
                stack[-1].children.append(opened)
            else:
                _state().roots.append(opened)
        return False


class _NoopSpan:
    """The shared do-nothing handle returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, counter: str, n: float = 1) -> None:
        pass


#: The singleton returned by :func:`span` on the disabled path — the call
#: allocates nothing.
_NOOP = _NoopSpan()


def span(name: str):
    """A context manager tracing ``name``; a shared no-op when disabled."""
    if not ENABLED:
        return _NOOP
    return _SpanHandle(name)


def current_span() -> Optional[Span]:
    """The innermost open span of the calling thread, or None."""
    stack = _state().stack
    return stack[-1] if stack else None


def annotate(counter: str, n: float = 1) -> None:
    """Increment a counter on the innermost open span (no-op otherwise)."""
    if not ENABLED:
        return
    stack = _state().stack
    if stack:
        stack[-1].add(counter, n)


def take_roots() -> list[Span]:
    """The calling thread's finished top-level spans since the last reset."""
    return list(_state().roots)


# ------------------------------------------------------------------ metrics


def count(name: str, n: float = 1) -> None:
    """Increment a named counter in the calling thread's registry."""
    if not ENABLED:
        return
    counters = _state().counters
    counters[name] = counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set a named gauge to its latest value."""
    if not ENABLED:
        return
    _state().gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record one sample into a named histogram."""
    if not ENABLED:
        return
    histograms = _state().histograms
    histogram = histograms.get(name)
    if histogram is None:
        histogram = histograms[name] = Histogram(name)
    histogram.observe(value)


#: Relative accuracy of every histogram percentile: a reported value is
#: within ``ALPHA`` of the exact nearest-rank sample.
ALPHA = 0.01
#: Bucket ``i`` holds the positive samples in ``(GAMMA**(i-1), GAMMA**i]``.
_GAMMA = (1 + ALPHA) / (1 - ALPHA)
_INV_LOG_GAMMA = 1.0 / math.log(_GAMMA)


class Histogram:
    """A bounded histogram: sparse log-spaced bucket counts.

    ``count``, ``sum``, ``mean``, ``min`` and ``max`` are exact.  A
    percentile follows the nearest-rank rule over the bucket counts and
    returns its bucket's representative value, clamped to the observed
    ``[min, max]``: it is within ``ALPHA`` (1%) of the exact nearest-rank
    sample, and exact for a constant series.  Samples <= 0 share one zero
    bucket.  Memory depends on the value range — at most
    ``ceil(log(max / min) / log(GAMMA)) + 2`` buckets — never on the number
    of samples, so a long-running server can record every request.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "zeros", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self.zeros = 0
        #: Bucket index -> number of positive samples in that bucket.
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if self.count:
            if value < self.min:
                self.min = value
            elif value > self.max:
                self.max = value
        else:
            self.min = self.max = value
        self.count += 1
        self.sum += value
        if value > 0:
            index = math.ceil(math.log(value) * _INV_LOG_GAMMA)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The nearest-rank p-th percentile (p in [0, 100]), within ALPHA."""
        if not self.count:
            return 0.0
        rank = min(max(1, math.ceil(p / 100.0 * self.count)), self.count)
        seen = self.zeros
        value = 0.0
        if seen < rank:
            for index in sorted(self.buckets):
                seen += self.buckets[index]
                if seen >= rank:
                    # 2 * GAMMA**index / (GAMMA + 1), the bucket's
                    # representative, in a form that cannot overflow.
                    value = (1 + ALPHA) * _GAMMA ** (index - 1)
                    break
        return min(max(value, self.min), self.max)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict:
        """The JSON-ready digest used by exports and rendering."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


def counters() -> dict[str, float]:
    """A snapshot of the calling thread's counters."""
    return dict(_state().counters)


def gauges() -> dict[str, float]:
    """A snapshot of the calling thread's gauges."""
    return dict(_state().gauges)


def histograms() -> dict[str, Histogram]:
    """A snapshot of the histogram registry (live objects, treat read-only)."""
    return dict(_state().histograms)
