"""Pluggable execution backends: serial and process pool.

The map-reduce engine and the KB pipeline fan per-record work out through
one small interface — :meth:`ExecutionBackend.map` runs a function over a
task list and returns results in task order, whatever executes them:

* :class:`SerialBackend` — in-process, in-order;
* :class:`ProcessBackend` — a real ``multiprocessing.Pool`` with a
  per-worker initializer (build the resolver/gazetteer once per process,
  not once per task) and picklable task payloads.

The process backend is **persistent**: the pool is created lazily on the
first ``map`` call and reused by every later call until :meth:`close`
(or the context manager exit).  Because the pool outlives a single
``map``, the per-call ``initializer`` is delivered per call through a
barrier-synchronized broadcast that hands exactly one setup task to each
process before any real task is dispatched.  Tasks are dispatched in
index order and :func:`_collect` reassembles results in task-index order,
so a correct caller sees byte-identical output from either backend at any
worker count.

Worker telemetry is never lost: ``repro.obs`` state is process-local by
design, so after every task the worker captures its own spans/counters
(:func:`repro.obs.core.snapshot`) and ships them back with the result;
the parent groups the snapshots by worker and folds each worker's
combined telemetry into its registry under one ``worker[<name>]`` span
(:func:`repro.obs.core.merge_snapshot`), which is the per-worker
breakdown ``build --trace`` renders.  The parent also records
``backend.tasks_dispatched``, per-worker task/busy-time histograms
(``backend.worker.tasks`` / ``backend.worker.busy_s``), and pool
lifecycle counters (``backend.pool.spinups`` / ``backend.pool.reuses``).
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Optional, Sequence, TypeVar

from ..obs import core as _obs

T = TypeVar("T")
R = TypeVar("R")

#: How long a process worker waits for its setup-broadcast peers before
#: declaring the pool wedged (a worker died mid-broadcast).
_BROADCAST_TIMEOUT_S = 300.0


def chunked(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``chunks`` contiguous, near-equal
    batches (deterministically; no empty batches)."""
    items = list(items)
    if not items:
        return []
    chunks = max(1, min(chunks, len(items)))
    size, remainder = divmod(len(items), chunks)
    batches: list[list[T]] = []
    start = 0
    for index in range(chunks):
        stop = start + size + (1 if index < remainder else 0)
        batches.append(items[start:stop])
        start = stop
    return batches


class ExecutionBackend:
    """Run a function over tasks; results come back in task order."""

    name: str = "?"
    workers: int = 1
    #: Pool lifecycle counters (stay 0 for unpooled backends).
    spinups: int = 0
    reuses: int = 0

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        *,
        initializer: Optional[Callable[..., None]] = None,
        initargs: tuple = (),
    ) -> list[R]:
        """Execute ``fn`` on every task; results in task order.

        ``initializer(*initargs)`` runs once per worker per call before
        that worker's first task (and once in-process for the serial
        backend).  No backend runs the initializer for an empty task
        list.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled workers; the next ``map`` re-creates them."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _combine_snapshots(worker: str, snaps: list[dict]) -> dict:
    """Fold one worker's per-task snapshots into a single snapshot.

    Counters add, gauges last-write-wins, histogram samples extend, spans
    concatenate — all in task order, matching what per-snapshot merging
    would have produced, but yielding exactly one ``worker[...]`` wrapper
    when the combined snapshot is merged.
    """
    combined: dict = {
        "worker": worker,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": [],
    }
    for snap in snaps:
        for name, value in snap["counters"].items():
            combined["counters"][name] = combined["counters"].get(name, 0) + value
        combined["gauges"].update(snap["gauges"])
        for name, values in snap["histograms"].items():
            combined["histograms"].setdefault(name, []).extend(values)
        combined["spans"].extend(snap["spans"])
    return combined


def _collect(outcomes) -> list:
    """Unpack index-ordered (result, snapshot) outcomes and merge telemetry.

    Snapshots are grouped by the worker that produced them (first-seen in
    task order) and merged as **one** ``worker[<name>]`` wrapper per
    worker, so a worker that ran 50 tasks contributes one wrapper span,
    not 50 siblings; per-worker task counts and busy time feed the
    utilization histograms.
    """
    results = []
    snaps_by_worker: dict[str, list[dict]] = {}
    for result, snap in outcomes:
        if snap is not None:
            snaps_by_worker.setdefault(snap["worker"], []).append(snap)
        results.append(result)
    for worker, snaps in snaps_by_worker.items():
        _obs.merge_snapshot(
            _combine_snapshots(worker, snaps), label=f"worker[{worker}]"
        )
        _obs.observe("backend.worker.tasks", len(snaps))
        _obs.observe(
            "backend.worker.busy_s",
            sum(
                span["elapsed_s"]
                for snap in snaps
                for span in snap["spans"]
            ),
        )
    return results


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the degenerate one-worker pool."""

    name = "serial"

    def map(self, fn, tasks, *, initializer=None, initargs=()):
        tasks = list(tasks)
        if not tasks:
            return []
        if _obs.ENABLED:
            _obs.count("backend.tasks_dispatched", len(tasks))
        if initializer is not None:
            initializer(*initargs)
        return [fn(task) for task in tasks]


# Worker-process globals, installed by the pool bootstrap (at worker
# creation) and the per-call broadcast (before a call's first task).
_POOL_BARRIER = None
_POOL_CALL_ID: Optional[int] = None
_POOL_FN: Optional[Callable] = None


def _pool_worker_bootstrap(barrier) -> None:
    """Runs once per worker process at pool creation."""
    global _POOL_BARRIER
    _POOL_BARRIER = barrier
    # Clear anything a forked child inherited mid-trace from the parent.
    _obs.reset()
    _obs.disable()


def _pool_install_call(payload) -> None:
    """Install one call's (fn, initializer, capture flag) in this worker.

    Exactly ``workers`` of these are dispatched per ``map`` call; the
    barrier keeps every worker parked on its setup task until all workers
    hold one, so no worker can grab two and no worker can miss the call's
    initializer.
    """
    global _POOL_CALL_ID, _POOL_FN
    call_id, setup = payload
    _POOL_BARRIER.wait(timeout=_BROADCAST_TIMEOUT_S)
    fn, initializer, initargs, capture = pickle.loads(setup)
    _obs.reset()
    if capture:
        _obs.enable()
    else:
        _obs.disable()
    if initializer is not None:
        initializer(*initargs)
    _POOL_CALL_ID, _POOL_FN = call_id, fn


def _pool_run_task(payload):
    call_id, task = payload
    if call_id != _POOL_CALL_ID:
        raise RuntimeError(
            f"worker missed the setup broadcast for call {call_id} "
            f"(has {_POOL_CALL_ID})"
        )
    result = _POOL_FN(task)
    snap = _obs.snapshot(reset=True) if _obs.ENABLED else None
    return result, snap


class ProcessBackend(ExecutionBackend):
    """A persistent ``multiprocessing.Pool``: real parallelism, picklable
    payloads.

    ``fn``, ``initializer``, and task payloads must be picklable
    (module-level functions, dataclass values) so the backend also works
    under the ``spawn`` start method.  The pool is created on the first
    ``map`` and reused until :meth:`close`; each call broadcasts its
    function and initializer to every worker through a barrier before
    dispatching tasks.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        import os

        self.workers = workers if workers else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.spinups = 0
        self.reuses = 0
        #: Transport cost of the last ``map`` call's setup broadcast:
        #: bytes pickled per worker, and the broadcast's wall time.
        self.init_payload_bytes = 0
        self.init_elapsed_s = 0.0
        self._pool = None
        self._barrier = None
        self._call_id = 0

    def _ensure_pool(self):
        import multiprocessing

        if self._pool is None:
            context = multiprocessing.get_context()
            self._barrier = context.Barrier(self.workers)
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_pool_worker_bootstrap,
                initargs=(self._barrier,),
            )
            self.spinups += 1
            if _obs.ENABLED:
                _obs.count("backend.pool.spinups")
        else:
            self.reuses += 1
            if _obs.ENABLED:
                _obs.count("backend.pool.reuses")
        return self._pool

    def map(self, fn, tasks, *, initializer=None, initargs=()):
        tasks = list(tasks)
        if not tasks:
            return []
        if _obs.ENABLED:
            _obs.count("backend.tasks_dispatched", len(tasks))
        started = time.perf_counter()
        pool = self._ensure_pool()
        self._call_id += 1
        setup = pickle.dumps((fn, initializer, initargs, _obs.ENABLED))
        # The transport cost the corpus file exists to shrink: every
        # worker receives (and unpickles) this setup blob per call.
        self.init_payload_bytes = len(setup)
        pool.map(
            _pool_install_call,
            [(self._call_id, setup)] * self.workers,
            chunksize=1,
        )
        self.init_elapsed_s = time.perf_counter() - started
        if _obs.ENABLED:
            _obs.observe("backend.init.payload_bytes", len(setup))
            _obs.observe("backend.init.elapsed_s", self.init_elapsed_s)
        # ``Pool.map`` returns results in task order.
        outcomes = pool.map(
            _pool_run_task,
            [(self._call_id, task) for task in tasks],
            chunksize=1,
        )
        if _obs.ENABLED:
            _obs.observe("backend.map.elapsed_s", time.perf_counter() - started)
        return _collect(outcomes)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._barrier = None

    def __del__(self):
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.terminate()
            except Exception:
                pass


def get_backend(workers: int = 0) -> ExecutionBackend:
    """The build's backend: serial for ``workers <= 1``, otherwise a
    process pool of exactly ``workers`` processes (the CLI's
    ``--workers N``)."""
    if workers < 0:
        raise ValueError("workers must be non-negative (0 or 1 = in-process)")
    if workers <= 1:
        return SerialBackend()
    return ProcessBackend(workers)


def advise_worker_count(workers: int, target: float = 0.75) -> Optional[dict]:
    """Utilization-driven worker-count advice from this build's telemetry.

    Reads the parent-side histograms the backends maintain per ``map``
    call — ``backend.worker.busy_s`` (summed worker busy time) and
    ``backend.map.elapsed_s`` (per-call wall time) — and compares how
    much worker capacity the build paid for against how much it used:
    ``utilization = total_busy / (workers * total_wall)``.  The
    recommendation sizes the pool so the same busy time would land near
    ``target`` utilization, clamped to [1, cpu_count].  Returns None when
    the build produced no multi-worker telemetry (serial build, tracing
    disabled, or empty task lists).
    """
    import os

    if workers <= 1:
        return None
    histograms = _obs.histograms()
    busy = histograms.get("backend.worker.busy_s")
    wall = histograms.get("backend.map.elapsed_s")
    if busy is None or wall is None or not busy.values or not wall.values:
        return None
    total_busy = sum(busy.values)
    total_wall = sum(wall.values)
    if total_wall <= 0.0 or total_busy <= 0.0:
        return None
    utilization = total_busy / (workers * total_wall)
    cpus = os.cpu_count() or 1
    recommended = max(1, min(cpus, round(workers * utilization / target)))
    return {
        "workers": workers,
        "utilization": utilization,
        "busy_s": total_busy,
        "wall_s": total_wall,
        "recommended": recommended,
        "cpus": cpus,
    }
