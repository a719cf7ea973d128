"""The persistent, process-global worker pool.

One ``repro report`` regenerates both tables and all thirteen figures:
before this module existed every series comparison (and every simulated
series) spun up its own :class:`~concurrent.futures.ProcessPoolExecutor`,
paying pool startup — fork, import, allocator warm-up — dozens of times
per invocation, and an exception between two series could leave a pool
running with no owner to shut it down.

This module owns exactly one pool per process instead:

* :func:`get_pool` creates it **lazily** on first use and hands the same
  executor to every caller — both fan-outs, sweep units
  (:mod:`repro.sweep.coordinator`) and whole capture pairs
  (:func:`repro.analysis.compare.analyze_directory`), draw from it
  through :func:`fan_out`;
* :func:`shutdown_pool` tears it down; the CLI calls it in a ``finally``
  so error exits cannot leak workers, and an ``atexit`` hook covers
  library users who never call it;
* :func:`pool_stats` exposes the lifecycle counters the tests assert on
  ("exactly one pool per invocation" is a tested property, not a hope).

Requesting a different worker count than the live pool has is a
**resize**: the old pool is drained and a fresh one created (job counts
never change mid-invocation in real use; tests sweep them).  Exactness is
never at stake — every consumer of the pool is bit-identical to its
serial path at any worker count — only startup cost is.

:func:`fan_out` is the one way work reaches the pool.  It submits each
task wrapped in :func:`repro.obs.worker.run_task`, which names the stage
(``sweep.unit.remote``, ``analysis.pair.whole``) and ships
the worker's metric deltas back on the result, plus its spans when
tracing (:mod:`repro.obs.trace`) is on.  It absorbs that telemetry
parent-side and yields ``(index, result)`` in completion order.  When a
task fails it cancels the rest of the batch and drains the running
tasks before re-raising.  Without the drain, sibling tasks of a failed
batch would still be running on the shared pool and would delay or
poison the *next* batch.  Failures
are counted (``pool.task_failures``), and the re-raised exception
carries the remote worker traceback string (``remote_traceback``), so a
drained batch never swallows the original cause.

Start method: workers start via **forkserver** by default — the server
process pre-imports NumPy and the task modules once
(:func:`multiprocessing.set_forkserver_preload`), so each worker forks
from a warm template instead of re-running imports (``spawn``) or
copying the parent's full heap of trial arrays (``fork``).  The
``REPRO_POOL_START`` environment variable overrides the choice
(``forkserver``/``fork``/``spawn``); unknown values fall back to the
platform default.  :func:`pool_stats` reports the live method, and every
benchmark JSON records it (:mod:`benchmarks._emit`).

:func:`default_jobs` resolves the worker count when a caller passes
none: ``REPRO_JOBS``, or 1.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed, wait
from dataclasses import dataclass

from ..obs import metrics, trace
from ..obs.worker import absorb, run_task

__all__ = [
    "default_jobs",
    "resolve_jobs",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
    "pool_scope",
    "fan_out",
    "PoolStats",
]


_lock = threading.Lock()
_executor: ProcessPoolExecutor | None = None
_executor_jobs: int = 0
_executor_start: str = ""
_created_total: int = 0

# Live task depth for the pool.tasks_inflight gauge: bumped at submit,
# decremented by a done-callback, so a /metrics scrape or counter track
# shows the pool's instantaneous backlog.
_inflight_lock = threading.Lock()
_inflight: int = 0


def _inflight_add(n: int) -> None:
    global _inflight
    with _inflight_lock:
        _inflight += n
        metrics.gauge("pool.tasks_inflight").set(_inflight)

#: Modules the forkserver template imports once; every worker forks with
#: them warm.  They are the modules of the two task functions:
#: ``repro.sweep.coordinator`` (a sweep unit: simulation, analysis and
#: store) and ``repro.analysis.compare`` (a whole pair: the capture
#: reader and the core metric kernels).
_FORKSERVER_PRELOAD = ["numpy", "repro.analysis.compare", "repro.sweep.coordinator"]


@dataclass(frozen=True)
class PoolStats:
    """Lifecycle snapshot of the global pool (for tests and diagnostics)."""

    active: bool
    jobs: int
    created_total: int
    start_method: str = ""


def pool_start_method() -> str:
    """The start method the next pool will use (``REPRO_POOL_START`` aware)."""
    method = os.environ.get("REPRO_POOL_START", "forkserver").strip().lower()
    if method not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_start_method()
    return method


def _pool_context(method: str):
    """A multiprocessing context for ``method``, preloaded when forkserver."""
    ctx = multiprocessing.get_context(method)
    if method == "forkserver":
        # Harmless if the server is already running: the preload list only
        # applies when the server process starts.  Import failures inside
        # the server are ignored by multiprocessing itself.
        ctx.set_forkserver_preload(_FORKSERVER_PRELOAD)
    return ctx


def default_jobs() -> int:
    """The worker count used when none is given: ``REPRO_JOBS``, or 1.

    Serial remains the default — parallelism is opt-in via ``--jobs`` or
    the environment.  A ``REPRO_JOBS`` that is not an integer >= 1 raises
    ``ValueError`` rather than silently running serial.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


def resolve_jobs(jobs: int | None) -> int:
    """``jobs``, or :func:`default_jobs` when ``None``; below 1 raises."""
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def get_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-global executor, created lazily with ``jobs`` workers.

    Serial paths (``jobs=1``) never touch the pool — callers must only
    ask for one when they actually fan out.
    """
    global _executor, _executor_jobs, _executor_start, _created_total
    jobs = int(jobs)
    if jobs < 2:
        raise ValueError("the worker pool is for fan-out; serial paths run in-process")
    method = pool_start_method()
    with _lock:
        if _executor is not None and (
            _executor_jobs != jobs
            or _executor_start != method
            or getattr(_executor, "_broken", False)
        ):
            _executor.shutdown(wait=True)
            _executor = None
        if _executor is None:
            _executor = ProcessPoolExecutor(
                max_workers=jobs, mp_context=_pool_context(method)
            )
            _executor_jobs = jobs
            _executor_start = method
            _created_total += 1
            metrics.counter("pool.created").add()
            metrics.gauge("pool.workers").set(jobs)
        return _executor


def shutdown_pool() -> None:
    """Drain and discard the global pool (idempotent, safe to call always)."""
    global _executor
    with _lock:
        if _executor is not None:
            _executor.shutdown(wait=True)
            _executor = None


# Library users (no CLI ``finally``) still get a clean interpreter exit.
atexit.register(shutdown_pool)


def pool_stats() -> PoolStats:
    """Current lifecycle counters."""
    with _lock:
        return PoolStats(
            active=_executor is not None,
            jobs=_executor_jobs if _executor is not None else 0,
            created_total=_created_total,
            start_method=_executor_start if _executor is not None else "",
        )


class pool_scope:
    """``with pool_scope():`` — guarantee teardown at scope exit.

    The CLI wraps each command in one so that both clean exits and
    exceptions drain the pool; nesting is harmless (teardown is
    idempotent, and an outer scope simply finds the pool already gone).
    """

    def __enter__(self) -> "pool_scope":
        return self

    def __exit__(self, *exc) -> None:
        shutdown_pool()


def fan_out(jobs: int, fn, tasks, *, name: str, attrs):
    """Run ``fn(task)`` for every task on the pool; yield ``(index, result)``.

    The one dispatch path of the package.  Every task runs inside
    :func:`repro.obs.worker.run_task`, named ``name`` and annotated with
    ``attrs[index]`` (a sequence of dicts parallel to ``tasks``).  Each
    result's telemetry is absorbed before it is yielded: the worker's
    metric deltas always, its spans when tracing is on.  Results come in
    completion order; callers that need task order place them by index.

    On failure — a task raising, or the consumer abandoning the
    iteration — every pending task is cancelled and the running ones are
    waited for, so no task of a failed batch is still running when the
    next batch reaches the pool.  Failed tasks are counted in
    ``pool.task_failures``, and a re-raised worker exception carries the
    remote traceback string as ``remote_traceback`` (and as an exception
    note on Python >= 3.11), so the drain never swallows the cause.
    """
    pool = get_pool(jobs)
    traced = trace.is_enabled()
    futures: dict[Future, int] = {}
    for i, task in enumerate(tasks):
        fut = pool.submit(
            run_task, fn, task, name, attrs[i], time.time_ns(), traced
        )
        futures[fut] = i
        metrics.counter("pool.tasks_submitted").add()
        _inflight_add(1)
        fut.add_done_callback(lambda _f: _inflight_add(-1))
    try:
        for fut in as_completed(futures):
            envelope = fut.result()
            absorb(envelope.telemetry)
            yield futures[fut], envelope.payload
    except BaseException as exc:
        for fut in futures:
            fut.cancel()
        wait(futures)
        n_failed = sum(
            1 for fut in futures
            if not fut.cancelled() and fut.exception() is not None
        )
        if n_failed:
            metrics.counter("pool.task_failures").add(n_failed)
        # ProcessPoolExecutor chains the worker traceback as a
        # _RemoteTraceback cause; surface it as a plain string so the
        # error report names the worker-side frames even after the
        # batch has been drained.
        cause = exc.__cause__
        if cause is not None and type(cause).__name__ == "_RemoteTraceback":
            remote = str(cause)
            exc.remote_traceback = remote
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(f"remote worker traceback:\n{remote}")
        raise
