"""Zero-dependency span tracer for the reproduction's runtime.

The paper's whole contribution is making testbed behaviour *measurable*;
this module does the same for the toolkit's own runtime.  A *span* is one
timed stage of an invocation — ``span("sim.run", run=3)`` — recorded with
wall time, CPU time, process id and thread id.  Every finished span goes
through one routing point, :func:`emit`, which folds it into per-stage
totals (count, wall, CPU, max per span name — what ``--stats`` reads,
bounded by the number of stage names) and offers it to the one installed
sink: a :class:`~repro.obs.sink.SpanSink` writing it to the ``--trace``
file on the emitting thread, or a :class:`ListSink` collecting one
worker task's spans (and a test's).  Nothing here holds spans itself.

Design constraints, in priority order:

1. **Disabled means free.**  Tracing is off by default; ``span()`` with
   the module flag down returns a shared no-op context manager without
   allocating a record — well under a microsecond per call
   (``tests/test_obs.py`` guards this).  Spans are placed at *stage and
   task* granularity only (a comparison emits dozens, never one per
   packet), so the instrumented engine's wall time with tracing off is
   the pre-instrumentation wall time.
2. **Observation never changes results.**  Nothing in this package feeds
   back into any metric; the differential guard
   (``tests/test_obs.py::TestTracingIsInert``) proves κ and every
   :class:`~repro.core.kappa.MetricVector` are bit-identical with
   tracing on and off.
3. **Workers participate.**  Pool workers collect each task's spans in a
   :class:`ListSink` and ship them back piggybacked on the task result
   (see :mod:`repro.obs.worker`); the parent routes them through
   :func:`emit`, so one timeline shows the whole fan-out with correct pid
   attribution.

Span naming convention: ``package.stage.substage`` — e.g.
``testbed.record``, ``sim.run``, ``analysis.pair.whole``,
``analysis.fused.timings``.  The catalog lives in
``docs/observability.md``.

Clocks: span start is :func:`time.time_ns` (epoch — comparable across
the processes of one machine, which is what lets parent and worker spans
share a timeline); duration is :func:`time.perf_counter_ns`
(monotonic); CPU time is :func:`time.thread_time_ns`.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "ListSink",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "traced",
    "emit",
    "stage_totals",
    "set_meta",
    "get_meta",
    "reset",
]

#: Module-level enable flag — the no-op fast path's only check.
_enabled: bool = False

#: Where :func:`emit` offers finished spans (anything with
#: ``offer_span(record)``); None keeps the per-stage totals only.
_sink = None

#: Per-stage totals ``name -> [count, wall_ns, cpu_ns, max_ns]`` and the
#: pids that emitted them: memory bounded by stage names and processes.
_totals: dict[str, list[int]] = {}
_pids: set[int] = set()
_totals_lock = threading.Lock()


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span.

    ``start_ns`` is epoch nanoseconds (cross-process comparable);
    ``dur_ns`` is monotonic-clock duration; ``cpu_ns`` is the thread's
    CPU time spent inside the span.  ``attrs`` carries the caller's
    keyword annotations (small scalars only, by convention).
    """

    name: str
    start_ns: int
    dur_ns: int
    cpu_ns: int
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)


class ListSink:
    """A sink that keeps every offered span in :attr:`spans`.

    Unbounded by design, so it is only for short collections: one worker
    task's spans (:func:`repro.obs.worker.run_task`) or a test's.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []

    def offer_span(self, record: SpanRecord) -> bool:
        self.spans.append(record)
        return True


#: Free-form run metadata (seeds, command, scale) written into the trace
#: file's trailing metadata and the ``--stats`` header, so artifacts are
#: self-describing.
_meta: dict = {}
_meta_lock = threading.Lock()


def enable(sink=None) -> None:
    """Turn span collection on, routing finished spans at ``sink``.

    ``sink`` is anything with ``offer_span(record)`` — a
    :class:`~repro.obs.sink.SpanSink` or a :class:`ListSink` — and
    replaces any sink installed before; None keeps only the per-stage
    totals (``--stats`` without ``--trace``).  The caller keeps
    ownership: this never closes a sink, it only routes spans at it.
    """
    global _enabled, _sink
    _sink = sink
    _enabled = True


def disable() -> None:
    """Turn span collection off and detach the sink (which stays open)."""
    global _enabled, _sink
    _enabled = False
    _sink = None


def is_enabled() -> bool:
    """Whether spans are currently being collected in this process."""
    return _enabled


class _NoopSpan:
    """The shared disabled-mode context manager: does nothing, fast."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    """A live span: times itself from ``__enter__`` to ``__exit__``."""

    __slots__ = ("name", "attrs", "_start_ns", "_t0", "_cpu0")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._start_ns = time.time_ns()
        self._cpu0 = time.thread_time_ns()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter_ns() - self._t0
        cpu = time.thread_time_ns() - self._cpu0
        if exc_type is not None:
            # Annotate rather than suppress: the span shows *where* the
            # failure spent its time, the exception still propagates.
            self.attrs["error"] = exc_type.__name__
        emit(
            SpanRecord(
                name=self.name,
                start_ns=self._start_ns,
                dur_ns=dur,
                cpu_ns=cpu,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self.attrs,
            )
        )
        return False


def span(name: str, **attrs):
    """A context manager timing one named stage.

    With tracing disabled this returns a shared no-op object without
    allocating anything — the fast path the engine's call sites rely on.
    ``attrs`` annotate the span (keep them small scalars: run
    indices, row counts).
    """
    if not _enabled:
        return _NOOP
    return _Span(name, attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form: time every call of the wrapped function.

    The enable flag is checked per *call*, not at decoration time, so
    decorating at import (before the CLI enables tracing) still works.
    """

    def deco(fn):
        span_name = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def emit(record: SpanRecord) -> None:
    """Route one finished span: per-stage totals, then the installed sink.

    The one place spans go — live spans on exit, and worker spans the
    parent absorbs from task results.
    """
    with _totals_lock:
        row = _totals.get(record.name)
        if row is None:
            row = _totals[record.name] = [0, 0, 0, 0]
        row[0] += 1
        row[1] += record.dur_ns
        row[2] += record.cpu_ns
        row[3] = max(row[3], record.dur_ns)
        _pids.add(record.pid)
    sink = _sink
    if sink is not None:
        sink.offer_span(record)


def stage_totals() -> tuple[dict[str, tuple[int, int, int, int]], int]:
    """``({name: (count, wall_ns, cpu_ns, max_ns)}, n_processes)`` so far."""
    with _totals_lock:
        return {name: tuple(row) for name, row in _totals.items()}, len(_pids)


def set_meta(key: str, value) -> None:
    """Attach run metadata (seed, command, scale) to the trace and stats."""
    with _meta_lock:
        _meta[key] = value


def get_meta() -> dict:
    """A copy of the accumulated run metadata."""
    with _meta_lock:
        return dict(_meta)


def reset() -> None:
    """Disable tracing, detach any sink, clear totals and metadata (tests).

    A detached sink is *not* closed — the owner that installed it still
    holds the handle and the file.
    """
    disable()
    with _totals_lock:
        _totals.clear()
        _pids.clear()
    with _meta_lock:
        _meta.clear()
