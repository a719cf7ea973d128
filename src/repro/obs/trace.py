"""Zero-dependency span tracer for the reproduction's runtime.

The paper's whole contribution is making testbed behaviour *measurable*;
this module does the same for the toolkit's own runtime.  A *span* is one
timed stage of an invocation — ``span("sim.run", run=3)`` — recorded with wall time, CPU time, process id and thread id
into a thread-safe in-memory buffer.  Exporters
(:mod:`repro.obs.export`) turn the buffer into a Chrome ``trace_event``
JSON (loadable in Perfetto), a flat JSONL log, or a human ``--stats``
table.

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
3. **Workers participate.**  Pool workers run their own buffer and ship
   it back piggybacked on task results (see :mod:`repro.obs.worker`), so
   a single exported timeline shows the whole fan-out with correct pid
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
    "TraceBuffer",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "traced",
    "records",
    "drain",
    "set_meta",
    "get_meta",
    "reset",
    "BUFFER",
    "install_sink",
    "active_sink",
    "uninstall_sink",
]

#: Module-level enable flag — the no-op fast path's only check.
_enabled: bool = False

#: Hard cap on buffered spans: tracing is stage-granular, so a real
#: invocation emits a few thousand spans at most; the cap only guards
#: against a runaway caller, and drops are counted, never silent.
MAX_BUFFERED_SPANS = 200_000


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


class TraceBuffer:
    """Thread-safe append-only span store with a drop-counting cap.

    When a *sink* is attached (:meth:`set_sink`) finished spans stream
    into it instead of accumulating here — the buffer stays empty and a
    trace of arbitrary length holds O(sink capacity) memory.  The sink
    counts its own drops; the buffer's ``dropped`` stays the in-memory
    story.
    """

    def __init__(self, max_spans: int = MAX_BUFFERED_SPANS) -> None:
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._dropped = 0
        self._high_water = 0
        self.max_spans = max_spans
        #: Streaming destination; anything with ``offer_span(record)``.
        self._sink = None

    def set_sink(self, sink) -> None:
        """Route future spans into ``sink`` (None restores buffering)."""
        self._sink = sink

    @property
    def sink(self):
        return self._sink

    def append(self, record: SpanRecord) -> None:
        sink = self._sink
        if sink is not None:
            sink.offer_span(record)
            return
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self._dropped += 1
                return
            self._spans.append(record)
            if len(self._spans) > self._high_water:
                self._high_water = len(self._spans)

    def extend(self, spans) -> None:
        sink = self._sink
        if sink is not None:
            for record in spans:
                sink.offer_span(record)
            return
        with self._lock:
            room = self.max_spans - len(self._spans)
            spans = list(spans)
            if len(spans) > room:
                self._dropped += len(spans) - room
                spans = spans[:room]
            self._spans.extend(spans)
            if len(self._spans) > self._high_water:
                self._high_water = len(self._spans)

    def records(self) -> list[SpanRecord]:
        """A snapshot of the buffered spans (buffer unchanged)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[SpanRecord]:
        """Return and clear the buffered spans."""
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    @property
    def high_water(self) -> int:
        """Most spans ever resident in memory at once (export meta)."""
        with self._lock:
            return self._high_water

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The process-global buffer every span lands in.  Workers get their own
#: copy at fork/spawn; :mod:`repro.obs.worker` ships theirs back.
BUFFER = TraceBuffer()

#: Free-form run metadata embedded into every export (seeds, command,
#: scale) so artifacts are self-describing.
_meta: dict = {}
_meta_lock = threading.Lock()


def enable() -> None:
    """Turn span collection on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn span collection off; buffered spans are kept until drained."""
    global _enabled
    _enabled = False


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
        BUFFER.append(
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


def records() -> list[SpanRecord]:
    """Snapshot of the process-global buffer."""
    return BUFFER.records()


def drain() -> list[SpanRecord]:
    """Return and clear the process-global buffer."""
    return BUFFER.drain()


def set_meta(key: str, value) -> None:
    """Attach run metadata (seed, command, scale) to future exports."""
    with _meta_lock:
        _meta[key] = value


def get_meta() -> dict:
    """A copy of the accumulated run metadata."""
    with _meta_lock:
        return dict(_meta)


def install_sink(sink) -> None:
    """Stream future spans into ``sink`` instead of buffering them.

    ``sink`` is anything with ``offer_span(record)`` — in practice a
    :class:`repro.obs.sink.SpanSink`.  The caller keeps ownership: this
    never closes a sink, it only routes spans at it.
    """
    BUFFER.set_sink(sink)


def active_sink():
    """The currently installed streaming sink, or None."""
    return BUFFER.sink


def uninstall_sink():
    """Detach and return the streaming sink (not closed), or None."""
    sink = BUFFER.sink
    BUFFER.set_sink(None)
    return sink


def reset() -> None:
    """Disable tracing, detach any sink, clear buffer and metadata (tests).

    A detached sink is *not* closed — the owner that installed it still
    holds the handle and the file.
    """
    disable()
    BUFFER.set_sink(None)
    BUFFER.drain()
    with _meta_lock:
        _meta.clear()
    with BUFFER._lock:
        BUFFER._dropped = 0
        BUFFER._high_water = 0
