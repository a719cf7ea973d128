"""The trace sink: the one writer of ``--trace`` files.

Each span routed here by :func:`repro.obs.trace.emit` is encoded,
written and flushed under one lock by the thread that finished it.
Nothing is queued and no thread is started: memory is O(1) at any trace
length, and a killed run keeps every event it wrote.

* **Complete.**  The only drops are offers after :meth:`SpanSink.close`
  and events after a write error.  Both are counted (``dropped``, the
  ``obs.sink.dropped`` counter and the trailing metadata).  The first
  write error is counted (``obs.sink.io_errors``), never raised, and
  stops further writes; :meth:`close` still tries to append the
  trailing metadata so the file says how much it lost.
* **Counter samples.**  After writing a span, if at least
  :data:`COUNTER_SAMPLE_INTERVAL_NS` has passed since the last sample,
  the sink reads the registry's counters and gauges plus the labeled
  :data:`~repro.obs.live.LIVE_GAUGES` and writes one counter event per
  value that changed (labeled gauges as ``name{k=v,...}`` tracks).
  :meth:`close` always takes a final sample.  Sampling reads snapshots
  only, so it can never change a metric output.
* **Crash-useful files.**  The file uses the Chrome ``trace_event``
  *JSON Array Format*, which Perfetto loads even without its closing
  bracket.  A clean :meth:`close` appends a ``trace_meta`` event (run
  metadata, drop count, event tally) and the closing bracket.

One format, whatever the path's suffix: a JSON array of ``trace_event``
objects — ``ph:"X"`` complete events for spans, ``ph:"C"`` counter
events for sampled metrics (one Perfetto counter track per metric
name), ``ph:"M"`` ``process_name`` metadata on first sight of each pid,
and one final ``ph:"i"`` ``trace_meta`` instant event.

Install with :func:`repro.obs.trace.enable`; from a shell, every CLI
command takes ``--trace FILE`` (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from . import metrics, trace
from .live import LIVE_GAUGES

__all__ = ["SpanSink", "COUNTER_SAMPLE_INTERVAL_NS"]

#: Least time between two counter samples (250 ms).  Samples are taken
#: when a span is written, so a run with no spans in between samples less.
COUNTER_SAMPLE_INTERVAL_NS = 250_000_000


class SpanSink:
    """Synchronous trace writer of a Chrome ``trace_event`` array."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        #: Epoch-ns origin of the Chrome timeline (sink creation time).
        self.origin_ns = time.time_ns()
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._dropped = 0
        self._written = 0
        self._closed = False
        self._io_error: BaseException | None = None
        self._seen_pids: set[int] = set()
        self._first_event = True
        self._last_sample_ns = 0
        self._last_values: dict[str, float] = {}
        self._file = open(self.path, "w", encoding="utf-8")
        self._file.write("[\n")

    def offer_span(self, record: trace.SpanRecord) -> bool:
        """Write one finished span; False (and a counted drop) if it can't."""
        with self._lock:
            if not self._write(self._span_lines(record), 1):
                return False
            now = time.time_ns()
            if now - self._last_sample_ns >= COUNTER_SAMPLE_INTERVAL_NS:
                self._sample(now)
        return True

    # ------------------------------------------------------------------
    # Writing (callers hold the lock)
    # ------------------------------------------------------------------
    def _write(self, lines: list[str], n_events: int) -> bool:
        if self._closed or self._io_error is not None:
            self._drop(n_events)
            return False
        chunk = ("" if self._first_event else ",\n") + ",\n".join(lines)
        try:
            self._file.write(chunk)
            self._file.flush()
        except OSError as exc:  # disk full / closed fd: count, don't crash
            self._io_error = exc
            metrics.counter("obs.sink.io_errors").add()
            self._drop(n_events)
            return False
        self._first_event = False
        self._written += n_events
        return True

    def _drop(self, n_events: int) -> None:
        self._dropped += n_events
        metrics.counter("obs.sink.dropped").add(n_events)

    def _sample(self, now_ns: int) -> None:
        """Write one counter event per registry/live metric that changed."""
        self._last_sample_ns = now_ns
        if self._closed or self._io_error is not None:
            return
        snap = metrics.REGISTRY.snapshot()
        series = [(name, float(v)) for name, v in snap["counters"].items()]
        series.extend((name, float(v)) for name, v in snap["gauges"].items())
        for name, labels, value in LIVE_GAUGES.snapshot():
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                name = f"{name}{{{rendered}}}"
            series.append((name, value))
        lines = []
        for name, value in series:
            if self._last_values.get(name) != value:
                self._last_values[name] = value
                lines.append(self._counter_line(name, now_ns, value))
        if lines:
            self._write(lines, len(lines))

    def _span_lines(self, s: trace.SpanRecord) -> list[str]:
        lines = []
        if s.pid not in self._seen_pids:
            self._seen_pids.add(s.pid)
            label = "repro (parent)" if s.pid == self._pid else f"worker {s.pid}"
            lines.append(json.dumps({
                "name": "process_name", "ph": "M", "pid": s.pid, "tid": 0,
                "args": {"name": label},
            }))
        args = dict(s.attrs)
        args["cpu_ms"] = s.cpu_ns / 1e6
        lines.append(json.dumps({
            "name": s.name,
            "cat": "repro",
            "ph": "X",
            "ts": self._ts_us(s.start_ns),
            "dur": s.dur_ns / 1e3,
            "pid": s.pid,
            "tid": s.tid,
            "args": args,
        }))
        return lines

    def _counter_line(self, name: str, ts_ns: int, value: float) -> str:
        return json.dumps({
            "name": name,
            "cat": "repro",
            "ph": "C",
            "ts": self._ts_us(ts_ns),
            "pid": self._pid,
            "tid": 0,
            "args": {"value": value},
        })

    def _ts_us(self, ts_ns: int) -> float:
        return max(0.0, (ts_ns - self.origin_ns) / 1e3)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self, *, meta: dict | None = None) -> None:
        """Take a final counter sample, append the trailing metadata, close.

        Idempotent; offers after the first call are counted drops.
        """
        with self._lock:
            if self._closed:
                return
            self._sample(time.time_ns())
            self._closed = True
            doc = dict(trace.get_meta())
            if meta:
                doc.update(meta)
            doc.setdefault("parent_pid", self._pid)
            doc.update(
                sink_dropped=self._dropped,
                sink_events_written=self._written,
            )
            tail = ("" if self._first_event else ",\n") + json.dumps({
                "name": "trace_meta",
                "ph": "i",
                "s": "g",
                "ts": self._ts_us(time.time_ns()),
                "pid": self._pid,
                "tid": 0,
                "args": doc,
            }) + "\n]\n"
            try:
                self._file.write(tail)
                self._file.flush()
            except OSError:
                metrics.counter("obs.sink.io_errors").add()
            finally:
                self._file.close()

    @property
    def dropped(self) -> int:
        """Events offered after close or after a write error."""
        with self._lock:
            return self._dropped

    @property
    def events_written(self) -> int:
        """Events successfully handed to the file so far."""
        with self._lock:
            return self._written

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def io_error(self) -> BaseException | None:
        """The first write failure, if any (writes stop after it)."""
        return self._io_error

    def __enter__(self) -> "SpanSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
