"""Streaming span sink: the one writer of ``--trace`` files.

Every trace file — a table regeneration or a ``repro monitor`` watching
sessions for hours — is written the same way: spans (routed here by
:func:`repro.obs.trace.emit`) and counter samples (from
:class:`repro.obs.live.CounterSampler`) are *offered* into a **bounded
ring** and a background **flusher thread** writes them incrementally to
disk, so a trace of arbitrary length holds O(capacity) memory and the
file is useful the moment it is written.  Contracts, in priority order:

1. **Never block the engine.**  :meth:`SpanSink.offer_span` /
   :meth:`SpanSink.offer_counter` are lock-append-notify; when the ring
   is full (the flusher can't keep up) the event is **dropped and
   counted** (``dropped`` / the ``obs.sink.dropped`` counter), never
   silently and never by stalling the caller.
2. **Bounded memory.**  Queued events never exceed ``capacity``; the
   high-water mark is tracked (``high_water``) and written into the
   trailing metadata, so a trace is self-describing about how close it
   came to dropping (``tests/test_obs_live.py`` pins flatness at 10×
   span count).
3. **Crash-useful files.**  Both formats are append-ordered: the JSONL
   file is valid line-by-line at any truncation point, and the Chrome
   file uses the ``trace_event`` *JSON Array Format*, which Perfetto
   loads even without its closing bracket.  A clean :meth:`close`
   appends a ``trace_meta`` instant event (run metadata, drop count,
   high-water mark, event tally) and the closing bracket.

Formats (chosen from the path suffix, or forced with ``fmt=``):

* ``chrome`` (``*.json``) — a JSON array of ``trace_event`` objects:
  ``ph:"X"`` complete events for spans, ``ph:"C"`` counter events for
  sampled metrics (one Perfetto counter track per metric name),
  ``ph:"M"`` ``process_name`` metadata on first sight of each pid, and
  one final ``ph:"i"`` ``trace_meta`` instant event.
* ``jsonl`` (``*.jsonl``) — one JSON object per line with a ``type``
  marker (``span`` / ``counter`` / ``meta``) for ``jq``/pandas
  digestion; span lines carry ``name``, ``start_ns``, ``dur_ns``,
  ``cpu_ns``, ``pid``, ``tid`` and (when set) ``attrs``.

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

__all__ = ["SpanSink", "DEFAULT_CAPACITY", "DEFAULT_FLUSH_INTERVAL_S"]

#: Default ring capacity: ~8k queued events is a few MB at most, while a
#: flusher servicing a local file drains thousands of events per tick.
DEFAULT_CAPACITY = 8192

#: Default flusher wake-up period.  The flusher also wakes on every
#: enqueue past half capacity, so the interval only bounds file latency,
#: not memory.
DEFAULT_FLUSH_INTERVAL_S = 0.05

# Internal event kinds queued in the ring.
_SPAN = 0
_COUNTER = 1


class SpanSink:
    """Bounded ring + background flusher writing spans/counters to a file.

    ``path`` decides the format (``*.jsonl`` → JSONL, anything else →
    Chrome array) unless ``fmt`` (``"chrome"``/``"jsonl"``) overrides it.
    ``autostart=False`` leaves the flusher stopped — the deterministic
    mode the backpressure tests use; call :meth:`start` (or
    :meth:`close`, which flushes synchronously) yourself.
    """

    def __init__(
        self,
        path,
        *,
        fmt: str | None = None,
        capacity: int = DEFAULT_CAPACITY,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
        autostart: bool = True,
    ) -> None:
        self.path = Path(path)
        if fmt is None:
            fmt = "jsonl" if self.path.suffix == ".jsonl" else "chrome"
        if fmt not in ("chrome", "jsonl"):
            raise ValueError(f"unknown sink format {fmt!r}")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.fmt = fmt
        self.capacity = int(capacity)
        self.flush_interval_s = float(flush_interval_s)
        #: Epoch-ns origin of the Chrome timeline (sink creation time).
        self.origin_ns = time.time_ns()

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: list[tuple] = []
        self._dropped = 0
        self._high_water = 0
        self._written = 0
        self._closed = False
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._io_error: BaseException | None = None

        # Writer-thread-only state (no lock needed: one consumer).
        self._seen_pids: set[int] = set()
        self._first_event = True
        self._file = open(self.path, "w", encoding="utf-8")
        if self.fmt == "chrome":
            self._file.write("[\n")
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Producer side (engine threads)
    # ------------------------------------------------------------------
    def offer_span(self, record: trace.SpanRecord) -> bool:
        """Enqueue one finished span; False (and a counted drop) when full."""
        return self._offer((_SPAN, record))

    def offer_counter(
        self, name: str, ts_ns: int, value: float, pid: int | None = None
    ) -> bool:
        """Enqueue one counter sample (a ``ph:"C"`` event / JSONL line)."""
        if pid is None:
            pid = os.getpid()
        return self._offer((_COUNTER, name, int(ts_ns), float(value), pid))

    def _offer(self, item: tuple) -> bool:
        with self._cond:
            if self._closed or len(self._queue) >= self.capacity:
                self._dropped += 1
                metrics.counter("obs.sink.dropped").add()
                return False
            self._queue.append(item)
            depth = len(self._queue)
            if depth > self._high_water:
                self._high_water = depth
            if depth >= self.capacity // 2 or self._stopping:
                self._cond.notify()
        return True

    # ------------------------------------------------------------------
    # Flusher side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background flusher (idempotent)."""
        with self._lock:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-span-sink", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._queue and not self._stopping:
                    self._cond.wait(timeout=self.flush_interval_s)
                batch, self._queue = self._queue, []
                stopping = self._stopping
            if batch:
                self._write_batch(batch)
            if stopping and not batch:
                return

    def _write_batch(self, batch: list[tuple]) -> None:
        if self._io_error is not None:
            with self._lock:
                self._dropped += len(batch)
            return
        try:
            lines = []
            for item in batch:
                if item[0] == _SPAN:
                    lines.extend(self._span_lines(item[1]))
                else:
                    lines.append(self._counter_line(item))
            self._emit_lines(lines)
            self._file.flush()
            with self._lock:
                self._written += len(batch)
        except OSError as exc:  # disk full / closed fd: count, don't crash
            self._io_error = exc
            metrics.counter("obs.sink.io_errors").add()
            with self._lock:
                self._dropped += len(batch)

    def _emit_lines(self, lines: list[str]) -> None:
        if self.fmt == "jsonl":
            self._file.write("".join(line + "\n" for line in lines))
            return
        for line in lines:
            if self._first_event:
                self._first_event = False
                self._file.write(line)
            else:
                self._file.write(",\n" + line)

    def _span_lines(self, s: trace.SpanRecord) -> list[str]:
        if self.fmt == "jsonl":
            doc = {
                "type": "span",
                "name": s.name,
                "start_ns": s.start_ns,
                "dur_ns": s.dur_ns,
                "cpu_ns": s.cpu_ns,
                "pid": s.pid,
                "tid": s.tid,
            }
            if s.attrs:
                doc["attrs"] = s.attrs
            return [json.dumps(doc)]
        lines = []
        if s.pid not in self._seen_pids:
            self._seen_pids.add(s.pid)
            parent = os.getpid()
            label = "repro (parent)" if s.pid == parent else f"worker {s.pid}"
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
            "ts": max(0.0, (s.start_ns - self.origin_ns) / 1e3),
            "dur": s.dur_ns / 1e3,
            "pid": s.pid,
            "tid": s.tid,
            "args": args,
        }))
        return lines

    def _counter_line(self, item: tuple) -> str:
        _, name, ts_ns, value, pid = item
        if self.fmt == "jsonl":
            return json.dumps({
                "type": "counter", "name": name, "ts_ns": ts_ns,
                "value": value, "pid": pid,
            })
        return json.dumps({
            "name": name,
            "cat": "repro",
            "ph": "C",
            "ts": max(0.0, (ts_ns - self.origin_ns) / 1e3),
            "pid": pid,
            "tid": 0,
            "args": {"value": value},
        })

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self, *, meta: dict | None = None) -> None:
        """Flush everything, append the trailing metadata, close the file.

        Idempotent.  When the flusher never started (``autostart=False``
        and no :meth:`start`), the queue is drained synchronously here —
        nothing offered before ``close`` is lost.
        """
        with self._cond:
            if self._closed:
                return
            self._stopping = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()
        # Synchronous drain covers the never-started case (and is a no-op
        # after a joined flusher: the queue is empty).
        with self._lock:
            batch, self._queue = self._queue, []
        if batch:
            self._write_batch(batch)
        with self._lock:
            self._closed = True
        doc = dict(trace.get_meta())
        if meta:
            doc.update(meta)
        doc.setdefault("parent_pid", os.getpid())
        doc.update(
            sink_dropped=self._dropped,
            sink_high_water=self._high_water,
            sink_events_written=self._written,
        )
        try:
            if self.fmt == "jsonl":
                self._file.write(json.dumps({"type": "meta", **doc}) + "\n")
            else:
                self._emit_lines([json.dumps({
                    "name": "trace_meta",
                    "ph": "i",
                    "s": "g",
                    "ts": max(0.0, (time.time_ns() - self.origin_ns) / 1e3),
                    "pid": os.getpid(),
                    "tid": 0,
                    "args": doc,
                })])
                self._file.write("\n]\n")
            self._file.flush()
        except OSError:
            metrics.counter("obs.sink.io_errors").add()
        finally:
            self._file.close()

    @property
    def dropped(self) -> int:
        """Events dropped because the ring was full (or IO failed)."""
        with self._lock:
            return self._dropped

    @property
    def high_water(self) -> int:
        """Most events ever queued at once (≤ ``capacity`` by contract)."""
        with self._lock:
            return self._high_water

    @property
    def events_written(self) -> int:
        """Events successfully handed to the file so far."""
        with self._lock:
            return self._written

    @property
    def queued(self) -> int:
        """Events currently waiting for the flusher."""
        with self._lock:
            return len(self._queue)

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
