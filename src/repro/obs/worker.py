"""Worker-side telemetry collection and the parent-side merge.

Pool workers are separate processes: their spans and their counters
live in *their* copy of :mod:`repro.obs.trace` and the registry,
invisible to the parent.  IoTreeplay's lesson (PAPERS.md) is that
distributed replay tooling needs synchronization/timing telemetry built
into the transport to be debuggable — so this module piggybacks
telemetry on the task results themselves instead of inventing a side
channel:

* :func:`run_traced` is the worker-side wrapper the pool's
  :func:`~repro.parallel.pool.submit_task` dispatches when tracing is
  on.  It enables collection locally into a fresh
  :class:`~repro.obs.trace.ListSink`, wraps the real task body in a span
  named after the stage, and returns the payload inside a
  :class:`TaskEnvelope` carrying a :class:`TaskTelemetry`;
* :func:`absorb` (called by :func:`~repro.parallel.pool.gather` on every
  envelope it unwraps) routes the worker's spans through the parent's
  :func:`~repro.obs.trace.emit` — each already stamped with the worker's
  pid, so a single Perfetto timeline shows the whole fan-out and
  ``--stats`` counts the worker stages — merges the counter and
  histogram deltas, and feeds the two pool-level distributions:
  ``pool.queue_wait_ns`` (submit → worker pickup) and
  ``pool.task_wall_ns`` (task body wall time).

When tracing is disabled nothing here runs at all — ``submit_task``
submits the bare task body and results cross the pool unwrapped, byte
for byte as before.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from . import trace
from .metrics import REGISTRY

__all__ = [
    "TaskTelemetry",
    "TaskEnvelope",
    "run_traced",
    "absorb",
]


@dataclass(frozen=True)
class TaskTelemetry:
    """Everything one worker task observed about itself.

    ``queue_wait_ns`` is the submit-to-pickup latency measured across
    processes with epoch clocks (same machine, so comparable — clamped
    at zero against sub-resolution skew); ``task_wall_ns`` is the task
    body's wall time; ``spans`` are the task's collected spans and
    ``metric_deltas`` the worker's drained registry.
    """

    pid: int
    queue_wait_ns: int
    task_wall_ns: int
    spans: tuple[trace.SpanRecord, ...] = ()
    metric_deltas: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TaskEnvelope:
    """A task result with its telemetry riding along."""

    payload: object
    telemetry: TaskTelemetry


def run_traced(fn, task, name: str, attrs: dict, submit_ns: int) -> TaskEnvelope:
    """Worker-side: run ``fn(task)`` under a span, ship telemetry back.

    Runs in the worker process.  Collection is enabled locally (the
    worker may have been forked before the parent enabled tracing, or be
    a spawn-start process that inherited nothing) into a fresh list sink,
    so only this task's spans ship back.
    """
    collected = trace.ListSink()
    trace.enable(collected)
    REGISTRY.drain_deltas()
    start_ns = time.time_ns()
    t0 = time.perf_counter_ns()
    with trace.span(name, **attrs):
        payload = fn(task)
    wall = time.perf_counter_ns() - t0
    return TaskEnvelope(
        payload,
        TaskTelemetry(
            pid=os.getpid(),
            queue_wait_ns=max(0, start_ns - submit_ns),
            task_wall_ns=wall,
            spans=tuple(collected.spans),
            metric_deltas=REGISTRY.drain_deltas(),
        ),
    )


def absorb(telemetry: TaskTelemetry) -> None:
    """Parent-side: fold one worker task's telemetry into this process."""
    for record in telemetry.spans:
        trace.emit(record)
    REGISTRY.merge_deltas(telemetry.metric_deltas)
    REGISTRY.histogram("pool.queue_wait_ns").observe(telemetry.queue_wait_ns)
    REGISTRY.histogram("pool.task_wall_ns").observe(telemetry.task_wall_ns)
