"""Worker-side telemetry collection and the parent-side merge.

Pool workers are separate processes: their spans and their counters
live in *their* copy of :mod:`repro.obs.trace` and the registry,
invisible to the parent.  IoTreeplay's lesson (PAPERS.md) is that
distributed replay tooling needs synchronization/timing telemetry built
into the transport to be debuggable — so this module piggybacks
telemetry on the task results themselves instead of inventing a side
channel:

* :func:`run_task` is the worker-side wrapper that
  :func:`~repro.parallel.pool.fan_out` submits every task in.  It wraps
  the real task body in a span named after the stage and returns the
  payload inside a :class:`TaskEnvelope` carrying a
  :class:`TaskTelemetry`: always the worker's metric deltas and its
  queue-wait and wall times, and the task's spans (collected into a
  fresh :class:`~repro.obs.trace.ListSink`) when tracing is on;
* :func:`absorb` (called by ``fan_out`` on every envelope) routes the
  worker's spans through the parent's :func:`~repro.obs.trace.emit` —
  each already stamped with the worker's pid, so a single Perfetto
  timeline shows the whole fan-out and ``--stats`` counts the worker
  stages — merges the counter and histogram deltas, and feeds the two
  pool-level distributions: ``pool.queue_wait_ns`` (submit → worker
  pickup) and ``pool.task_wall_ns`` (task body wall time).

With tracing off no span is collected, so envelopes carry no spans;
counters and the two pool histograms still cross, so an untraced pooled
run reports the same worker counters as its serial run.
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
    "run_task",
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


def run_task(
    fn, task, name: str, attrs: dict, submit_ns: int, traced: bool
) -> TaskEnvelope:
    """Worker-side: run ``fn(task)`` under a span, ship telemetry back.

    Runs in the worker process.  The registry is drained before the task,
    so the shipped deltas are this task's alone.  With ``traced``,
    collection is enabled locally (the worker may have been forked before
    the parent enabled tracing, or be a spawn-start process that
    inherited nothing) into a fresh list sink, so only this task's spans
    ship back; otherwise it is switched off, so a worker that served a
    traced batch earlier collects nothing now.
    """
    collected = trace.ListSink()
    if traced:
        trace.enable(collected)
    else:
        trace.disable()
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
