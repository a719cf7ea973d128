"""``repro.obs`` — structured tracing, stage metrics, worker telemetry.

The κ metric makes *testbed* behaviour measurable; this package does the
same for the toolkit's own runtime, which until now was a black box: no
logging, no timers, no visibility into the process pool.  The layers:

* :mod:`~repro.obs.trace` — a zero-dependency span tracer
  (``span("sim.run", run=3)`` context manager and ``traced`` decorator)
  recording wall/CPU time, pid and tid, with a sub-microsecond no-op
  path when disabled.  Finished spans go through one routing point into
  per-stage totals and the one installed sink;
* :mod:`~repro.obs.metrics` — a counter/gauge/histogram registry
  (monotonic counters, ns-resolution log2-bucket timing histograms) the
  engine feeds: task queue-wait, task wall time, pool submissions and
  failures, simulation runs;
* :mod:`~repro.obs.sink` — the trace writer: each span is written and
  flushed as it finishes, with counter samples taken on the way, to a
  Chrome ``trace_event`` array file — no queue, no thread, O(1) memory
  for traces of any length;
* :mod:`~repro.obs.export` — the human ``--stats`` table and the trace
  validator;
* :mod:`~repro.obs.worker` — worker-side collection: pool tasks ship
  their spans and metric deltas back piggybacked on results
  (:class:`~repro.obs.worker.TaskTelemetry`), routed parent-side with
  correct pid attribution so one timeline shows the whole fan-out;
* :mod:`~repro.obs.live` — live telemetry: per-session labeled gauges
  (sampled into the trace's counter tracks by the sink) and the
  zero-dependency ``/metrics`` (Prometheus text) + ``/healthz`` server.

Surface: every CLI command takes ``--trace FILE`` (or ``REPRO_TRACE``;
a Chrome trace at any suffix), ``--stats`` and ``--serve-metrics PORT``.
Observation is inert by construction — κ and every ``MetricVector`` are
bit-identical with tracing on or off (``tests/test_obs.py``,
``tests/test_obs_live.py``).

See ``docs/observability.md`` for the span catalog and Perfetto how-to.
"""

from . import export, live, metrics, sink, trace, worker
from .export import stats_table, validate_chrome_trace
from .live import (
    LIVE_GAUGES,
    LabeledGauges,
    MetricsServer,
    prometheus_text,
)
from .metrics import (
    REGISTRY,
    Registry,
    counter,
    gauge,
    histogram,
    histogram_quantile,
)
from .sink import SpanSink
from .trace import (
    ListSink,
    SpanRecord,
    disable,
    enable,
    get_meta,
    is_enabled,
    reset,
    set_meta,
    span,
    stage_totals,
    traced,
)
from .worker import TaskEnvelope, TaskTelemetry, absorb, run_task

__all__ = [
    "trace",
    "metrics",
    "export",
    "worker",
    "sink",
    "live",
    "SpanSink",
    "ListSink",
    "LabeledGauges",
    "MetricsServer",
    "prometheus_text",
    "LIVE_GAUGES",
    "histogram_quantile",
    "span",
    "traced",
    "enable",
    "disable",
    "is_enabled",
    "stage_totals",
    "set_meta",
    "get_meta",
    "reset",
    "SpanRecord",
    "REGISTRY",
    "Registry",
    "counter",
    "gauge",
    "histogram",
    "stats_table",
    "validate_chrome_trace",
    "TaskTelemetry",
    "TaskEnvelope",
    "run_task",
    "absorb",
]
