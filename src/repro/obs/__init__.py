"""``repro.obs`` — structured tracing, stage metrics, worker telemetry.

The κ metric makes *testbed* behaviour measurable; this package does the
same for the toolkit's own runtime, which until now was a black box: no
logging, no timers, no visibility into the process pool.  Three layers:

* :mod:`~repro.obs.trace` — a zero-dependency span tracer
  (``span("sim.run", run=3)`` context manager and
  ``traced`` decorator) recording wall/CPU time, pid and tid into a
  thread-safe buffer, with a sub-microsecond no-op path when disabled;
* :mod:`~repro.obs.metrics` — a counter/gauge/histogram registry
  (monotonic counters, ns-resolution log2-bucket timing histograms) the
  engine feeds: task queue-wait, task wall time, shm bytes, pool
  submissions and failures, simulation runs;
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto),
  JSONL span logs, and the human ``--stats`` table;
* :mod:`~repro.obs.worker` — worker-side collection: pool tasks ship
  their spans and metric deltas back piggybacked on results
  (:class:`~repro.obs.worker.TaskTelemetry`), merged parent-side with
  correct pid attribution so one timeline shows the whole fan-out;
* :mod:`~repro.obs.sink` — the streaming span sink: bounded ring +
  background flusher writing spans and counter samples incrementally to
  JSONL/Chrome files, O(capacity) memory for traces of any length;
* :mod:`~repro.obs.live` — live telemetry: counter-track sampling on a
  tick (Chrome ``ph:"C"`` events), per-session labeled gauges, and the
  zero-dependency ``/metrics`` (Prometheus text) + ``/healthz`` server.

Surface: ``repro ... --trace FILE.json`` / ``--stats`` on every CLI
command, or ``REPRO_TRACE=FILE.json`` in the environment; long-running
commands add ``--stream-trace FILE`` (incremental, bounded memory),
``--serve-metrics PORT`` and ``--counter-tick MS``.  Observation is
inert by construction — κ and every ``MetricVector`` are bit-identical
with tracing on or off (``tests/test_obs.py``,
``tests/test_obs_live.py``).

See ``docs/observability.md`` for the span catalog and Perfetto how-to.
"""

from . import export, live, metrics, sink, trace, worker
from .export import (
    chrome_trace,
    spans_jsonl,
    stats_table,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from .live import (
    COUNTER_EVENTS,
    LIVE_GAUGES,
    CounterSampler,
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
    SpanRecord,
    TraceBuffer,
    active_sink,
    disable,
    drain,
    enable,
    get_meta,
    install_sink,
    is_enabled,
    records,
    reset,
    set_meta,
    span,
    traced,
    uninstall_sink,
)
from .worker import TaskEnvelope, TaskTelemetry, absorb, run_traced

__all__ = [
    "trace",
    "metrics",
    "export",
    "worker",
    "sink",
    "live",
    "SpanSink",
    "CounterSampler",
    "LabeledGauges",
    "MetricsServer",
    "prometheus_text",
    "COUNTER_EVENTS",
    "LIVE_GAUGES",
    "install_sink",
    "active_sink",
    "uninstall_sink",
    "histogram_quantile",
    "span",
    "traced",
    "enable",
    "disable",
    "is_enabled",
    "records",
    "drain",
    "set_meta",
    "get_meta",
    "reset",
    "SpanRecord",
    "TraceBuffer",
    "REGISTRY",
    "Registry",
    "counter",
    "gauge",
    "histogram",
    "chrome_trace",
    "write_chrome_trace",
    "spans_jsonl",
    "write_spans_jsonl",
    "stats_table",
    "validate_chrome_trace",
    "TaskTelemetry",
    "TaskEnvelope",
    "run_traced",
    "absorb",
]
