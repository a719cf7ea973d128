"""Live telemetry: labeled gauges and a `/metrics` exposition.

The registry (:mod:`repro.obs.metrics`) is a snapshot-at-exit story;
this module makes it *watchable* while the process runs — the layer
PASTRAMI argues for (performance is only trustworthy when instability
is observed continuously, PAPERS.md) and the per-node live telemetry
IoTreeplay builds replay coordination on.  Two pieces, both
zero-dependency:

* :class:`LabeledGauges` — last-write-wins gauges with labels, for the
  metrics the flat registry can't name: ``monitor.window_kappa`` keyed
  by session.  :class:`~repro.analysis.streamkappa.KappaMonitor`
  publishes here on every window close, and the ``--trace``
  :class:`~repro.obs.sink.SpanSink` samples these gauges with the
  registry into Chrome ``ph:"C"`` counter tracks (one per session).
* :class:`MetricsServer` — an opt-in ``http.server``-based snapshot
  server (``--serve-metrics PORT`` / ``REPRO_METRICS_PORT``):
  ``/metrics`` renders the registry and the labeled gauges in Prometheus
  text exposition format 0.0.4 (:func:`prometheus_text` — log2-ns
  histograms become cumulative ``le`` buckets), ``/healthz`` a JSON
  snapshot (uptime, run metadata, counters, gauges).  Serving reads
  snapshots only: like every :mod:`repro.obs` layer it is **inert** —
  a scraped run produces bit-identical metric outputs to an unscraped
  one (the differential guard in ``tests/test_obs_live.py``).
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time

from . import trace
from .metrics import REGISTRY, Registry, bucket_bounds

__all__ = [
    "LabeledGauges",
    "LIVE_GAUGES",
    "MetricsServer",
    "prometheus_text",
]


# ----------------------------------------------------------------------
# Labeled gauges (the per-session κ channel)
# ----------------------------------------------------------------------

class LabeledGauges:
    """Thread-safe last-write-wins gauges with label sets.

    The flat registry names one value per metric; live monitoring needs
    one value per (metric, labels) — ``monitor.window_kappa`` per
    session.  Writers call :meth:`set` from wherever the value is born
    (a window close, a sweep unit completion); readers take
    :meth:`snapshot`.  Values are plain floats: this is an observation
    channel, never an input to any metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}

    def set(self, name: str, labels: dict, value: float) -> None:
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        with self._lock:
            self._values[key] = float(value)

    def snapshot(self) -> list[tuple[str, dict, float]]:
        """``(name, labels, value)`` triples, sorted for stable output."""
        with self._lock:
            items = sorted(self._values.items())
        return [(name, dict(labels), value) for (name, labels), value in items]

    def reset(self) -> None:
        """Drop every gauge (tests)."""
        with self._lock:
            self._values.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


#: The process-global labeled-gauge store (sessions' windowed κ lives here).
LIVE_GAUGES = LabeledGauges()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """A registry metric name as a Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_number(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(
    registry: Registry | None = None, live: LabeledGauges | None = None
) -> str:
    """The registry + labeled gauges in Prometheus text format 0.0.4.

    Counters get a ``_total`` suffix, gauges map directly, and the
    log2-ns histograms render as native Prometheus histograms: cumulative
    ``_bucket{le="..."}`` series at the power-of-two upper bounds (only
    up to the highest occupied bucket, then ``+Inf``), plus ``_sum`` and
    ``_count``.  Values are nanoseconds — the ``_ns`` in every histogram
    name says so.
    """
    registry = REGISTRY if registry is None else registry
    live = LIVE_GAUGES if live is None else live
    snap = registry.snapshot()
    lines: list[str] = []

    for name in sorted(snap["counters"]):
        prom = _prom_name(name) + "_total"
        lines.append(f"# HELP {prom} repro counter {name}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snap['counters'][name]}")

    for name in sorted(snap["gauges"]):
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} repro gauge {name}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_number(snap['gauges'][name])}")

    by_name: dict[str, list[tuple[dict, float]]] = {}
    for name, labels, value in live.snapshot():
        by_name.setdefault(name, []).append((labels, value))
    for name in sorted(by_name):
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} repro live gauge {name}")
        lines.append(f"# TYPE {prom} gauge")
        for labels, value in by_name[name]:
            if labels:
                rendered = ",".join(
                    f'{_NAME_RE.sub("_", k)}="{_prom_label_value(str(v))}"'
                    for k, v in sorted(labels.items())
                )
                lines.append(f"{prom}{{{rendered}}} {_prom_number(value)}")
            else:
                lines.append(f"{prom} {_prom_number(value)}")

    for name in sorted(snap["histograms"]):
        h = snap["histograms"][name]
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} repro log2-ns histogram {name}")
        lines.append(f"# TYPE {prom} histogram")
        occupied = [i for i, c in enumerate(h["counts"]) if c]
        cum = 0
        for i in range(occupied[-1] + 1 if occupied else 0):
            cum += h["counts"][i]
            le = bucket_bounds(i)[1]
            lines.append(f'{prom}_bucket{{le="{le}"}} {cum}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{prom}_sum {h['total']}")
        lines.append(f"{prom}_count {h['count']}")

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The exposition server
# ----------------------------------------------------------------------

class MetricsServer:
    """Zero-dependency ``/metrics`` + ``/healthz`` snapshot server.

    Binds ``host:port`` at construction (``port=0`` asks the OS for an
    ephemeral port — read :attr:`port` for the real one), serves from a
    daemon thread after :meth:`start`.  Opt-in only: the CLI starts one
    for ``--serve-metrics PORT`` / ``REPRO_METRICS_PORT``.  Handlers
    read registry snapshots — serving can never perturb a metric output.
    """

    def __init__(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        registry: Registry | None = None,
        live: LabeledGauges | None = None,
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = REGISTRY if registry is None else registry
        live = LIVE_GAUGES if live is None else live
        started_ns = time.time_ns()

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = prometheus_text(registry, live).encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/healthz":
                    snap = registry.snapshot()
                    body = (json.dumps({
                        "status": "ok",
                        "pid": os.getpid(),
                        "uptime_s": (time.time_ns() - started_ns) / 1e9,
                        "meta": trace.get_meta(),
                        "counters": snap["counters"],
                        "gauges": snap["gauges"],
                        "n_live_gauges": len(live),
                    }, sort_keys=True) + "\n").encode()
                    ctype = "application/json"
                else:
                    self.send_error(404, "unknown path (try /metrics, /healthz)")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
