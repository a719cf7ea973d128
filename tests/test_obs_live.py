"""Live observability: synchronous trace sink, counter samples, /metrics.

The contracts of :mod:`repro.obs.sink` and :mod:`repro.obs.live`:

1. **Complete, bounded traces** — the sink writes every offered span as
   it arrives (a 20,000-span burst loses none), holds O(1) memory at any
   trace length, and starts no thread; the only drops (late offers,
   write errors) are counted, never silent.
2. **Self-describing files** — the sink's Chrome array ends with
   metadata carrying the drop count and the events written, and
   ``validate_chrome_trace`` accepts the streamed JSON Array Format and
   surfaces that accounting.
3. **Counter samples on write** — after a span is written the sink
   samples the registry and the labeled live gauges (at most every
   250 ms, plus once on close), writing only values that changed.
4. **A parsed mid-run scrape** — ``/metrics`` during a live
   :class:`~repro.analysis.streamkappa.KappaMonitor` returns valid
   Prometheus text (checked with the real parser from
   ``scripts/scrape_metrics.py``, not a string match) including
   per-session windowed-κ gauges.
5. **Inertness** — a ``repro monitor`` with the trace sink and metrics
   server both enabled prints stdout byte-identical to the plain run
   (the PR-4 differential contract extended to the live layer).
"""

from __future__ import annotations

import importlib.util
import json
import threading
import tracemalloc
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from .conftest import make_trial, suite_rng
from repro.obs import export, metrics, trace
from repro.obs import sink as sink_mod
from repro.obs.live import (
    LIVE_GAUGES,
    LabeledGauges,
    MetricsServer,
    prometheus_text,
)
from repro.obs.metrics import histogram_quantile
from repro.obs.sink import SpanSink

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "scrape_metrics", REPO_ROOT / "scripts" / "scrape_metrics.py"
)
scrape_metrics = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scrape_metrics)
parse_prometheus = scrape_metrics.parse_prometheus


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with tracing off and stores empty."""
    trace.reset()
    metrics.REGISTRY.reset()
    LIVE_GAUGES.reset()
    yield
    trace.reset()
    metrics.REGISTRY.reset()
    LIVE_GAUGES.reset()


def _mk_span(i: int, *, pid: int = 1000, name: str = "analysis.pair"):
    start = 1_000_000 + i * 1_000
    return trace.SpanRecord(name, start, 500, 400, pid, 1, {"i": i})


# ----------------------------------------------------------------------
# The streaming sink
# ----------------------------------------------------------------------

def _read_events(path):
    """The events of a sink's Chrome array, closed or still being written."""
    text = Path(path).read_text().rstrip()
    if not text.endswith("]"):
        text += "\n]"  # a file mid-run lacks only its closing bracket
    return json.loads(text)


def _kinds(path):
    """Each event's ``ph``, with the ``process_name`` metadata left out."""
    return [e["ph"] for e in _read_events(path) if e["ph"] != "M"]


class TestSpanSink:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "trace.json"
        trace.set_meta("seed", 7)
        with SpanSink(path) as sink:
            for i in range(3):
                assert sink.offer_span(_mk_span(i))
            metrics.gauge("pool.tasks_inflight").set(2)
        events = [e for e in _read_events(path) if e["ph"] != "M"]
        assert [e["ph"] for e in events] == ["X", "X", "X", "C", "i"]
        assert events[0]["name"] == "analysis.pair"
        assert events[3]["name"] == "pool.tasks_inflight"
        assert events[3]["args"]["value"] == 2.0
        assert events[-1]["name"] == "trace_meta"
        meta = events[-1]["args"]
        assert meta["seed"] == 7
        assert meta["sink_dropped"] == 0
        assert meta["sink_events_written"] == 4

    def test_chrome_array_file_validates_with_counters(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = SpanSink(path)
        metrics.counter("monitor.windows").add()
        for i in range(4):
            sink.offer_span(_mk_span(i))  # the first one samples
        metrics.counter("monitor.windows").add()
        sink.close()  # the final sample
        summary = export.validate_chrome_trace(
            path,
            require_spans=("analysis.pair",),
            require_counters=("monitor.windows",),
            min_counter_events=2,
        )
        assert summary["n_spans"] == 4
        assert summary["n_counter_events"] == 2
        assert summary["dropped_spans"] == 0
        # The file itself is a JSON array (streaming format).
        doc = json.loads(path.read_text())
        assert isinstance(doc, list)
        assert doc[-1]["name"] == "trace_meta"

    def test_every_suffix_gets_the_chrome_array(self, tmp_path):
        for name in ("a.jsonl", "a.json", "a.out"):
            with SpanSink(tmp_path / name) as sink:
                sink.offer_span(_mk_span(0))
            doc = json.loads((tmp_path / name).read_text())
            assert [e["ph"] for e in doc] == ["M", "X", "i"]

    def test_burst_of_20k_spans_is_written_whole(self, tmp_path):
        """A burst with no pause loses nothing."""
        n = 20_000
        path = tmp_path / "burst.json"
        sink = SpanSink(path)
        for i in range(n):
            assert sink.offer_span(_mk_span(i))
        sink.close()
        assert sink.dropped == 0
        assert sink.events_written == n
        events = _read_events(path)
        spans = [e for e in events if e["ph"] == "X"]
        assert [e["args"]["i"] for e in spans] == list(range(n))
        assert events[-1]["args"]["sink_dropped"] == 0
        assert events[-1]["args"]["sink_events_written"] == n
        summary = export.validate_chrome_trace(path)
        assert summary["n_spans"] == n
        assert summary["dropped_spans"] == 0
        assert metrics.counter("obs.sink.dropped").value == 0

    @pytest.mark.parametrize("n", [800, 8_000])
    def test_bounded_memory_flat_at_10x(self, tmp_path, n):
        """The writer holds O(1) memory: the same small peak at 10x length."""
        path = tmp_path / f"trace-{n}.json"
        sink = SpanSink(path)
        sink.offer_span(_mk_span(0))  # first-span pid bookkeeping
        tracemalloc.start()
        try:
            for i in range(1, n):
                sink.offer_span(_mk_span(i))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sink.close()
        # A sink that kept its spans would hold ~100 KB at n=800.
        assert peak < 64 * 1024
        assert sink.events_written == n and sink.dropped == 0
        meta = _read_events(path)[-1]["args"]
        assert meta["sink_events_written"] == n
        assert meta["sink_dropped"] == 0

    def test_installed_sink_keeps_buffer_empty(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = SpanSink(path)
        trace.enable(sink)
        try:
            for i in range(50):
                with trace.span("analysis.pair", i=i):
                    pass
            # Spans streamed out; the process keeps one stage-total row.
            stages, _ = trace.stage_totals()
            assert list(stages) == ["analysis.pair"]
            assert stages["analysis.pair"][0] == 50
        finally:
            trace.disable()
        sink.close()
        spans = [e for e in _read_events(path) if e["ph"] == "X"]
        assert len(spans) == 50

    def test_tracing_starts_no_thread(self, tmp_path):
        before = threading.active_count()
        sink = SpanSink(tmp_path / "t.json")
        trace.enable(sink)
        try:
            for i in range(5):
                with trace.span("analysis.pair", i=i):
                    pass
            assert threading.active_count() == before
        finally:
            trace.disable()
        sink.close()
        assert threading.active_count() == before

    def test_each_span_is_on_disk_before_close(self, tmp_path):
        path = tmp_path / "t.json"
        sink = SpanSink(path)
        sink.offer_span(_mk_span(0))
        assert _kinds(path) == ["X"]
        sink.close()

    def test_reset_detaches_but_does_not_close(self, tmp_path):
        sink = SpanSink(tmp_path / "t.json")
        trace.enable(sink)
        trace.reset()
        trace.enable()
        with trace.span("analysis.pair"):
            pass
        assert sink.events_written == 0  # detached: the span went elsewhere
        assert not sink.closed
        sink.close()

    def test_close_is_idempotent_and_late_offers_drop(self, tmp_path):
        path = tmp_path / "t.json"
        sink = SpanSink(path)
        sink.offer_span(_mk_span(0))
        sink.close()
        sink.close()
        assert not sink.offer_span(_mk_span(1))
        assert not sink.offer_span(_mk_span(2))
        assert sink.dropped == 2
        assert metrics.counter("obs.sink.dropped").value == 2
        assert _kinds(path) == ["X", "i"]

    def test_io_errors_counted_not_raised(self, tmp_path):
        sink = SpanSink(tmp_path / "t.json")

        class _Broken:
            def write(self, _):
                raise OSError("disk full")

            def flush(self):
                raise OSError("disk full")

            def close(self):
                pass

        sink._file.close()
        sink._file = _Broken()
        assert not sink.offer_span(_mk_span(0))
        assert not sink.offer_span(_mk_span(1))  # writes stopped
        sink.close()  # must not raise
        assert sink.io_error is not None
        assert sink.dropped == 2
        assert metrics.counter("obs.sink.dropped").value == 2
        assert metrics.counter("obs.sink.io_errors").value >= 1


# ----------------------------------------------------------------------
# The sink's on-write counter sampler
# ----------------------------------------------------------------------

class _Clock:
    """A settable stand-in for the sink's ``time`` module."""

    def __init__(self, ns=1_700_000_000_000_000_000):
        self.ns = ns

    def time_ns(self):
        return self.ns


def _counters(path):
    """``(name, ts_us, value)`` of every counter event in a trace."""
    return [
        (e["name"], e["ts"], e["args"]["value"])
        for e in _read_events(path)
        if e["ph"] == "C"
    ]


class TestCounterSampler:
    def test_emits_only_changed_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sink_mod, "COUNTER_SAMPLE_INTERVAL_NS", 0)
        path = tmp_path / "t.json"
        sink = SpanSink(path)
        metrics.counter("pool.tasks_submitted").add(3)
        metrics.gauge("pool.tasks_inflight").set(2)
        sink.offer_span(_mk_span(0))
        assert len(_counters(path)) == 2
        sink.offer_span(_mk_span(1))
        assert len(_counters(path)) == 2  # nothing changed
        metrics.counter("pool.tasks_submitted").add()
        sink.offer_span(_mk_span(2))
        sink.close()
        names = [name for name, *_ in _counters(path)]
        assert names.count("pool.tasks_submitted") == 2
        assert names.count("pool.tasks_inflight") == 1

    def test_labeled_gauges_become_labeled_tracks(self, tmp_path):
        path = tmp_path / "t.json"
        LIVE_GAUGES.set("monitor.window_kappa", {"session": "run1"}, 0.93)
        LIVE_GAUGES.set("monitor.window_kappa", {"session": "run2"}, 0.88)
        with SpanSink(path) as sink:
            sink.offer_span(_mk_span(0))
        names = sorted(name for name, *_ in _counters(path))
        assert names == [
            "monitor.window_kappa{session=run1}",
            "monitor.window_kappa{session=run2}",
        ]

    def test_span_write_samples_after_the_interval(self, tmp_path, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(sink_mod, "time", clock)
        path = tmp_path / "t.json"
        sink = SpanSink(path)
        metrics.counter("monitor.packets").add(1)
        sink.offer_span(_mk_span(0))  # the first write always samples
        metrics.counter("monitor.packets").add(1)
        clock.ns += sink_mod.COUNTER_SAMPLE_INTERVAL_NS - 1
        sink.offer_span(_mk_span(1))
        assert [v for *_, v in _counters(path)] == [1.0]
        clock.ns += 1
        sink.offer_span(_mk_span(2))
        assert [v for *_, v in _counters(path)] == [1.0, 2.0]
        sink.close()

    def test_close_takes_a_final_sample(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sink_mod, "COUNTER_SAMPLE_INTERVAL_NS", 3600 * 10**9)
        path = tmp_path / "t.json"
        sink = SpanSink(path)
        metrics.counter("monitor.windows").add(5)
        sink.offer_span(_mk_span(0))
        metrics.counter("monitor.windows").add(2)
        sink.offer_span(_mk_span(1))  # within the interval: no sample
        sink.close()
        assert [(n, v) for n, _, v in _counters(path)] == [
            ("monitor.windows", 5.0), ("monitor.windows", 7.0),
        ]
        sink.close()  # idempotent
        assert len(_counters(path)) == 2

    def test_sampler_timestamps_are_monotonic_per_track(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sink_mod, "COUNTER_SAMPLE_INTERVAL_NS", 0)
        path = tmp_path / "t.json"
        sink = SpanSink(path)
        for k in range(4):
            metrics.counter("pool.tasks_submitted").add()
            sink.offer_span(_mk_span(k))
        sink.close()
        summary = export.validate_chrome_trace(
            path, require_counters=("pool.tasks_submitted",)
        )
        assert summary["n_counter_events"] == 4
        track = [
            e["ts"] for e in json.loads(path.read_text())
            if e["ph"] == "C" and e["name"] == "pool.tasks_submitted"
        ]
        assert track == sorted(track)


class TestLabeledGauges:
    def test_last_write_wins_and_sorted_snapshot(self):
        g = LabeledGauges()
        g.set("m", {"session": "b"}, 1.0)
        g.set("m", {"session": "a"}, 2.0)
        g.set("m", {"session": "a"}, 3.0)
        snap = g.snapshot()
        assert snap == [
            ("m", {"session": "a"}, 3.0),
            ("m", {"session": "b"}, 1.0),
        ]
        assert len(g) == 2
        g.reset()
        assert g.snapshot() == []


# ----------------------------------------------------------------------
# Prometheus exposition: renderer, parser, server
# ----------------------------------------------------------------------

class TestPrometheusText:
    def test_counters_gauges_histograms_parse(self):
        metrics.counter("pool.tasks_submitted").add(7)
        metrics.gauge("pool.workers").set(4)
        h = metrics.histogram("pool.queue_wait_ns")
        for v in (100, 1_000, 100_000):
            h.observe(v)
        text = prometheus_text()
        families = parse_prometheus(text)
        c = families["repro_pool_tasks_submitted_total"]
        assert c["type"] == "counter"
        assert c["samples"][0][2] == 7.0
        g = families["repro_pool_workers"]
        assert g["type"] == "gauge"
        assert g["samples"][0][2] == 4.0
        hist = families["repro_pool_queue_wait_ns"]
        assert hist["type"] == "histogram"
        buckets = {
            labels["le"]: value
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket")
        }
        assert buckets["+Inf"] == 3.0
        # Cumulative counts are non-decreasing in le order.
        finite = sorted(
            (float(le), v) for le, v in buckets.items() if le != "+Inf"
        )
        values = [v for _, v in finite]
        assert values == sorted(values)
        count = next(
            v for name, _, v in hist["samples"] if name.endswith("_count")
        )
        total = next(
            v for name, _, v in hist["samples"] if name.endswith("_sum")
        )
        assert count == 3.0 and total == 101_100.0

    def test_labeled_live_gauges_render_with_escaping(self):
        LIVE_GAUGES.set("monitor.window_kappa", {"session": 'run"1\\x'}, 0.5)
        families = parse_prometheus(prometheus_text())
        ((name, labels, value),) = families["repro_monitor_window_kappa"][
            "samples"
        ]
        assert labels == {"session": 'run"1\\x'}
        assert value == 0.5

    def test_empty_registry_is_valid_exposition(self):
        assert parse_prometheus(prometheus_text()) == {}


class TestMetricsServer:
    def test_metrics_and_healthz_and_404(self):
        metrics.counter("monitor.windows").add(2)
        LIVE_GAUGES.set("monitor.window_kappa", {"session": "r1"}, 0.91)
        trace.set_meta("command", "monitor")
        with MetricsServer(0) as server:
            assert server.port > 0
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.status == 200
                assert "text/plain" in resp.headers["Content-Type"]
                families = parse_prometheus(resp.read().decode())
            assert (
                families["repro_monitor_windows_total"]["samples"][0][2] == 2.0
            )
            ((_, labels, value),) = families["repro_monitor_window_kappa"][
                "samples"
            ]
            assert labels == {"session": "r1"} and value == 0.91
            with urllib.request.urlopen(server.url + "/healthz") as resp:
                health = json.loads(resp.read().decode())
            assert health["status"] == "ok"
            assert health["meta"]["command"] == "monitor"
            assert health["counters"]["monitor.windows"] == 2
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope")
            assert err.value.code == 404
        server.close()  # idempotent after the context exit

    def test_concurrent_scrapes(self):
        metrics.counter("monitor.packets").add(10)
        errors = []
        with MetricsServer(0) as server:
            def scrape():
                try:
                    with urllib.request.urlopen(server.url + "/metrics") as r:
                        parse_prometheus(r.read().decode())
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []


# ----------------------------------------------------------------------
# Histogram quantiles (--stats p50/p95/p99)
# ----------------------------------------------------------------------

class TestHistogramQuantile:
    def test_empty_is_zero(self):
        h = metrics.histogram("empty.ns")
        assert histogram_quantile(h.snapshot(), 0.5) == 0.0

    def test_single_observation_is_exact(self):
        h = metrics.histogram("one.ns")
        h.observe(12_345)
        snap = h.snapshot()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram_quantile(snap, q) == 12_345.0

    def test_quantiles_ordered_and_clamped(self):
        rng = suite_rng(salt=0x11FE)
        h = metrics.histogram("spread.ns")
        values = rng.integers(100, 10_000_000, size=500)
        for v in values:
            h.observe(int(v))
        snap = h.snapshot()
        p50 = histogram_quantile(snap, 0.50)
        p95 = histogram_quantile(snap, 0.95)
        p99 = histogram_quantile(snap, 0.99)
        assert snap["min"] <= p50 <= p95 <= p99 <= snap["max"]
        # A log2-bucket estimate is within one bucket of the truth.
        exact = float(np.quantile(values, 0.5))
        assert p50 <= exact * 2 and p50 >= exact / 2

    def test_rejects_out_of_range(self):
        h = metrics.histogram("x.ns")
        h.observe(10)
        with pytest.raises(ValueError):
            histogram_quantile(h.snapshot(), 1.5)

    def test_stats_table_includes_quantile_line(self):
        h = metrics.histogram("pool.queue_wait_ns")
        for v in (1_000, 2_000, 400_000):
            h.observe(v)
        table = export.stats_table()
        assert "p50=" in table and "p95=" in table and "p99=" in table


# ----------------------------------------------------------------------
# Mid-run scrape of a live KappaMonitor
# ----------------------------------------------------------------------

def _jittered(base, rng, sigma, label):
    """A run: the baseline plus timing noise, re-sorted to arrival order."""
    times = base + rng.normal(0, sigma, size=base.shape[0])
    order = np.argsort(times, kind="stable")
    tags = np.arange(base.shape[0])[order]
    return make_trial(times[order], tags=tags, label=label)


def _monitor_pair(n=3_000, salt=0xA11CE):
    rng = suite_rng(salt=salt)
    base = np.cumsum(rng.uniform(50, 150, size=n))
    a = make_trial(base, label="A")
    b = _jittered(base, rng, 20, "B")
    return a, b


class TestMonitorLiveGauges:
    def test_mid_run_scrape_shows_per_session_kappa(self):
        from repro.analysis import KappaMonitor

        a, b = _monitor_pair()
        mon = KappaMonitor(10_000.0)  # 10 us windows -> dozens of closes
        half = len(a) // 2
        with MetricsServer(0) as server:
            # First half streamed: windows close, gauges publish.
            mon.feed_baseline("run1", a.tags[:half], a.times_ns[:half])
            mon.feed_run("run1", b.tags[:half], b.times_ns[:half])
            assert mon.window_count("run1") > 0

            # The mid-run scrape: parsed, not string-matched.
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                families = parse_prometheus(resp.read().decode())
            fam = families["repro_monitor_window_kappa"]
            assert fam["type"] == "gauge"
            by_session = {
                labels["session"]: value for _, labels, value in fam["samples"]
            }
            assert set(by_session) == {"run1"}
            assert 0.0 <= by_session["run1"] <= 1.0
            assert (
                families["repro_monitor_windows_total"]["samples"][0][2]
                == float(mon.window_count("run1"))
            )
            assert (
                families["repro_monitor_sessions"]["samples"][0][2] == 1.0
            )
            mid_windows = mon.window_count("run1")

            # Stream the rest; the live view advances.
            mon.feed_baseline("run1", a.tags[half:], a.times_ns[half:])
            mon.feed_run("run1", b.tags[half:], b.times_ns[half:])
            mon.finish("run1")
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                families = parse_prometheus(resp.read().decode())
            assert (
                families["repro_monitor_windows_total"]["samples"][0][2]
                > float(mid_windows)
            )

    def test_monitor_gauges_do_not_change_kappa(self):
        """Publishing live gauges is observation only: κ is bit-identical
        whether or not anything reads them."""
        from repro.analysis import KappaMonitor

        a, b = _monitor_pair(salt=0xBEE)

        def run_monitor():
            mon = KappaMonitor(10_000.0)
            mon.feed_baseline("s", a.tags, a.times_ns)
            reports = mon.feed_run("s", b.tags, b.times_ns)
            reports += mon.finish("s")
            return [r.vector.kappa() for r in reports]

        plain = run_monitor()
        LIVE_GAUGES.reset()
        metrics.REGISTRY.reset()
        with MetricsServer(0) as server:
            with urllib.request.urlopen(server.url + "/healthz"):
                pass
            served = run_monitor()
        assert served == plain


# ----------------------------------------------------------------------
# The CLI differential: full live observability is inert
# ----------------------------------------------------------------------

class TestLiveObservabilityIsInert:
    @pytest.fixture()
    def captures(self, tmp_path):
        from repro.analysis import save_series

        rng = suite_rng(salt=0xD1FF)
        n = 1_500
        base = np.cumsum(rng.uniform(50, 150, size=n))
        trials = [make_trial(base, label="A")]
        for j in range(2):
            trials.append(_jittered(base, rng, 15, f"run{j + 1}"))
        outdir = tmp_path / "caps"
        save_series(trials, outdir)
        return outdir

    def _run_monitor(self, capsys, monkeypatch, captures, extra=()):
        from repro import cli

        for var in (
            "REPRO_TRACE", "REPRO_METRICS_PORT", "REPRO_METRICS_HOLD_S",
        ):
            monkeypatch.delenv(var, raising=False)
        rc = cli.main(["monitor", str(captures), "--window-ms", "0.01"]
                      + list(extra))
        out = capsys.readouterr().out
        return rc, out

    def test_streamed_and_served_monitor_is_bit_identical(
        self, capsys, monkeypatch, captures, tmp_path
    ):
        rc_plain, out_plain = self._run_monitor(capsys, monkeypatch, captures)
        assert rc_plain == 0
        trace.reset()
        metrics.REGISTRY.reset()
        LIVE_GAUGES.reset()

        stream = tmp_path / "live.json"
        rc_live, out_live = self._run_monitor(
            capsys, monkeypatch, captures,
            extra=["--trace", str(stream), "--serve-metrics", "0"],
        )
        assert rc_live == 0
        # The whole point: full live observability changes no output bit.
        assert out_live == out_plain

        # And the streamed artifact is a valid counter-bearing trace.
        summary = export.validate_chrome_trace(
            stream,
            require_spans=("cli.monitor", "analysis.monitor.window"),
            require_counters=("monitor.windows",),
            min_counter_events=1,
        )
        assert summary["dropped_spans"] == 0
        assert "monitor.window_kappa{session=run1}" in summary["counter_names"]

    def test_one_shot_trace_gains_counter_tracks(
        self, capsys, monkeypatch, captures, tmp_path
    ):
        path = tmp_path / "oneshot.json"
        rc, _ = self._run_monitor(
            capsys, monkeypatch, captures,
            extra=["--trace", str(path)],
        )
        assert rc == 0
        summary = export.validate_chrome_trace(
            path,
            require_spans=("cli.monitor",),
            require_counters=("monitor.windows",),
            min_counter_events=1,
        )
        assert summary["n_counter_events"] >= 1
