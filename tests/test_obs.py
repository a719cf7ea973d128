"""The observability subsystem: spans, metrics, trace files, inertness.

Four contracts under test, mirroring the priority order documented in
:mod:`repro.obs.trace`:

1. disabled tracing is a shared no-op (no records, sub-microsecond);
2. span records carry correct nesting, attributes and error annotation;
3. the metric registry's log2 histograms bucket exactly at powers of two
   and its drain/merge delta cycle is lossless;
4. tracing changes **nothing** — every MetricVector and κ of a traced
   comparison is bit-identical to the untraced one, on the serial path
   and the whole-pair fan-out alike.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from .conftest import make_trial, suite_rng
from repro.core.report import compare_trials
from repro.obs import export, metrics, trace
from repro.obs.metrics import (
    N_HIST_BUCKETS,
    Registry,
    bucket_bounds,
    bucket_index,
)
from repro.obs.sink import SpanSink
from repro.obs.trace import span, traced
from repro.obs.worker import TaskEnvelope, TaskTelemetry, absorb, run_task
from repro.analysis import analyze_directory, save_series
from repro.parallel import shutdown_pool


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with tracing off and stores empty."""
    from repro.obs.live import LIVE_GAUGES

    trace.reset()
    metrics.REGISTRY.reset()
    LIVE_GAUGES.reset()
    yield
    trace.reset()
    metrics.REGISTRY.reset()
    LIVE_GAUGES.reset()


def _collect() -> list:
    """Turn tracing on into a list sink; returns the list spans land in."""
    sink = trace.ListSink()
    trace.enable(sink)
    return sink.spans


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_records_nothing(self):
        with span("analysis.pair", run="B"):
            pass
        assert trace.stage_totals() == ({}, 0)

    def test_disabled_returns_shared_noop(self):
        assert span("a") is span("b")

    def test_records_name_attrs_and_ids(self):
        import os
        import threading

        spans = _collect()
        with span("analysis.shard.timing", lo=0, hi=65536):
            pass
        (rec,) = spans
        assert rec.name == "analysis.shard.timing"
        assert rec.attrs == {"lo": 0, "hi": 65536}
        assert rec.pid == os.getpid()
        assert rec.tid == threading.get_ident()
        assert rec.dur_ns >= 0 and rec.start_ns > 0

    def test_nesting_inner_closes_first_and_is_contained(self):
        spans = _collect()
        with span("outer"):
            with span("inner"):
                time.sleep(0.001)
        inner, outer = spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.start_ns <= inner.start_ns
        assert outer.dur_ns >= inner.dur_ns

    def test_exception_annotates_and_propagates(self):
        spans = _collect()
        with pytest.raises(ValueError, match="boom"):
            with span("analysis.match"):
                raise ValueError("boom")
        (rec,) = spans
        assert rec.attrs["error"] == "ValueError"

    def test_decorator_respects_flag_per_call(self):
        @traced("stage.decorated")
        def fn(x):
            return x * 2

        assert fn(2) == 4
        assert trace.stage_totals() == ({}, 0)
        spans = _collect()
        assert fn(3) == 6
        (rec,) = spans
        assert rec.name == "stage.decorated"

    def test_emit_routes_to_totals_and_the_one_sink(self):
        first = _collect()
        with span("analysis.pair"):
            pass
        second = _collect()  # enabling again replaces the sink
        trace.emit(trace.SpanRecord("analysis.pair", 5, 7, 3, pid=999, tid=1))
        trace.emit(trace.SpanRecord("sim.run", 5, 2, 1, pid=999, tid=1))
        assert [s.name for s in first] == ["analysis.pair"]
        assert [s.name for s in second] == ["analysis.pair", "sim.run"]
        stages, n_pids = trace.stage_totals()
        assert n_pids == 2
        count, wall, cpu, mx = stages["analysis.pair"]
        assert count == 2
        assert wall == first[0].dur_ns + 7 and cpu == first[0].cpu_ns + 3
        assert mx == max(first[0].dur_ns, 7)
        assert stages["sim.run"] == (1, 2, 1, 2)

    def test_disabled_overhead_is_negligible(self):
        # Stage-granular call sites rely on the no-op fast path; budget
        # 2 us/call — an order of magnitude above the observed cost, but
        # still far below any real span body, so a regression to record
        # allocation on the disabled path trips it.
        n = 20_000
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with span("noop.overhead", lo=0, hi=1):
                pass
        per_call_ns = (time.perf_counter_ns() - t0) / n
        assert per_call_ns < 2_000, f"{per_call_ns:.0f} ns per disabled span"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    @pytest.mark.parametrize("k", [1, 4, 10, 30, 62])
    def test_bucket_edges_at_powers_of_two(self, k):
        # 2^(k-1) .. 2^k - 1 share bucket k; 2^k starts bucket k+1.
        assert bucket_index(1 << (k - 1)) == k
        assert bucket_index((1 << k) - 1) == k
        assert bucket_index(1 << k) == k + 1

    def test_bucket_zero_and_saturation(self):
        assert bucket_index(0) == 0
        assert bucket_index(-5) == 0
        assert bucket_index(1) == 1
        assert bucket_index(1 << 70) == N_HIST_BUCKETS - 1

    def test_bucket_bounds_cover_index(self):
        for v in (1, 2, 3, 1000, 123456789):
            lo, hi = bucket_bounds(bucket_index(v))
            assert lo <= v < hi

    def test_counter_monotonic(self):
        c = metrics.counter("t.count")
        c.add()
        c.add(4)
        with pytest.raises(ValueError):
            c.add(-1)
        assert metrics.REGISTRY.snapshot()["counters"]["t.count"] == 5

    def test_histogram_snapshot(self):
        h = metrics.histogram("t.hist")
        for v in (1, 2, 3, 1024):
            h.observe(v)
        snap = metrics.REGISTRY.snapshot()["histograms"]["t.hist"]
        assert snap["count"] == 4
        assert snap["total"] == 1030
        assert snap["min"] == 1 and snap["max"] == 1024
        assert sum(snap["counts"]) == 4

    def test_drain_merge_round_trip(self):
        metrics.counter("t.c").add(7)
        metrics.histogram("t.h").observe(100)
        deltas = metrics.REGISTRY.drain_deltas()
        # Drained: local registry zeroed.
        assert metrics.REGISTRY.snapshot()["counters"]["t.c"] == 0
        other = Registry()
        other.counter("t.c").add(2)
        other.merge_deltas(deltas)
        snap = other.snapshot()
        assert snap["counters"]["t.c"] == 9
        assert snap["histograms"]["t.h"]["count"] == 1
        assert snap["histograms"]["t.h"]["total"] == 100

    def test_gauges_do_not_travel_in_deltas(self):
        metrics.gauge("t.g").set(3)
        deltas = metrics.REGISTRY.drain_deltas()
        assert "gauges" not in deltas or not deltas.get("gauges")
        # The gauge itself survives the drain (it is a level, not a flow).
        assert metrics.REGISTRY.snapshot()["gauges"]["t.g"] == 3


# ----------------------------------------------------------------------
# Worker envelope plumbing (in-process; the live-pool path is covered in
# test_pool_lifecycle.py)
# ----------------------------------------------------------------------

class TestWorkerTelemetry:
    def test_absorb_merges_spans_and_deltas(self):
        rec = trace.SpanRecord("sim.run", 10, 5, 3, pid=999, tid=1)
        tel = TaskTelemetry(
            pid=999,
            queue_wait_ns=1000,
            task_wall_ns=2000,
            spans=(rec,),
            metric_deltas={"counters": {"sim.runs": 4}},
        )
        spans = _collect()
        absorb(tel)
        assert [s.pid for s in spans] == [999]
        assert trace.stage_totals()[0]["sim.run"][0] == 1
        snap = metrics.REGISTRY.snapshot()
        assert snap["counters"]["sim.runs"] == 4
        assert snap["histograms"]["pool.queue_wait_ns"]["count"] == 1
        assert snap["histograms"]["pool.task_wall_ns"]["count"] == 1

    def test_run_traced_ships_only_its_own_spans(self):
        def task(i):
            with span("sim.inner", i=i):
                return i * 10

        first = run_task(task, 1, "sim.task", {"run": 1}, time.time_ns(), True)
        second = run_task(task, 2, "sim.task", {"run": 2}, time.time_ns(), True)
        assert (first.payload, second.payload) == (10, 20)
        for env, i in ((first, 1), (second, 2)):
            inner, outer = env.telemetry.spans
            assert (inner.name, inner.attrs) == ("sim.inner", {"i": i})
            assert (outer.name, outer.attrs) == ("sim.task", {"run": i})
            assert env.telemetry.pid == os.getpid()

    def test_untraced_task_ships_counters_but_no_spans(self):
        def task(i):
            with span("sim.inner", i=i):
                metrics.counter("t.worker").add(i)
            return i

        _collect()
        env = run_task(task, 3, "sim.task", {}, time.time_ns(), False)
        assert env.payload == 3
        assert env.telemetry.spans == ()
        assert env.telemetry.metric_deltas["counters"] == {"t.worker": 3}
        assert not trace.is_enabled()

    def test_envelope_is_plain_data(self):
        env = TaskEnvelope("payload", TaskTelemetry(1, 0, 0))
        assert env.payload == "payload"
        assert env.telemetry.pid == 1


# ----------------------------------------------------------------------
# Trace files (written by the sink) and the stats table
# ----------------------------------------------------------------------

def _sample_spans(origin_ns=0):
    parent = os.getpid()
    return [
        trace.SpanRecord("testbed.record", origin_ns + 1_000, 500, 400, parent, 1),
        trace.SpanRecord(
            "sim.run", origin_ns + 1_200, 200, 150, parent + 1, 1, {"run": 0}
        ),
        trace.SpanRecord(
            "sim.run", origin_ns + 1_300, 210, 160, parent + 2, 1, {"run": 1}
        ),
    ]


class _FailsOnce:
    """A trace file whose ``n``-th write raises ``OSError``; the rest land."""

    def __init__(self, file, n):
        self._file = file
        self._writes_left = n

    def write(self, text):
        self._writes_left -= 1
        if self._writes_left == 0:
            raise OSError("disk full")
        return self._file.write(text)

    def flush(self):
        self._file.flush()

    def close(self):
        self._file.close()


def _trace_file(path, *, meta=None, fail_write=None):
    """The sample spans written through a SpanSink.

    ``fail_write=n`` makes the sink's ``n``-th write to the file fail.
    """
    sink = SpanSink(path)
    if fail_write is not None:
        sink._file = _FailsOnce(sink._file, fail_write)
    for s in _sample_spans(sink.origin_ns):
        sink.offer_span(s)
    sink.close(meta=meta)
    return path


def _counter_event(name="pool.tasks_inflight", ts=5.0, value=3.0, pid=1):
    return {
        "name": name, "cat": "repro", "ph": "C",
        "ts": ts, "pid": pid, "tid": 0, "args": {"value": value},
    }


def _span_event(ts=0.0):
    return {
        "name": "cli.test", "cat": "repro", "ph": "X",
        "ts": ts, "dur": 10.0, "pid": 1, "tid": 1, "args": {},
    }


class TestExport:
    def test_chrome_trace_is_valid_and_relative(self, tmp_path):
        path = _trace_file(tmp_path / "t.json", meta={"seed": 7})
        summary = export.validate_chrome_trace(
            path, min_worker_pids=2, require_spans=("testbed.record", "sim.run")
        )
        assert summary["n_spans"] == 3
        assert len(summary["worker_pids"]) == 2
        assert summary["meta"]["seed"] == 7
        # Timestamps are microseconds from the sink's origin.
        xs = [e for e in json.loads(path.read_text()) if e["ph"] == "X"]
        assert [e["ts"] for e in xs] == [1.0, 1.2, 1.3]
        # Each span keeps its name and attributes, plus its CPU time.
        assert [e["name"] for e in xs] == ["testbed.record", "sim.run", "sim.run"]
        assert xs[1]["args"] == {"run": 0, "cpu_ms": 150 / 1e6}

    def test_chrome_trace_names_processes(self, tmp_path):
        events = json.loads(_trace_file(tmp_path / "t.json").read_text())
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[os.getpid()] == "repro (parent)"
        assert sum(1 for v in names.values() if v.startswith("worker ")) == 2

    def test_write_and_validate_file(self, tmp_path):
        sink = SpanSink(tmp_path / "t.json")
        trace.enable(sink)
        trace.set_meta("seed", 42)
        with span("cli.test"):
            pass
        trace.disable()
        sink.close()
        summary = export.validate_chrome_trace(
            sink.path, require_spans=("cli.test",)
        )
        assert summary["meta"]["seed"] == 42

    def test_stats_table_mentions_stages_and_counters(self):
        metrics.counter("engine.pairs_compared").add(3)
        for s in _sample_spans():
            trace.emit(s)
        table = export.stats_table()
        assert "testbed.record" in table
        assert "sim.run" in table
        assert "spans (3 across 3 processes)" in table
        assert "engine.pairs_compared" in table

    @pytest.mark.parametrize(
        "doc, msg",
        [
            ({"traceEvents": [_span_event()]}, "traceEvents"),
            ([{"ph": "X"}], "missing required key"),
            (
                [{"name": "s", "ph": "X", "pid": 1, "tid": 1, "ts": 0}],
                "numeric 'dur'",
            ),
            ([], "no complete"),
            ([{**_span_event(), "ts": True, "dur": True}], "numeric 'ts'"),
        ],
    )
    def test_validator_rejects_malformed(self, doc, msg):
        with pytest.raises(ValueError, match=msg):
            export.validate_chrome_trace(doc)

    def test_validator_enforces_required_spans_and_pids(self, tmp_path):
        path = _trace_file(tmp_path / "t.json")
        with pytest.raises(ValueError, match="missing required span"):
            export.validate_chrome_trace(path, require_spans=("analysis.match",))
        with pytest.raises(ValueError, match="worker pids"):
            export.validate_chrome_trace(path, min_worker_pids=5)


# ----------------------------------------------------------------------
# Counter (ph:"C") events through validation
# ----------------------------------------------------------------------

class TestCounterEventValidation:
    def test_mixed_span_and_counter_stream_validates(self):
        doc = [
            _span_event(),
            _counter_event(ts=1.0, value=1),
            _counter_event(ts=2.0, value=2),
            _counter_event(name="sweep.units_done", ts=1.5, value=4),
        ]
        summary = export.validate_chrome_trace(
            doc,
            require_counters=("pool.tasks_inflight", "sweep.units_done"),
            min_counter_events=3,
        )
        assert summary["n_counter_events"] == 3
        assert summary["counter_names"] == [
            "pool.tasks_inflight", "sweep.units_done"
        ]
        assert summary["n_spans"] == 1

    def test_array_format_with_trailing_meta(self):
        events = [
            _span_event(),
            _counter_event(),
            {
                "name": "trace_meta", "ph": "i", "s": "g", "ts": 9.0,
                "pid": 1, "tid": 0,
                "args": {"seed": 11, "parent_pid": 1, "sink_dropped": 2},
            },
        ]
        summary = export.validate_chrome_trace(events)
        assert summary["meta"]["seed"] == 11
        assert summary["dropped_spans"] == 2
        assert summary["parent_pid"] == 1
        assert summary["worker_pids"] == []

    @pytest.mark.parametrize(
        "ev, msg",
        [
            ({**_counter_event(), "ts": "soon"}, "numeric 'ts'"),
            ({**_counter_event(), "ts": -1.0}, "negative ts"),
            ({**_counter_event(), "args": {}}, "non-empty args"),
            ({**_counter_event(), "args": {"value": "high"}}, "not numeric"),
            ({**_counter_event(), "args": {"value": True}}, "not numeric"),
        ],
    )
    def test_validator_rejects_malformed_counters(self, ev, msg):
        with pytest.raises(ValueError, match=msg):
            export.validate_chrome_trace([_span_event(), ev])

    def test_counter_track_ts_must_be_monotonic_per_pid_and_name(self):
        doc = [
            _span_event(),
            _counter_event(ts=5.0),
            _counter_event(ts=4.0),
        ]
        with pytest.raises(ValueError, match="goes backwards"):
            export.validate_chrome_trace(doc)
        # Distinct tracks (other pid, other name) are independent.
        ok = [
            _span_event(),
            _counter_event(ts=5.0),
            _counter_event(ts=4.0, pid=2),
            _counter_event(name="other", ts=1.0),
        ]
        export.validate_chrome_trace(ok)

    def test_counter_coverage_requirements(self):
        doc = [_span_event(), _counter_event()]
        with pytest.raises(ValueError, match="missing required counter"):
            export.validate_chrome_trace(doc, require_counters=("nope",))
        with pytest.raises(ValueError, match="counter events"):
            export.validate_chrome_trace(doc, min_counter_events=5)

    def test_trace_meta_carries_drop_count_and_high_water(self, tmp_path):
        # The registry is empty, so the sink writes the three spans and
        # then the meta.  The third span's write fails and is counted;
        # the trailing meta still records it.
        path = _trace_file(tmp_path / "t.json", fail_write=3)
        summary = export.validate_chrome_trace(path)
        assert summary["n_spans"] == 2
        assert summary["dropped_spans"] == 1


# ----------------------------------------------------------------------
# The differential guard: tracing is inert
# ----------------------------------------------------------------------

def _noisy_pair(n=30_000):
    """A pair with drops, reorders and jitter — all metric paths active."""
    rng = suite_rng(salt=0xB5)
    base = np.cumsum(rng.uniform(50, 150, size=n))
    a = make_trial(base, label="A")
    keep = rng.random(n) > 0.01
    times = base[keep] + rng.normal(0, 30, size=int(keep.sum()))
    tags = np.arange(n)[keep]
    order = np.argsort(times, kind="stable")
    b = make_trial(times[order], tags=tags[order], label="B")
    return a, b


class TestTracingIsInert:
    def test_serial_compare_bit_identical(self):
        a, b = _noisy_pair()
        ref = compare_trials(a, b)
        _collect()
        traced_rep = compare_trials(a, b)
        assert traced_rep.metrics == ref.metrics
        assert traced_rep.kappa == ref.kappa

    def test_whole_pair_fanout_bit_identical_and_staged(self, tmp_path):
        a, b = _noisy_pair()
        ref = compare_trials(a, b)
        save_series([a, b, b], tmp_path)

        def fanned_out():
            try:
                return analyze_directory(tmp_path, jobs=2).pairs
            finally:
                shutdown_pool()

        untraced = fanned_out()
        records = _collect()
        traced = fanned_out()

        for rep in (*untraced, *traced):
            assert rep.metrics == ref.metrics
            assert rep.kappa == ref.kappa
            assert rep.pct_iat_within_10ns == ref.pct_iat_within_10ns

        names = {r.name for r in records}
        # The fan-out and the serial stages inside each worker task.
        for required in (
            "analysis.series",
            "analysis.pair.whole",
            "analysis.fused.timings",
        ):
            assert required in names, f"missing span {required}"
        assert {r.pid for r in records if r.name == "analysis.pair.whole"} - {
            os.getpid()
        }
        # Stage granularity, not per-packet: far fewer spans than rows.
        assert len(records) < 100

    def test_testbed_series_bit_identical(self):
        from repro.testbeds import Testbed, local_single_replayer

        profile = local_single_replayer().at_duration(2e6)
        ref = [t.times_ns for t in Testbed(profile, seed=3).run_series(2)]
        records = _collect()
        got = [t.times_ns for t in Testbed(profile, seed=3).run_series(2)]
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r, g)
        names = {r.name for r in records}
        assert {"testbed.record", "sim.series", "sim.run"} <= names
