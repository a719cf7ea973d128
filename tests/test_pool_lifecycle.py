"""Lifecycle of the persistent, process-global worker pool.

"Exactly one pool per invocation" is the perf contract that replaced the
old pool-per-series churn; these tests make it a *tested property*:

* lazy creation — importing, or running any serial path, creates nothing;
* reuse — the sweep-unit fan-out and the whole-pair fan-out of
  :func:`~repro.analysis.analyze_directory` draw from the same executor
  within one invocation (``created_total`` moves by one), ``table2``
  fans its nine series out as nine units on it, and ``table2(ci=True)``
  all nine screens' sessions in one sweep;
* teardown — ``pool_scope`` and the CLI drain the pool on normal exit
  *and* on error paths (the leak the old per-comparator pools had);
* failure containment — a raising worker task doesn't poison the pool,
  ``fan_out`` drains the rest of a failed batch before re-raising, counts
  the failure, and attaches the remote worker traceback; a truncated
  capture fails its pair task that way and leaves the pool serving;
* telemetry round-trip — worker counters always ship back through the
  live pool, so a pooled run counts what its serial run counts; with
  tracing on, worker spans ship back too, with worker-pid attribution,
  and the traced results stay bit-identical to untraced ones.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.cli as cli
from repro.analysis import analyze_directory, render_report, save_series
from repro.core import Trial, compare_series
from repro.obs import metrics, trace
from repro.parallel import (
    fan_out,
    get_pool,
    pool_scope,
    pool_stats,
    shutdown_pool,
)
from repro.sweep import plan_unit, run_sweep
from repro.testbeds import Testbed, local_single_replayer

from .test_parallel_differential import assert_series_equal

PROFILE = local_single_replayer().at_duration(3e6)


def _units(n_runs: int, seeds=(3, 4)):
    """A plan of one PROFILE unit per seed (two by default: a real fan-out)."""
    return [plan_unit(PROFILE.name, PROFILE, seed, n_runs) for seed in seeds]


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends with no live pool (and clean telemetry)."""
    shutdown_pool()
    trace.reset()
    metrics.REGISTRY.reset()
    yield
    shutdown_pool()
    trace.reset()
    metrics.REGISTRY.reset()


def _boom(_arg):
    raise RuntimeError("worker exploded")


def _ok(x):
    return x * 2


def _slow_mark(task):
    """Fail on ``None``; otherwise sleep, then leave a marker file."""
    if task is None:
        _boom(task)
    directory, i = task
    time.sleep(0.2)
    (directory / str(i)).touch()
    return i


class TestLaziness:
    def test_no_pool_until_asked(self):
        assert pool_stats().active is False

    def test_serial_paths_never_create_a_pool(self, tmp_path):
        before = pool_stats().created_total
        trials = Testbed(PROFILE, seed=3).run_series(3, jobs=1)
        compare_series(trials, environment=PROFILE.name)
        save_series(trials, tmp_path)
        analyze_directory(tmp_path, environment=PROFILE.name, jobs=1)
        run_sweep(_units(2), None, jobs=1)
        run_sweep(_units(2, seeds=(5,)), None, jobs=2)  # a lone unit
        stats = pool_stats()
        assert stats.active is False
        assert stats.created_total == before

    def test_get_pool_rejects_serial(self):
        with pytest.raises(ValueError):
            get_pool(1)


class TestReuse:
    def test_one_pool_spans_simulation_and_analysis(self, tmp_path):
        """Sweep units and whole pairs in one invocation share one pool."""
        before = pool_stats().created_total
        swept = run_sweep(_units(3), None, jobs=2)
        save_series(swept.trials[0], tmp_path)
        rep = analyze_directory(tmp_path, environment=PROFILE.name, jobs=2)
        stats = pool_stats()
        assert stats.active is True
        assert stats.jobs == 2
        assert stats.created_total == before + 1
        # And the shared-pool reports are still the serial report, exactly.
        want = compare_series(
            Testbed(PROFILE, seed=3).run_series(3), environment=PROFILE.name
        )
        assert_series_equal(swept.series[0], want)
        assert_series_equal(rep, want)

    def test_table2_fans_out_nine_units_on_one_pool(self):
        """table2 resolves its nine series as one sweep: nine unit tasks."""
        from repro.experiments import runner, table2

        runner._series_cache.clear()
        runner.configure_store(None)
        sink = trace.ListSink()
        trace.enable(sink)
        before = pool_stats().created_total
        try:
            table2(jobs=2, duration_scale=0.02)
        finally:
            runner._series_cache.clear()
        assert pool_stats().created_total == before + 1
        counters = metrics.REGISTRY.snapshot()["counters"]
        assert counters["pool.tasks_submitted"] == 9
        remote = [s for s in sink.spans if s.name == "sweep.unit.remote"]
        assert len(remote) == 9
        assert os.getpid() not in {s.pid for s in remote}

    def test_table2_ci_fans_out_every_screen_unit_in_one_sweep(self):
        """table2(ci=True) resolves all 9 x ci_seeds sessions as one sweep."""
        from repro.experiments import runner, table2

        runner.configure_store(None)
        sink = trace.ListSink()
        trace.enable(sink)
        before = pool_stats().created_total
        table2(ci=True, ci_seeds=2, jobs=2, duration_scale=0.02, n_runs=2)
        assert pool_stats().created_total == before + 1
        counters = metrics.REGISTRY.snapshot()["counters"]
        assert counters["pool.tasks_submitted"] == 18
        computes = [s for s in sink.spans if s.name == "sweep.compute"]
        assert [s.attrs["n_units"] for s in computes] == [18]

    def test_same_executor_returned(self):
        assert get_pool(2) is get_pool(2)
        assert pool_stats().created_total == pool_stats().created_total

    def test_resize_replaces_the_pool(self):
        before = pool_stats().created_total
        p2 = get_pool(2)
        p3 = get_pool(3)
        assert p3 is not p2
        stats = pool_stats()
        assert stats.jobs == 3
        assert stats.created_total == before + 2


class TestTeardown:
    def test_shutdown_is_idempotent(self):
        get_pool(2)
        shutdown_pool()
        assert pool_stats().active is False
        shutdown_pool()  # second call: no-op, no error
        assert pool_stats().active is False

    def test_pool_scope_normal_exit(self):
        with pool_scope():
            get_pool(2)
            assert pool_stats().active is True
        assert pool_stats().active is False

    def test_pool_scope_error_exit(self):
        """An exception inside the scope still drains the pool."""
        with pytest.raises(RuntimeError):
            with pool_scope():
                get_pool(2)
                raise RuntimeError("mid-invocation failure")
        assert pool_stats().active is False


class TestCliOwnership:
    def test_cli_error_path_tears_down(self, monkeypatch, capsys):
        """A command that creates a pool then raises cannot leak it."""

        def exploding_command(_args):
            get_pool(2)
            assert pool_stats().active is True
            raise RuntimeError("command failed mid-pool")

        monkeypatch.setitem(cli._COMMANDS, "scenarios", exploding_command)
        with pytest.raises(RuntimeError):
            cli.main(["scenarios"])
        assert pool_stats().active is False

    def test_cli_usage_error_path_tears_down(self, capsys):
        """Early argument-validation exits run the teardown too."""
        rc = cli.main(["simulate"])  # neither <scenario> nor --profile
        assert rc == 2
        assert pool_stats().active is False

    def test_cli_success_creates_exactly_one_pool(
        self, monkeypatch, capsys, tmp_path
    ):
        """One --jobs invocation: exactly one pool, gone afterwards."""
        created = []

        def counting_command(args):
            trials = run_sweep(_units(3), None, jobs=2).trials[0]
            save_series(trials, tmp_path)
            analyze_directory(tmp_path, environment=PROFILE.name, jobs=2)
            created.append(pool_stats().created_total)
            return 0

        monkeypatch.setitem(cli._COMMANDS, "scenarios", counting_command)
        before = pool_stats().created_total
        assert cli.main(["scenarios"]) == 0
        assert created == [before + 1]
        assert pool_stats().active is False


class TestFailureContainment:
    def test_worker_exception_does_not_poison_the_pool(self):
        pool = get_pool(2)
        with pytest.raises(RuntimeError, match="worker exploded"):
            pool.submit(_boom, None).result()
        # Same pool, still serving.
        assert pool.submit(_ok, 21).result() == 42
        assert pool_stats().jobs == 2

    def test_gather_drains_failed_batches(self, tmp_path):
        """``fan_out`` settles every sibling of a failed task before raising."""
        tasks = [None] + [(tmp_path, i) for i in range(8)]
        with pytest.raises(RuntimeError, match="worker exploded"):
            list(fan_out(2, _slow_mark, tasks, name="t.mark", attrs=[{}] * 9))
        # Nothing is left running against resources the caller is about
        # to release: no marker appears after the raise.
        settled = sorted(os.listdir(tmp_path))
        time.sleep(0.5)
        assert sorted(os.listdir(tmp_path)) == settled
        assert list(fan_out(2, _ok, [1], name="t.ok", attrs=[{}])) == [(0, 2)]

    def test_gather_attaches_remote_traceback_and_counts(self):
        """A worker failure surfaces *where it happened*, not just what.

        The bare executor loses the worker's traceback string unless it
        is re-attached; ``fan_out`` pins it on the exception and bumps the
        ``pool.task_failures`` counter so --stats shows failures even
        when the exception is caught upstream.
        """
        before = metrics.REGISTRY.snapshot()["counters"].get(
            "pool.task_failures", 0
        )
        with pytest.raises(RuntimeError, match="worker exploded") as ei:
            list(fan_out(2, _boom, [None], name="t.boom", attrs=[{}]))
        remote = getattr(ei.value, "remote_traceback", None)
        assert remote is not None
        assert "worker exploded" in remote
        assert "_boom" in remote  # the worker-side frame, not the parent's
        after = metrics.REGISTRY.snapshot()["counters"]["pool.task_failures"]
        assert after == before + 1

    def test_truncated_capture_fails_its_pair_and_spares_the_pool(self, tmp_path):
        """A capture cut after its header fails in the worker, not the parent.

        The error comes back as ``ValueError`` carrying the worker-side
        traceback, and the next analysis on the same pool is the serial
        report, byte for byte.
        """
        trials = Testbed(PROFILE, seed=3).run_series(3)
        save_series(trials, tmp_path / "good")
        save_series(trials, tmp_path / "bad")
        with open(tmp_path / "bad" / "run-C.cho", "r+b") as f:
            f.truncate(32)  # the header alone: its count promises a payload
        pool = get_pool(2)
        with pytest.raises(ValueError) as ei:
            analyze_directory(tmp_path / "bad", jobs=2)
        assert "read_capture" in ei.value.remote_traceback
        want = render_report(analyze_directory(tmp_path / "good", jobs=1))
        assert render_report(analyze_directory(tmp_path / "good", jobs=2)) == want
        assert get_pool(2) is pool


class TestWorkerTelemetryRoundTrip:
    def test_spans_and_counters_cross_the_pool(self):
        """A traced fan-out ships worker spans back, pid-attributed."""
        sink = trace.ListSink()
        trace.enable(sink)
        swept = run_sweep(_units(2, seeds=(3, 4, 5)), None, jobs=2)
        spans = sink.spans
        run_spans = [s for s in spans if s.name == "sim.run"]
        assert len(run_spans) == 6
        worker_pids = {s.pid for s in run_spans}
        assert os.getpid() not in worker_pids
        # Each unit's series span came back from its worker; the
        # parent-side compute span reached the same sink.
        assert {s.pid for s in spans if s.name == "sim.series"} == worker_pids
        assert any(
            s.name == "sweep.compute" and s.pid == os.getpid() for s in spans
        )
        snap = metrics.REGISTRY.snapshot()
        assert snap["counters"]["sim.runs"] == 6
        assert snap["histograms"]["pool.queue_wait_ns"]["count"] == 3
        assert snap["histograms"]["pool.task_wall_ns"]["count"] == 3
        # And tracing changed nothing: bit-identical to the untraced serial run.
        want = Testbed(PROFILE, seed=3).run_series(2)
        for got_t, want_t in zip(swept.trials[0], want, strict=True):
            assert got_t.times_ns.tobytes() == want_t.times_ns.tobytes()

    def test_untraced_pool_results_stay_bare(self):
        """With tracing off no span is collected, in workers or parent."""
        run_sweep(_units(2), None, jobs=2)
        assert trace.stage_totals() == ({}, 0)

    def test_untraced_worker_counters_match_serial(self, tmp_path):
        """An untraced pooled run counts exactly what its serial run counts.

        Only the fan-out's own bookkeeping (``pool.*``) may differ; every
        counter a worker bumps (``sim.runs``, ``fused.pairs``,
        ``match.occurrence_path``, ...) comes home.  Two units are swept,
        then the first unit's series is saved and analyzed once as
        captured and once with every tag halved, so that each of those
        pairs repeats tags.
        """

        def counters(jobs: int) -> dict:
            metrics.REGISTRY.reset()
            trials = run_sweep(_units(4), None, jobs=jobs).trials[0]
            halved = [Trial(t.tags // 2, t.times_ns, label=t.label) for t in trials]
            for name, series in (("as-captured", trials), ("halved", halved)):
                save_series(series, tmp_path / f"{name}-{jobs}")
                analyze_directory(
                    tmp_path / f"{name}-{jobs}", environment=PROFILE.name, jobs=jobs
                )
            return {
                name: value
                for name, value in metrics.REGISTRY.snapshot()["counters"].items()
                if not name.startswith("pool.")
            }

        serial = counters(1)
        assert serial["sim.runs"] == 8 and serial["sweep.units_computed"] == 2
        assert serial["fused.pairs"] == 12 and serial["match.occurrence_path"] == 3
        assert counters(2) == serial
        assert trace.stage_totals() == ({}, 0)

    def test_traced_analysis_covers_whole_pair_stage(self, tmp_path):
        """Whole-pair analysis at jobs=2 emits worker-pid pair spans."""
        trials = Testbed(PROFILE, seed=3).run_series(3)
        save_series(trials, tmp_path)
        sink = trace.ListSink()
        trace.enable(sink)
        rep = analyze_directory(tmp_path, environment=PROFILE.name, jobs=2)
        names_by_pid: dict[int, set[str]] = {}
        for s in sink.spans:
            names_by_pid.setdefault(s.pid, set()).add(s.name)
        worker_names: set[str] = set()
        for pid, names in names_by_pid.items():
            if pid != os.getpid():
                worker_names |= names
        assert "analysis.pair.whole" in worker_names
        assert "analysis.fused.timings" in worker_names
        # Inert under fan-out, too.
        want = compare_series(trials, environment=PROFILE.name)
        assert_series_equal(rep, want)


class TestTrackerQuiet:
    """A pooled run, sweep units and whole capture pairs, keeps stderr clean.

    Workers forked from the forkserver share the parent's resource
    tracker; any warning or traceback a worker or the tracker prints at
    shutdown lands on the parent's stderr, so a clean stderr from a
    pooled run is the regression detector.
    """

    def test_forkserver_run_leaves_stderr_clean(self, tmp_path):
        import subprocess
        import sys

        script = tmp_path / "pooled_run.py"
        script.write_text(
            "import sys\n"
            "from repro.analysis import analyze_directory, save_series\n"
            "from repro.parallel import shutdown_pool\n"
            "from repro.sweep import plan_unit, run_sweep\n"
            "from repro.testbeds import local_single_replayer\n"
            "if __name__ == '__main__':\n"
            "    profile = local_single_replayer().at_duration(3e6)\n"
            "    plan = [plan_unit('p', profile, s, 3) for s in (11, 12)]\n"
            "    trials = run_sweep(plan, None, jobs=2).trials[0]\n"
            "    save_series(trials, sys.argv[1])\n"
            "    analyze_directory(sys.argv[1], environment=profile.name, jobs=2)\n"
            "    shutdown_pool()\n"
        )
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "caps")],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
