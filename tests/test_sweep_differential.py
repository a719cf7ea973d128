"""Differential suite: a swept run must equal ``analyze_trials`` *exactly*.

The sweep orchestrator's contract (:mod:`repro.sweep.coordinator`) is the
same bit-identity guarantee the simulation and analysis fan-outs already
carry, extended across process lifetimes: the merged ``sweep.json`` is
byte-identical whether units came from a cold store, a warm store, a
killed-and-resumed sweep, or any job count — and each unit's decoded
report equals the serial ``compare_series`` reference bit-for-bit.
Every assertion here is ``==`` over the same scenario grid the
simulation differential suite uses (quiet single-replayer, reordered
dual-replayer, droppy shared-port under noise).

The store digest is pinned jobs-free and start-method-free: an entry
written by a ``jobs=1`` sweep must fully satisfy a ``jobs=4`` sweep (and
vice versa), and ``REPRO_POOL_START`` must not perturb a digest.

``REPRO_DIFF_JOBS`` (comma-separated, e.g. ``1,2``) restricts the job
counts exercised — CI uses it to split the matrix across runners.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import compare_series
from repro.experiments import runner
from repro.experiments.runner import (
    configure_store,
    run_scenario,
    run_scenario_trials,
)
from repro.parallel import shutdown_pool
from repro.sweep import (
    ArtifactStore,
    compute_digest,
    digest_key_doc,
    plan_unit,
    run_sweep,
    write_sweep_report,
)
from repro.sweep.codec import series_report_to_dict
from repro.testbeds import (
    Testbed,
    fabric_shared_40g_noisy,
    local_dual_replayer,
    local_single_replayer,
)

from .test_parallel_differential import assert_series_equal
from .test_sim_differential import assert_trial_equal


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()
N_RUNS = 3
SEED = 11

#: The differential scenario grid (same shapes as test_sim_differential).
SCENARIOS = {
    "quiet-single": lambda: local_single_replayer().at_duration(3e6),
    "reordered-dual": lambda: local_dual_replayer().at_duration(3e6),
    "droppy-noisy": lambda: fabric_shared_40g_noisy().at_duration(6e6),
}


def _plan():
    return [
        plan_unit(name, SCENARIOS[name](), SEED, N_RUNS)
        for name in sorted(SCENARIOS)
    ]


#: Serial reference reports per scenario: the exact bits the paper
#: drivers get from ``analyze_trials`` (== compare_series at jobs=1).
_reference_cache: dict = {}


def _reference(scenario: str):
    if scenario not in _reference_cache:
        profile = SCENARIOS[scenario]()
        trials = Testbed(profile, seed=SEED).run_series(N_RUNS, jobs=1)
        report = compare_series(trials, environment=profile.name)
        _reference_cache[scenario] = (trials, report)
    return _reference_cache[scenario]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()
    configure_store(None)


def _sweep_bytes(result, outdir) -> bytes:
    report_path, _ = write_sweep_report(result, outdir)
    return report_path.read_bytes()


class TestSweepDifferential:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_cold_sweep_matches_analyze_trials(self, jobs, tmp_path):
        """Every swept unit equals the serial reference, bit-for-bit."""
        plan = _plan()
        store = ArtifactStore(tmp_path / "store")
        result = run_sweep(plan, store, jobs=jobs)
        assert result.outcomes == ("miss",) * len(plan)
        for unit, got in zip(plan, result.series):
            want_trials, want_report = _reference(unit.name)
            assert_series_equal(got, want_report)
            assert series_report_to_dict(got) == series_report_to_dict(
                want_report
            )
            # The stored trials are the simulated bits, exactly.
            entry = store.get(unit.digest)
            assert entry is not None and entry.report is not None
            for g, w in zip(entry.trials, want_trials):
                assert_trial_equal(g, w)

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_warm_rerun_byte_identical(self, jobs, tmp_path):
        """A second sweep over the same store is all hits, same bytes."""
        plan = _plan()
        cold = run_sweep(plan, ArtifactStore(tmp_path / "store"), jobs=jobs)
        cold_bytes = _sweep_bytes(cold, tmp_path / "cold")

        warm_store = ArtifactStore(tmp_path / "store")
        warm = run_sweep(plan, warm_store, jobs=jobs)
        assert warm.outcomes == ("hit",) * len(plan)
        assert warm_store.stats.writes == 0  # nothing re-simulated
        assert warm_store.stats.misses == 0
        assert _sweep_bytes(warm, tmp_path / "warm") == cold_bytes

    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    def test_kill_then_resume_byte_identical(self, jobs, tmp_path):
        """A partial sweep + resume merges the same bytes as one cold run.

        A sweep killed mid-flight keeps every unit it persisted (units
        publish atomically in completion order); resuming is simply
        sweeping the full plan over the same store.  Model the kill as a
        sweep of a plan prefix.
        """
        plan = _plan()
        cold = run_sweep(plan, ArtifactStore(tmp_path / "a"), jobs=jobs)
        cold_bytes = _sweep_bytes(cold, tmp_path / "cold")

        store = ArtifactStore(tmp_path / "b")
        partial = run_sweep(plan[:1], store, jobs=jobs)
        assert partial.outcomes == ("miss",)
        resumed = run_sweep(plan, ArtifactStore(tmp_path / "b"), jobs=jobs)
        assert resumed.outcomes == ("hit",) + ("miss",) * (len(plan) - 1)
        assert _sweep_bytes(resumed, tmp_path / "resumed") == cold_bytes

    def test_no_resume_recomputes_everything(self, tmp_path):
        """``--no-resume`` ignores (and rewrites) existing entries."""
        plan = _plan()[:1]
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(plan, store, jobs=0)  # never a silent serial run
        run_sweep(plan, store, jobs=1)
        fresh = ArtifactStore(tmp_path / "store")
        again = run_sweep(plan, fresh, jobs=1, resume=False)
        assert again.outcomes == ("miss",)
        assert fresh.stats.hits == 0

    def test_duplicate_units_compute_once(self, tmp_path):
        unit = _plan()[0]
        store = ArtifactStore(tmp_path / "store")
        result = run_sweep([unit, unit], store, jobs=1)
        assert result.outcomes == ("miss", "miss")
        assert store.stats.writes == 1
        assert series_report_to_dict(result.series[0]) == (
            series_report_to_dict(result.series[1])
        )

    def test_warm_hit_decodes_report_once(self, tmp_path, monkeypatch):
        """A hit's report is decoded once, by the store, and never re-encoded."""
        from repro.sweep import codec
        from repro.sweep import store as store_module

        plan = _plan()[:1]
        run_sweep(plan, ArtifactStore(tmp_path / "store"), jobs=1)
        calls = {"series_report_from_dict": 0, "series_report_to_dict": 0}

        def counting(name):
            real = getattr(codec, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counting(name)
            for module in (codec, store_module):
                monkeypatch.setattr(module, name, wrapper)
        warm = run_sweep(plan, ArtifactStore(tmp_path / "store"), jobs=1)
        assert warm.outcomes == ("hit",)
        assert calls == {"series_report_from_dict": 1, "series_report_to_dict": 0}


class TestDigestIsExecutionShapeFree:
    """Satellite regression: the digest keys content, never execution."""

    def test_key_doc_fields(self):
        """The key document holds only bit-determining values."""
        doc = digest_key_doc(local_single_replayer(), SEED, N_RUNS)
        assert set(doc) == {
            "schema", "analysis", "profile", "seed", "series_index", "n_runs",
        }

    def test_digest_ignores_pool_start_method(self, monkeypatch):
        profile = local_single_replayer().at_duration(3e6)
        want = compute_digest(profile, SEED, N_RUNS)
        for method in ("fork", "spawn", "forkserver"):
            monkeypatch.setenv("REPRO_POOL_START", method)
            assert compute_digest(profile, SEED, N_RUNS) == want
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert compute_digest(profile, SEED, N_RUNS) == want

    def test_jobs1_store_fully_hit_by_jobs4_sweep(self, tmp_path):
        """Entries written at jobs=1 satisfy a jobs=4 sweep, and back."""
        plan = _plan()
        cold = run_sweep(plan, ArtifactStore(tmp_path / "store"), jobs=1)
        cold_bytes = _sweep_bytes(cold, tmp_path / "cold")

        warm_store = ArtifactStore(tmp_path / "store")
        warm = run_sweep(plan, warm_store, jobs=4)
        assert warm.outcomes == ("hit",) * len(plan)
        assert warm_store.stats.misses == 0
        assert _sweep_bytes(warm, tmp_path / "warm") == cold_bytes

    def test_runner_and_sweep_share_entries(self, tmp_path):
        """``run_scenario --store`` writes the full entry a sweep reads.

        A runner-side miss (jobs=1) publishes trials and report in one
        entry.  A sweep over the same cell is a hit that writes nothing,
        and a runner call at jobs=4 in a "new process" (memo cleared)
        hits the store instead of re-simulating.
        """
        from repro.experiments.scenarios import scenario
        from repro.obs import metrics
        from repro.sweep.coordinator import plan_from_scenarios

        store_dir = tmp_path / "store"
        configure_store(str(store_dir))
        try:
            kwargs = dict(duration_scale=0.02, n_runs=2)
            cold = run_scenario_trials("local-single", jobs=1, **kwargs)
            report = run_scenario("local-single", jobs=1, **kwargs)
            store = runner.persistent_store()
            assert store.stats.writes == 1

            plan = plan_from_scenarios(["local-single"], **kwargs)
            sc = scenario("local-single")
            assert plan[0].digest == compute_digest(
                sc.profile(0.02), sc.seed, 2
            )
            sweep_store = ArtifactStore(store_dir)
            swept = run_sweep(plan, sweep_store, jobs=1)
            assert swept.outcomes == ("hit",)
            assert sweep_store.stats.writes == 0
            assert_series_equal(swept.series[0], report)

            runner._series_cache.clear()  # simulate a fresh process
            before = metrics.REGISTRY.snapshot()["counters"].get(
                "runner.store_hits", 0
            )
            warm = run_scenario_trials("local-single", jobs=4, **kwargs)
            after = metrics.REGISTRY.snapshot()["counters"].get(
                "runner.store_hits", 0
            )
            assert after == before + 1
            assert store.stats.writes == 1
            for g, w in zip(warm, cold):
                assert_trial_equal(g, w)
        finally:
            configure_store(None)
            runner._series_cache.clear()


class TestSweepReportShape:
    def test_report_and_telemetry_schemas(self, tmp_path):
        """sweep.json is deterministic; telemetry extends the bench schema."""
        plan = _plan()[:1]
        result = run_sweep(plan, ArtifactStore(tmp_path / "store"), jobs=1)
        report_path, telemetry_path = write_sweep_report(result, tmp_path / "o")

        report = json.loads(report_path.read_text())
        assert report["kind"] == "sweep-report"
        assert report["n_units"] == 1
        (row,) = report["units"]
        assert row["scenario"] == plan[0].name
        assert row["digest"] == plan[0].digest
        assert set(row["mean"]) >= {"U", "O", "I", "L", "kappa"}
        assert len(row["runs"]) == N_RUNS - 1  # runs vs. the baseline

        telemetry = json.loads(telemetry_path.read_text())
        for field in ("bench", "params", "host", "wall_s", "per_stage"):
            assert field in telemetry  # the benchmarks/_emit.py contract
        assert telemetry["bench"] == "sweep"
        assert telemetry["host"]["usable_cores"] >= 1
        assert telemetry["store"]["writes"] == 1
        assert telemetry["cache"] == {"hits": 0, "misses": 1}
