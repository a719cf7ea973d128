"""Differential suite: the parallel stability screen equals the serial sweep.

``table2(ci=True)``, ``validate --ci`` and ``repro stability`` all stand
on :func:`repro.analysis.stability.seed_sweep_parallel` being *exactly*
the serial :func:`repro.analysis.stats.seed_sweep` — same per-seed κ/I/L
means, bit-for-bit, at any job count, cold or warm store.  Anything less
and the interval columns would depend on how the screen was executed,
which is precisely the failure mode this repository's determinism
contract exists to rule out.

Same scenario grid and conventions as ``tests/test_sweep_differential.py``;
``REPRO_DIFF_JOBS`` (comma-separated) restricts the job counts so CI can
split the matrix across runners.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analysis.stability import (
    environment_stability,
    seed_sweep_parallel,
    stability_document,
    write_stability_report,
)
from repro.analysis.stats import seed_sweep
from repro.parallel import shutdown_pool
from repro.sweep import ArtifactStore, run_adaptive_sweep
from repro.testbeds import (
    fabric_shared_40g_noisy,
    local_dual_replayer,
    local_single_replayer,
)


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()
N_RUNS = 2
SEEDS = (3, 5, 8)

#: The differential scenario grid (same shapes as test_sweep_differential).
SCENARIOS = {
    "quiet-single": lambda: local_single_replayer().at_duration(3e6),
    "reordered-dual": lambda: local_dual_replayer().at_duration(3e6),
    "droppy-noisy": lambda: fabric_shared_40g_noisy().at_duration(6e6),
}

#: Serial references per scenario: the exact arrays the plain
#: ``seed_sweep`` loop computes.
_reference_cache: dict = {}


def _reference(scenario: str):
    if scenario not in _reference_cache:
        profile = SCENARIOS[scenario]()
        _reference_cache[scenario] = seed_sweep(profile, SEEDS, n_runs=N_RUNS)
    return _reference_cache[scenario]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def assert_sweep_equal(got, want) -> None:
    """Bit-exact equality of two SeedSweepResults (`==`, never approx)."""
    assert got.environment == want.environment
    assert got.seeds == want.seeds
    assert np.array_equal(got.kappa, want.kappa)
    assert np.array_equal(got.i_values, want.i_values)
    assert np.array_equal(got.l_values, want.l_values)


class TestSeedSweepDifferential:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_parallel_equals_serial(self, scenario, jobs):
        """The pool-parallel screen is the serial loop, bit-for-bit."""
        got = seed_sweep_parallel(
            SCENARIOS[scenario](), SEEDS, n_runs=N_RUNS, jobs=jobs
        )
        assert_sweep_equal(got, _reference(scenario))

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_warm_store_replays_the_same_bits(self, jobs, tmp_path):
        """Cold-through-store and warm-from-store equal serial exactly."""
        profile = SCENARIOS["reordered-dual"]()
        cold = seed_sweep_parallel(
            profile, SEEDS, n_runs=N_RUNS, jobs=jobs,
            store=ArtifactStore(tmp_path / "store"),
        )
        warm_store = ArtifactStore(tmp_path / "store")
        warm = seed_sweep_parallel(
            profile, SEEDS, n_runs=N_RUNS, jobs=jobs, store=warm_store
        )
        assert warm_store.stats.misses == 0
        assert warm_store.stats.writes == 0
        want = _reference("reordered-dual")
        assert_sweep_equal(cold, want)
        assert_sweep_equal(warm, want)

    def test_jobs1_entries_satisfy_jobs4_screen(self, tmp_path):
        """The store digest stays execution-shape-free under the screen."""
        profile = SCENARIOS["quiet-single"]()
        seed_sweep_parallel(
            profile, SEEDS, n_runs=N_RUNS, jobs=1,
            store=ArtifactStore(tmp_path / "store"),
        )
        warm_store = ArtifactStore(tmp_path / "store")
        got = seed_sweep_parallel(
            profile, SEEDS, n_runs=N_RUNS, jobs=4, store=warm_store
        )
        assert warm_store.stats.misses == 0
        assert_sweep_equal(got, _reference("quiet-single"))

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            seed_sweep_parallel(local_single_replayer(), [])


class TestEnvironmentStabilityDifferential:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_fixed_screen_rides_the_same_bits(self, jobs):
        """``environment_stability`` (eps=0) wraps the serial arrays."""
        st = environment_stability(
            SCENARIOS["droppy-noisy"](), seeds=SEEDS, n_runs=N_RUNS, jobs=jobs
        )
        want = _reference("droppy-noisy")
        assert st.seeds == SEEDS
        assert np.array_equal(st.kappa, want.kappa)
        assert np.array_equal(st.i_values, want.i_values)
        assert np.array_equal(st.l_values, want.l_values)
        assert_sweep_equal(st.sweep_result(), want)
        assert st.n_eff == len(SEEDS) - st.screen.n_flagged
        assert not st.decision.stopped  # eps=0: screening only

    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    def test_adaptive_trajectory_replays_from_store(self, jobs, tmp_path):
        """An adaptive screen is deterministic given (plan, eps, cap) —
        a warm store replays the identical trajectory, all hits."""
        profile = SCENARIOS["quiet-single"]()
        kwargs = dict(
            initial_seeds=SEEDS, n_runs=N_RUNS, eps=0.05, max_seeds=6,
            jobs=jobs,
        )
        cold = run_adaptive_sweep(
            "quiet-single", profile,
            store=ArtifactStore(tmp_path / "store"), **kwargs
        )
        warm_store = ArtifactStore(tmp_path / "store")
        warm = run_adaptive_sweep(
            "quiet-single", profile, store=warm_store, **kwargs
        )
        assert warm_store.stats.misses == 0
        assert warm.outcomes == ("hit",) * len(cold.plan)
        assert tuple(u.seed for u in warm.plan) == tuple(
            u.seed for u in cold.plan
        )
        assert np.array_equal(warm.values, cold.values)
        assert warm.stopped == cold.stopped
        assert warm.half_width == cold.half_width
        assert warm.history == cold.history

    def test_adaptive_extension_continues_the_seed_stream(self, tmp_path):
        """Extension seeds are max(initial)+1 onward — no collisions, and
        the trajectory is capped exactly at max_seeds."""
        profile = SCENARIOS["quiet-single"]()
        result = run_adaptive_sweep(
            "quiet-single", profile,
            initial_seeds=SEEDS, n_runs=N_RUNS, eps=1e-9, max_seeds=5,
            batch=1, store=ArtifactStore(tmp_path / "store"), jobs=1,
        )
        assert not result.stopped  # eps=1e-9 is unreachable
        seeds = tuple(u.seed for u in result.plan)
        assert seeds == (3, 5, 8, 9, 10)
        assert len(seeds) == len(set(seeds)) == 5
        assert len(result.history) == 3  # initial batch + 2 extensions

    def test_adaptive_validation(self):
        profile = local_single_replayer()
        with pytest.raises(ValueError, match="initial seed"):
            run_adaptive_sweep("x", profile, initial_seeds=[])
        with pytest.raises(ValueError, match="eps"):
            run_adaptive_sweep("x", profile, initial_seeds=[0], eps=-1.0)
        with pytest.raises(ValueError, match=">= 3 initial seeds"):
            run_adaptive_sweep("x", profile, initial_seeds=[0, 1], eps=0.01)
        with pytest.raises(ValueError, match="jobs"):
            run_adaptive_sweep("x", profile, initial_seeds=[0], jobs=0)


class TestStabilityReportShape:
    def test_document_bytes_job_invariant(self):
        """stability.json bytes are identical across job counts."""
        profile = SCENARIOS["quiet-single"]()
        docs = []
        for jobs in (1, 2):
            st = environment_stability(
                profile, seeds=SEEDS, n_runs=N_RUNS, jobs=jobs
            )
            docs.append(
                json.dumps(
                    stability_document([("quiet-single", st)], {"eps": 0.0}),
                    sort_keys=True,
                )
            )
        assert docs[0] == docs[1]

    def test_report_files_and_schema(self, tmp_path):
        st = environment_stability(
            SCENARIOS["quiet-single"](), seeds=SEEDS, n_runs=N_RUNS, jobs=1
        )
        doc = stability_document([("quiet-single", st)], {"eps": 0.0})
        telemetry = {"bench": "stability", "params": {}, "host": {},
                     "wall_s": 0.0, "per_stage": {}}
        report_path, telemetry_path = write_stability_report(
            doc, telemetry, tmp_path / "out"
        )
        report = json.loads(report_path.read_text())
        assert report["kind"] == "stability-report"
        assert report["schema"] == 1
        (block,) = report["environments"]
        assert block["scenario"] == "quiet-single"
        assert block["seeds"] == list(SEEDS)
        assert block["kappa_ci_low"] <= block["kappa_mean"] <= block["kappa_ci_high"]
        assert block["n_eff"] + len(block["outlier_seeds"]) == len(SEEDS)
        for field in ("bench", "params", "host", "wall_s", "per_stage"):
            assert field in json.loads(telemetry_path.read_text())
