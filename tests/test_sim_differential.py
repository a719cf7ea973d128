"""Differential suite: the simulation fan-out must equal serial *exactly*.

Simulation fans out one grain only: whole series, as sweep units
(:func:`repro.sweep.run_sweep`); a series itself always replays its runs
serially (:meth:`repro.testbeds.Testbed.run_series`).  The contract is
the same as the analysis engine's: fan-out never changes a single bit.
Every assertion here is ``==`` / ``np.array_equal`` — never ``approx`` —
over a grid of scenario shapes (quiet single-replayer, reordered
dual-replayer merge, droppy shared-port under background noise) and job
counts, covering the trial packet arrays, the recorded per-run seed
keys, the run diagnostics, and the downstream Section-3 κ reports.

``REPRO_DIFF_JOBS`` (comma-separated, e.g. ``2,4``) restricts the job
counts exercised — CI uses it to split the matrix across runners.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import compare_series
from repro.parallel import pool_stats, shutdown_pool
from repro.sweep import plan_unit, run_sweep
from repro.testbeds import (
    Testbed,
    fabric_shared_40g_noisy,
    local_dual_replayer,
    local_single_replayer,
)

from .test_parallel_differential import assert_series_equal
from .test_queueing import reference_tail_drop


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4,8")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()
N_RUNS = 4
SEED = 11

#: Scenario grid: names -> short-duration profiles covering the
#: structurally distinct simulation paths.
SCENARIOS = {
    # Quiet: one replayer, no background, no drops.
    "quiet-single": lambda: local_single_replayer().at_duration(3e6),
    # Reordered: two replayers merging at the switch interleave substreams.
    "reordered-dual": lambda: local_dual_replayer().at_duration(3e6),
    # Droppy + noisy: shared SR-IOV port under an iperf3 co-tenant.
    "droppy-noisy": lambda: fabric_shared_40g_noisy().at_duration(6e6),
}

#: Serial reference series per scenario, simulated once in-process.
_reference_cache: dict = {}
#: Per (scenario, jobs): one two-unit sweep, shared by the tests below.
_sweep_cache: dict = {}


def _reference(scenario: str):
    if scenario not in _reference_cache:
        profile = SCENARIOS[scenario]()
        _reference_cache[scenario] = Testbed(profile, seed=SEED).run_series(
            N_RUNS, collect_artifacts=True
        )
    return _reference_cache[scenario]


def _swept(scenario: str, jobs: int):
    """The scenario's series swept as a unit beside a 2-run twin unit.

    Two units, so ``jobs > 1`` really sends each to a pool worker.  The
    twin keeps the seed: its runs are the series' first two runs, since a
    run's stream depends neither on the runs before it nor on those after.
    """
    if (scenario, jobs) not in _sweep_cache:
        profile = SCENARIOS[scenario]()
        plan = [plan_unit(scenario, profile, SEED, n) for n in (N_RUNS, 2)]
        _sweep_cache[scenario, jobs] = run_sweep(plan, None, jobs=jobs)
    return _sweep_cache[scenario, jobs]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


# -- exact-equality helpers ------------------------------------------------

def assert_trial_equal(got, want):
    assert got.tags.dtype == want.tags.dtype
    assert got.times_ns.dtype == want.times_ns.dtype
    assert np.array_equal(got.tags, want.tags)
    assert np.array_equal(got.times_ns, want.times_ns)
    assert got.label == want.label
    assert got.meta == want.meta


def assert_artifacts_equal(got, want):
    assert_trial_equal(got.trial, want.trial)
    assert got.n_dropped == want.n_dropped
    assert got.n_stalls == want.n_stalls
    assert got.freq_errors_ppm == want.freq_errors_ppm  # tuples of floats: exact
    assert got.start_offsets_ns == want.start_offsets_ns
    assert got.seed_key == want.seed_key


# -- the differential suite ------------------------------------------------

class TestSimulationDifferential:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_series_bit_identical(self, scenario, jobs):
        """A swept unit's trials == run_series, bit-for-bit, at any jobs."""
        want_trials, _ = _reference(scenario)
        full, twin = _swept(scenario, jobs).trials
        assert len(full) == len(want_trials) == N_RUNS
        for g, w in zip(full, want_trials, strict=True):
            assert_trial_equal(g, w)
        for g, w in zip(twin, want_trials[:2], strict=True):
            assert_trial_equal(g, w)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    def test_downstream_kappa_reports_identical(self, scenario, jobs):
        """Section-3 reports of pool-computed units equal the serial ones."""
        want_trials, _ = _reference(scenario)
        got = _swept(scenario, jobs).series[0]
        want = compare_series(want_trials, environment=SCENARIOS[scenario]().name)
        assert_series_equal(got, want)
        for g, w in zip(got.pairs, want.pairs):
            assert g.metrics.kappa() == w.metrics.kappa()

    def test_run_series_is_serial_only(self):
        """A series never fans out: any ``jobs`` but 1 is refused, poolless."""
        before = pool_stats().created_total
        with pytest.raises(ValueError, match="jobs must be 1"):
            Testbed(SCENARIOS["quiet-single"](), seed=SEED).run_series(2, jobs=2)
        assert pool_stats().created_total == before

    def test_droppy_scenario_actually_drops(self):
        """The grid is honest: the noisy scenario exercises the drop path."""
        _, arts = _reference("droppy-noisy")
        assert sum(a.n_dropped for a in arts) > 0

    def test_droppy_scenario_matches_reference_tail_drop(self, monkeypatch):
        """The shared port's tail drop equals the packet-at-a-time oracle."""
        want_trials, want_arts = _reference("droppy-noisy")
        monkeypatch.setattr("repro.net.sriov.fifo_tail_drop", reference_tail_drop)
        got_trials, got_arts = Testbed(
            SCENARIOS["droppy-noisy"](), seed=SEED
        ).run_series(N_RUNS, collect_artifacts=True)
        assert sum(a.n_dropped for a in got_arts) > 0
        for g, w in zip(got_arts, want_arts, strict=True):
            assert_artifacts_equal(g, w)
            assert g.trial.tags.tobytes() == w.trial.tags.tobytes()
            assert g.trial.times_ns.tobytes() == w.trial.times_ns.tobytes()

    def test_reordered_scenario_uses_two_replayers(self):
        assert SCENARIOS["reordered-dual"]().n_replayers == 2

    def test_seed_keys_recorded(self):
        """Every run's artifact carries its SeedSequence spawn key."""
        _, arts = _reference("quiet-single")
        assert [a.seed_key for a in arts] == [(0, i + 1) for i in range(N_RUNS)]
