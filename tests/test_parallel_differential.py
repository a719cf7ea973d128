"""Differential harness: whole-pair fan-out must equal serial *exactly*.

Every assertion here is bit-for-bit — ``==`` on floats and
``np.array_equal`` on arrays, never ``approx`` — because the fan-out's
whole contract (see ``docs/parallel.md``) is that it never changes a
single bit of the Section-3 analysis.  Randomized trial series exercise
drops, reorders and latency noise under every job count; degenerate
shapes (empty, single-packet, fully-dropped) pin the short-circuit paths.

``REPRO_DIFF_JOBS`` (comma-separated, e.g. ``2,4``) restricts the job
counts exercised — CI uses it to split the matrix across runners.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import SymlogBins, compare_series
from repro.parallel import compare_series_parallel, default_jobs, pool_stats

from .conftest import comb_trial, make_trial


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4,8")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()

#: Randomized series per job count, each a baseline plus three runs; with
#: the default four job counts the suite proves exactness on
#: 4 * 20 * 3 = 240 distinct randomized pairs.
N_RANDOM_SERIES = 20


# -- exact-equality helpers ------------------------------------------------
# PairReport and DeltaHistogram hold ndarrays, so dataclass ``==`` is not
# usable; compare field by field.  Everything stays exact: array_equal is
# elementwise ``==`` and the scalar fields are plain floats/ints/strings.

def assert_hist_equal(got, want):
    assert got.bins == want.bins
    assert got.counts.dtype == want.counts.dtype
    assert np.array_equal(got.counts, want.counts)
    assert got.n_total == want.n_total
    assert got.label == want.label


def assert_pair_equal(got, want):
    assert got.baseline_label == want.baseline_label
    assert got.run_label == want.run_label
    assert got.metrics == want.metrics  # frozen dataclass of floats: exact
    assert got.n_baseline == want.n_baseline
    assert got.n_run == want.n_run
    assert got.n_common == want.n_common
    assert got.pct_iat_within_10ns == want.pct_iat_within_10ns
    assert got.move_stats == want.move_stats
    assert_hist_equal(got.iat_hist, want.iat_hist)
    assert_hist_equal(got.latency_hist, want.latency_hist)
    assert got.meta == want.meta


def assert_series_equal(got, want):
    assert got.environment == want.environment
    assert got.baseline_label == want.baseline_label
    assert len(got.pairs) == len(want.pairs)
    for g, w in zip(got.pairs, want.pairs):
        assert_pair_equal(g, w)


# -- randomized trial-pair generator ---------------------------------------

def random_pair(rng: np.random.Generator, n_base: int):
    """A (baseline, run) pair with drops, reorders and latency noise.

    Tags are drawn from a small alphabet so duplicates exercise the
    occurrence-rank matching; the run drops a random subset, gains a few
    packets of its own, and jitters every timestamp hard enough that
    re-sorting by time produces genuine reorders.
    """
    tags = rng.integers(0, max(2, n_base // 2), size=n_base).astype(np.int64)
    times = np.cumsum(rng.exponential(100.0, size=n_base))
    return make_trial(times, tags), random_run(rng, tags, times)


def random_run(rng: np.random.Generator, tags: np.ndarray, times: np.ndarray):
    """One replay of a baseline's packets: drops, extras and jitter."""
    n_base = tags.shape[0]
    keep = rng.random(n_base) > 0.08  # ~8% drops
    run_tags = tags[keep]
    run_times = times[keep] + rng.normal(0.0, 180.0, size=int(keep.sum()))
    n_extra = int(rng.integers(0, 4))  # packets unique to the run
    if n_extra:
        run_tags = np.concatenate(
            [run_tags, rng.integers(10_000_000, 10_000_100, size=n_extra)]
        )
        run_times = np.concatenate(
            [run_times, rng.uniform(0.0, times[-1], size=n_extra)]
        )
    order = np.argsort(run_times, kind="stable")
    return make_trial(run_times[order], run_tags[order])


# -- the differential suite ------------------------------------------------

def random_series(rng: np.random.Generator, n_base: int, n_runs: int = 3):
    """A baseline plus ``n_runs`` independent droppy/reordered/noisy runs."""
    baseline, run = random_pair(rng, n_base)
    runs = [run] + [
        random_run(rng, baseline.tags, baseline.times_ns) for _ in range(n_runs - 1)
    ]
    return [baseline, *runs]


class TestRandomizedDifferential:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_randomized_pairs_exact(self, jobs):
        """Random droppy/reordered/noisy pairs: parallel == serial, bit-for-bit."""
        rng = np.random.default_rng(20250806 + jobs)
        for _ in range(N_RANDOM_SERIES):
            trials = random_series(rng, int(rng.integers(40, 400)))
            got = compare_series_parallel(trials, environment="diff", jobs=jobs)
            assert_series_equal(got, compare_series(trials, environment="diff"))

    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    def test_randomized_series_exact(self, jobs):
        """Whole-pair fan-out of six unrelated trials equals serial."""
        rng = np.random.default_rng(77 + jobs)
        trials = [random_pair(rng, 200)[0] for _ in range(6)]
        got = compare_series_parallel(trials, environment="diff", jobs=jobs)
        want = compare_series(trials, environment="diff")
        assert_series_equal(got, want)

    def test_single_pair_runs_serial(self):
        """One pair has nothing to fan out: no pool, the serial report."""
        rng = np.random.default_rng(991)
        a, b = random_pair(rng, 300)
        before = pool_stats().created_total
        got = compare_series_parallel([a, b], environment="diff", jobs=4)
        assert pool_stats().created_total == before
        assert_series_equal(got, compare_series([a, b], environment="diff"))

    def test_custom_bins_exact(self):
        rng = np.random.default_rng(62)
        trials = random_series(rng, 120)
        bins = SymlogBins(linthresh=5.0, max_decade=6, bins_per_decade=3)
        want = compare_series(trials, environment="bins", bins=bins)
        got = compare_series_parallel(trials, environment="bins", bins=bins, jobs=2)
        assert_series_equal(got, want)


class TestDegenerateShapes:
    CASES = {
        "both-empty": lambda: (make_trial([]), make_trial([])),
        "empty-baseline": lambda: (make_trial([]), comb_trial(5)),
        "empty-run": lambda: (comb_trial(5), make_trial([])),
        "single-packet": lambda: (make_trial([10.0]), make_trial([12.5])),
        "all-dropped": lambda: (
            make_trial([0.0, 10.0, 20.0], tags=[1, 2, 3]),
            make_trial([1.0, 11.0, 21.0], tags=[7, 8, 9]),
        ),
        "identical": lambda: (comb_trial(64), comb_trial(64)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("jobs", [1, min(2, max(JOB_COUNTS))])
    def test_degenerate_exact(self, case, jobs):
        a, b = self.CASES[case]()
        # Two pairs, so jobs=2 really fans out.
        got = compare_series_parallel([a, b, b], jobs=jobs)
        assert_series_equal(got, compare_series([a, b, b]))


class TestSerialFastPath:
    def test_jobs_one_uses_serial_driver(self):
        """jobs=1 is the serial code, verbatim, with no pool."""
        a, b = comb_trial(50), comb_trial(50, start=3.0)
        before = pool_stats().created_total
        got = compare_series_parallel([a, b, b], jobs=1)
        assert pool_stats().created_total == before
        assert_series_equal(got, compare_series([a, b, b]))

    def test_default_jobs_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    @pytest.mark.parametrize("raw", ["two", "0", "-2", "1.5"])
    def test_default_jobs_rejects_bad_env(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()

    def test_series_labeling_matches_serial(self):
        """Pre-labelled and unlabelled trials mix exactly as in serial."""
        rng = np.random.default_rng(13)
        trials = [random_pair(rng, 80)[0] for _ in range(4)]
        trials[2] = trials[2].relabel("custom")
        got = compare_series_parallel(trials, environment="lbl", jobs=2)
        want = compare_series(trials, environment="lbl")
        assert_series_equal(got, want)

    def test_series_requires_two_trials(self):
        with pytest.raises(ValueError):
            compare_series_parallel([comb_trial(4)], jobs=2)
