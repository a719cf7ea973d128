"""Differential harness: whole-pair fan-out must equal serial *exactly*.

Every assertion here is bit-for-bit — ``==`` on floats and
``np.array_equal`` on arrays, never ``approx`` — because the fan-out's
whole contract (see ``docs/parallel.md``) is that it never changes a
single bit of the Section-3 analysis.  Each series is saved as captures
and analyzed by :func:`repro.analysis.analyze_directory`, whose pool
tasks carry capture paths; the truth is the in-memory
:func:`repro.core.compare_series` of the same trials.  Randomized trial
series exercise drops, reorders and latency noise under every job count;
degenerate shapes (empty, single-packet, fully-dropped) pin the
short-circuit paths.

``REPRO_DIFF_JOBS`` (comma-separated, e.g. ``2,4``) restricts the job
counts exercised — CI uses it to split the matrix across runners.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import analyze_directory, save_series, write_capture
from repro.core import SymlogBins, compare_series
from repro.parallel import default_jobs, pool_stats

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


def saved(trials, directory):
    """Save ``trials`` as captures labelled t0, t1, ...; return them.

    ``save_series`` names each file after its trial's label, so the
    positional labels give every trial, repeated ones included, a file
    of its own.  The returned trials are the series the directory holds.
    """
    trials = [t.relabel(f"t{i}") for i, t in enumerate(trials)]
    save_series(trials, directory)
    return trials


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
    def test_randomized_pairs_exact(self, jobs, tmp_path):
        """Random droppy/reordered/noisy pairs: parallel == serial, bit-for-bit."""
        rng = np.random.default_rng(20250806 + jobs)
        for k in range(N_RANDOM_SERIES):
            trials = saved(
                random_series(rng, int(rng.integers(40, 400))), tmp_path / str(k)
            )
            got = analyze_directory(tmp_path / str(k), environment="diff", jobs=jobs)
            assert_series_equal(got, compare_series(trials, environment="diff"))

    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    def test_randomized_series_exact(self, jobs, tmp_path):
        """Whole-pair fan-out of six unrelated trials equals serial."""
        rng = np.random.default_rng(77 + jobs)
        trials = saved([random_pair(rng, 200)[0] for _ in range(6)], tmp_path)
        got = analyze_directory(tmp_path, environment="diff", jobs=jobs)
        want = compare_series(trials, environment="diff")
        assert_series_equal(got, want)

    def test_single_pair_runs_serial(self, tmp_path):
        """One pair has nothing to fan out: no pool, the serial report."""
        rng = np.random.default_rng(991)
        trials = saved(random_pair(rng, 300), tmp_path)
        before = pool_stats().created_total
        got = analyze_directory(tmp_path, environment="diff", jobs=4)
        assert pool_stats().created_total == before
        assert_series_equal(got, compare_series(trials, environment="diff"))

    def test_custom_bins_exact(self, tmp_path):
        rng = np.random.default_rng(62)
        trials = saved(random_series(rng, 120), tmp_path)
        bins = SymlogBins(linthresh=5.0, max_decade=6, bins_per_decade=3)
        want = compare_series(trials, environment="bins", bins=bins)
        got = analyze_directory(tmp_path, environment="bins", bins=bins, jobs=2)
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
    def test_degenerate_exact(self, case, jobs, tmp_path):
        a, b = self.CASES[case]()
        # Two pairs, so jobs=2 really fans out.
        trials = saved([a, b, b], tmp_path)
        got = analyze_directory(tmp_path, environment="deg", jobs=jobs)
        assert_series_equal(got, compare_series(trials, environment="deg"))


class TestSerialFastPath:
    def test_jobs_one_uses_serial_driver(self, tmp_path):
        """jobs=1 is the serial code, verbatim, with no pool."""
        a, b = comb_trial(50), comb_trial(50, start=3.0)
        trials = saved([a, b, b], tmp_path)
        before = pool_stats().created_total
        got = analyze_directory(tmp_path, environment="one", jobs=1)
        assert pool_stats().created_total == before
        assert_series_equal(got, compare_series(trials, environment="one"))

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

    def test_series_labeling_matches_serial(self, tmp_path):
        """Labelled and unlabelled captures mix exactly as in serial.

        Captures written without a label (no ``index.txt``; run order is
        file-name order) get the paper's default labels from their
        position, in the workers as in the serial path.
        """
        rng = np.random.default_rng(13)
        trials = [random_pair(rng, 80)[0] for _ in range(4)]
        trials[2] = trials[2].relabel("custom")
        for i, t in enumerate(trials):
            write_capture(t, tmp_path / f"run-{i}.cho")
        got = analyze_directory(tmp_path, environment="lbl", jobs=2)
        want = compare_series(trials, environment="lbl")
        assert [p.run_label for p in got.pairs] == ["B", "custom", "D"]
        assert_series_equal(got, want)

    def test_series_requires_two_trials(self, tmp_path):
        save_series([comb_trial(4, label="only")], tmp_path)
        with pytest.raises(ValueError):
            analyze_directory(tmp_path, jobs=2)
