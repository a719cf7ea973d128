"""Differential harness for the fused timing kernel.

:func:`repro.core.fusedpass.fused_timings` replaced the four separate
timing passes of ``compare_trials`` — ``latency_deltas_ns``,
``iat_deltas_ns`` and the two figure histograms.  Its contract is the
same as the whole-pair fan-out's: **bit-identical** output, so every
assertion here is exact (``==`` on floats, ``np.array_equal`` on
arrays), never approximate.

The per-component functions stay exported precisely to serve as the
reference path of this suite.  Coverage:

* a quiet/reordered/droppy grid of randomized pairs (drops, jitter,
  duplicate-heavy tags, extra run-only packets);
* the ordering permutation corpus
  (:data:`tests.ordering_corpus.CORPUS`) turned into trial pairs
  two ways — a drop-free value-order reshuffle and a droppy jittered
  replay — so the exact permutation shapes that stress the LIS
  also stress the fused gather's index arithmetic;
* the report drivers at jobs 1/2/4/8 (``REPRO_DIFF_JOBS`` restricts, as
  in the other differential suites): the serial report is built on the
  fused kernel, and the whole-pair fan-out over the saved captures must
  still equal it at every job count;
* the windowed series: ``windowed_deviation`` routes through the fused
  kernel and must equal :func:`deviation_from_deltas` fed the
  per-component delta arrays.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.core.fusedpass import fused_timings
from repro.core.histograms import DeltaHistogram, SymlogBins, pct_within
from repro.core.iat import iat_deltas_ns, iat_from_matching
from repro.core.latency import latency_deltas_ns, latency_from_matching
from repro.core.matching import match_trials
from repro.core.report import compare_series, compare_trials
from repro.analysis import analyze_directory
from repro.core.windows import deviation_from_deltas, windowed_deviation

from .conftest import make_trial, suite_rng
from .ordering_corpus import CORPUS
from .test_parallel_differential import assert_series_equal, saved


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4,8")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()


# -- pair generators -------------------------------------------------------

def _grid_pair(kind: str, n: int, salt: int):
    """One (baseline, run) pair of the quiet/reordered/droppy grid."""
    rng = suite_rng((71, salt))
    tags = rng.integers(0, max(2, n // 3), size=n).astype(np.int64)
    times = np.cumsum(rng.exponential(120.0, size=n))
    baseline = make_trial(times, tags, label="A")

    if kind == "quiet":
        return baseline, make_trial(times.copy(), tags.copy(), label="B")
    if kind == "reordered":
        run_times = times + rng.normal(0.0, 250.0, size=n)
        order = np.argsort(run_times, kind="stable")
        return baseline, make_trial(run_times[order], tags[order], label="B")
    if kind == "droppy":
        keep = rng.random(n) > 0.1
        run_tags = tags[keep]
        run_times = times[keep] + rng.normal(0.0, 180.0, size=int(keep.sum()))
        n_extra = int(rng.integers(0, 4))
        if n_extra:
            run_tags = np.concatenate(
                [run_tags, rng.integers(10_000_000, 10_000_100, size=n_extra)]
            )
            run_times = np.concatenate(
                [run_times, rng.uniform(0.0, times[-1], size=n_extra)]
            )
        order = np.argsort(run_times, kind="stable")
        return baseline, make_trial(run_times[order], run_tags[order], label="B")
    raise KeyError(kind)


def _corpus_pairs(name: str):
    """Two trial pairs derived from one ordering corpus sequence.

    The corpus entries are the permutation/duplicate shapes that stress
    the LIS machinery; here they become the *tag* streams of a pair.  The
    first variant re-sorts the run's arrivals by tag value (a pure
    reorder, no drops — for ``reversed`` that is a full reversal); the
    second jitters and drops (the matching shrinks, the gather's indices
    turn sparse).
    """
    seq = CORPUS[name]
    n = seq.shape[0]
    rng = suite_rng((72, zlib.crc32(name.encode())))
    times = np.cumsum(rng.exponential(100.0, size=n))
    baseline = make_trial(times, seq, label="A")

    order = np.argsort(seq, kind="stable")
    permuted = make_trial(times.copy(), seq[order], label="B")

    keep = rng.random(n) > 0.12
    run_times = times[keep] + rng.normal(0.0, 200.0, size=int(keep.sum()))
    arrival = np.argsort(run_times, kind="stable")
    droppy = make_trial(run_times[arrival], seq[keep][arrival], label="B")
    return [("value-order", baseline, permuted), ("droppy", baseline, droppy)]


# -- the reference check ---------------------------------------------------

def _assert_fused_matches_components(baseline, run, window_ns=None):
    """Every fused field equals its per-component reference, bit for bit."""
    bins = SymlogBins()
    m = match_trials(baseline, run)
    fused = fused_timings(baseline, run, m, bins=bins, window_ns=window_ns)

    dlat_ref = latency_deltas_ns(baseline, run, matching=m)
    diat_ref = iat_deltas_ns(baseline, run, matching=m)
    assert fused.dlat.dtype == dlat_ref.dtype
    assert fused.diat.dtype == diat_ref.dtype
    assert np.array_equal(fused.dlat, dlat_ref)
    assert np.array_equal(fused.diat, diat_ref)

    lat_ref = DeltaHistogram.from_deltas(dlat_ref, bins)
    iat_ref = DeltaHistogram.from_deltas(diat_ref, bins)
    assert np.array_equal(fused.lat_counts, lat_ref.counts)
    assert np.array_equal(fused.iat_counts, iat_ref.counts)

    if m.n_common:
        assert fused.l == latency_from_matching(baseline, run, m)
        assert fused.i == iat_from_matching(baseline, run, m)
    else:
        assert fused.l == 0.0 and fused.i == 0.0
    assert fused.pct_iat_within == pct_within(diat_ref, 10.0)
    assert fused.iat_within == int(np.count_nonzero(np.abs(diat_ref) <= 10.0))

    if window_ns is not None and m.n_common:
        ref = deviation_from_deltas(
            baseline.relative_times_ns(),
            m.idx_a,
            np.abs(dlat_ref),
            np.abs(diat_ref),
            window_ns,
        )
        got = fused.windows
        assert got is not None
        assert got.window_ns == ref.window_ns
        for fld in (
            "starts_ns",
            "n_common",
            "n_missing",
            "sum_abs_latency_ns",
            "sum_abs_iat_ns",
            "max_abs_latency_ns",
            "max_abs_iat_ns",
        ):
            assert np.array_equal(getattr(got, fld), getattr(ref, fld)), fld


# -- the grid --------------------------------------------------------------

class TestFusedGrid:
    @pytest.mark.parametrize("kind", ["quiet", "reordered", "droppy"])
    @pytest.mark.parametrize("n", [2, 17, 400, 3000])
    def test_fused_equals_components(self, kind, n):
        for salt in range(4):
            baseline, run = _grid_pair(kind, n, salt)
            _assert_fused_matches_components(baseline, run)

    @pytest.mark.parametrize("kind", ["quiet", "reordered", "droppy"])
    def test_fused_windows_equal_components(self, kind):
        baseline, run = _grid_pair(kind, 800, 9)
        _assert_fused_matches_components(baseline, run, window_ns=5_000.0)

    def test_disjoint_pair_short_circuits(self):
        baseline = make_trial([0.0, 100.0, 200.0], [1, 2, 3], label="A")
        run = make_trial([0.0, 100.0], [7, 8], label="B")
        m = match_trials(baseline, run)
        fused = fused_timings(baseline, run, m)
        assert fused.n_common == 0
        assert fused.l == 0.0 and fused.i == 0.0
        assert fused.pct_iat_within == 0.0
        assert fused.dlat.size == 0 and fused.diat.size == 0
        assert int(fused.lat_counts.sum()) == 0
        assert int(fused.iat_counts.sum()) == 0

    def test_windowed_deviation_empty_matching(self):
        """The driver's no-common-packets fallback still windows the baseline."""
        baseline = make_trial([0.0, 1_000.0, 9_000.0], [1, 2, 3], label="A")
        run = make_trial([0.0, 500.0], [7, 8], label="B")
        wd = windowed_deviation(baseline, run, window_ns=2_000.0)
        assert int(wd.n_common.sum()) == 0
        assert int(wd.n_missing.sum()) == 3


# -- the ordering permutation corpus ---------------------------------------

class TestFusedCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fused_equals_components_on_corpus(self, name):
        for variant, baseline, run in _corpus_pairs(name):
            _assert_fused_matches_components(baseline, run)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_report_driver_on_corpus(self, name):
        """compare_trials (fused inside) re-derived per-component, exactly."""
        for variant, baseline, run in _corpus_pairs(name):
            report = compare_trials(baseline, run)
            m = match_trials(baseline, run)
            if m.n_common:
                assert report.metrics.l == latency_from_matching(baseline, run, m)
                assert report.metrics.i == iat_from_matching(baseline, run, m)
            diat_ref = iat_deltas_ns(baseline, run, matching=m)
            assert report.pct_iat_within_10ns == pct_within(diat_ref, 10.0)
            iat_ref = DeltaHistogram.from_deltas(
                diat_ref, report.iat_hist.bins, label=run.label
            )
            assert np.array_equal(report.iat_hist.counts, iat_ref.counts)
            assert report.iat_hist.n_total == iat_ref.n_total


# -- job counts: the whole-pair fan-out still equals the fused serial -----

class TestFusedAcrossJobs:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_engine_equals_fused_serial(self, jobs, tmp_path):
        # One baseline, one run per regime: three pairs to fan out.
        series = saved([_grid_pair("quiet", 2500, 31)[0]] + [
            _grid_pair(kind, 2500, 31)[1] for kind in ("quiet", "reordered", "droppy")
        ], tmp_path)
        got = analyze_directory(tmp_path, environment="grid", jobs=jobs)
        assert_series_equal(got, compare_series(series, environment="grid"))

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_engine_equals_fused_serial_on_corpus(self, jobs, tmp_path):
        for name in ("far-moved-packet", "duplicate-heavy", "interleaved-runs"):
            (_, baseline, permuted), (_, _, droppy) = _corpus_pairs(name)
            series = saved([baseline, permuted, droppy], tmp_path / name)
            got = analyze_directory(tmp_path / name, environment=name, jobs=jobs)
            assert_series_equal(got, compare_series(series, environment=name))
