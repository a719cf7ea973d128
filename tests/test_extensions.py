"""Unit tests for the extension modules: the B&S reorder metric, the
Eq. 3/4 normalizers over raw deviation sums, statistics, and metric
balancing."""

import numpy as np
import pytest

from repro.analysis import (
    balanced_scaling,
    bootstrap_ci,
    component_ranges,
    seed_sweep,
)
from repro.core import (
    Trial,
    compare_series,
    iat_deltas_ns,
    iat_variation,
    latency_deltas_ns,
    latency_variation,
    match_trials,
    reorder_probability_by_spacing,
)
from repro.net import make_tags
from repro.testbeds import local_single_replayer

from .conftest import comb_trial, make_trial


class TestReorderBySpacing:
    def _trial(self, arrival_order, rid=1):
        """Packets tagged seq 0..n-1; arrival order given explicitly."""
        n = len(arrival_order)
        tags = make_tags(n, replayer_id=rid)[np.asarray(arrival_order)]
        return Trial(tags, np.arange(n, dtype=float) * 100.0)

    def test_in_order_stream(self):
        r = reorder_probability_by_spacing(self._trial(range(50)))
        assert not r.any_reordering
        assert np.all(r.probability == 0.0)

    def test_adjacent_swap_hits_lag_one(self):
        order = list(range(20))
        order[5], order[6] = order[6], order[5]
        r = reorder_probability_by_spacing(self._trial(order), max_lag=3)
        assert r.probability[0] == pytest.approx(1 / 19)
        assert r.probability[1] == 0.0  # lag-2 pairs unaffected by a swap

    def test_late_packet_affects_many_lags(self):
        # Packet 0 arrives after packets 1..8: inversions at many lags.
        order = [1, 2, 3, 4, 5, 6, 7, 8, 0, 9]
        r = reorder_probability_by_spacing(self._trial(order), max_lag=8)
        assert r.any_reordering
        assert np.count_nonzero(r.probability) >= 5

    def test_multi_replayer_sequences_independent(self):
        # Two nodes' streams interleaved: each internally ordered.
        a = make_tags(10, replayer_id=1)
        b = make_tags(10, replayer_id=2)
        tags = np.empty(20, dtype=np.int64)
        tags[0::2] = a
        tags[1::2] = b
        t = Trial(tags, np.arange(20, dtype=float))
        r = reorder_probability_by_spacing(t)
        assert not r.any_reordering

    def test_drops_break_pairs(self):
        # Sequence 0,1,3 (2 missing): only (0,1) forms a lag-1 pair.
        tags = make_tags(4, replayer_id=1)[[0, 1, 3]]
        t = Trial(tags, np.arange(3, dtype=float))
        r = reorder_probability_by_spacing(t, max_lag=1)
        assert r.n_pairs[0] == 1

    def test_rows_and_validation(self):
        r = reorder_probability_by_spacing(self._trial(range(5)), max_lag=2)
        assert len(r.rows()) == 2
        with pytest.raises(ValueError):
            reorder_probability_by_spacing(self._trial(range(5)), max_lag=0)


class TestGapReplayRawMetrics:
    def test_latency_identity_with_normalized(self):
        a = make_trial([0.0, 100.0, 250.0], label="A")
        b = make_trial([0.0, 130.0, 240.0], label="B")
        m = match_trials(a, b)
        raw = np.abs(latency_deltas_ns(a, b)).sum()
        span = max(b.end_ns - a.start_ns, a.end_ns - b.start_ns,
                   a.duration_ns, b.duration_ns)
        assert latency_variation(a, b) == pytest.approx(raw / (m.n_common * span))

    def test_iat_identity_with_normalized(self):
        a = make_trial([0.0, 100.0, 250.0], label="A")
        b = make_trial([0.0, 130.0, 240.0], label="B")
        raw = np.abs(iat_deltas_ns(a, b)).sum()
        denom = (a.end_ns - a.start_ns) + (b.end_ns - b.start_ns)
        assert iat_variation(a, b) == pytest.approx(raw / denom)


class TestBootstrap:
    def test_degenerate_small_samples(self):
        lo, mean, hi = bootstrap_ci([1.0, 3.0])
        assert (lo, mean, hi) == (1.0, 2.0, 3.0)

    def test_interval_brackets_mean(self, rng):
        v = rng.normal(10.0, 1.0, 30)
        lo, mean, hi = bootstrap_ci(v)
        assert lo < mean < hi
        assert hi - lo < 2.0  # ~CI width for n=30, sigma=1

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_deterministic_given_seed(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert bootstrap_ci(v, seed=1) == bootstrap_ci(v, seed=1)


class TestSeedSweep:
    def test_sweep_structure(self):
        p = local_single_replayer().at_duration(2e6)
        res = seed_sweep(p, seeds=[1, 2, 3], n_runs=2)
        assert res.kappa.shape == (3,)
        assert res.kappa_spread() >= 0.0
        row = res.row()
        assert row["n_seeds"] == 3
        assert row["kappa_ci_low"] <= row["kappa_mean"] <= row["kappa_ci_high"]

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            seed_sweep(local_single_replayer(), seeds=[])


class TestBalancedScaling:
    def _reports(self):
        # Two synthetic series with very different component scales.
        t1 = [comb_trial(50, label=l) for l in "AB"]
        rep = compare_series(t1, environment="x")
        return [rep]

    def test_component_ranges(self):
        ranges = component_ranges(self._reports())
        assert set(ranges) == {"U", "O", "L", "I"}

    def test_balancing_amplifies_small_components(self):
        from repro.core import MetricVector

        # Observed maxima: L tiny, I large.
        class FakeReport:
            def __init__(self, vals):
                self._v = vals

            def values(self, c):
                return np.array([self._v[c]])

        reports = [FakeReport({"U": 0.0, "O": 0.0, "L": 3e-4, "I": 0.5})]
        scaling = balanced_scaling(reports)
        v = MetricVector(0.0, 0.0, 3e-4, 0.5)
        su, so, sl, si = scaling.apply(v.u, v.o, v.l, v.i)
        # After balancing, the worst observed L maps to the target 0.5 —
        # the same as I, so L no longer vanishes from kappa.
        assert sl == pytest.approx(0.5, rel=1e-6)
        assert si == pytest.approx(0.5, rel=1e-6)

    def test_zero_components_not_amplified(self):
        class FakeReport:
            def values(self, c):
                return np.array([0.0])

        scaling = balanced_scaling([FakeReport()])
        assert scaling.u_exponent == 1.0

    def test_target_validation(self):
        with pytest.raises(ValueError):
            balanced_scaling(self._reports(), target=1.5)
        with pytest.raises(ValueError):
            component_ranges([])
