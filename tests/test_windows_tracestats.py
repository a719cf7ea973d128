"""Unit tests for windowed deviation and trace statistics."""

import numpy as np
import pytest

from repro.analysis import detect_bursts, trace_stats
from repro.core import (
    Trial,
    iat_deltas_ns,
    latency_deltas_ns,
    windowed_deviation,
)
from repro.net import make_tags

from .conftest import comb_trial, make_trial


class TestWindowedDeviation:
    def _pair(self, n=1000, gap=100.0):
        base = np.arange(n) * gap
        a = Trial(np.arange(n), base, label="A")
        # A localized disturbance: packets 400-449 delayed by 5 us.
        t = base.copy()
        t[400:450] += 5_000.0
        b = Trial(np.arange(n), np.maximum.accumulate(t), label="B")
        return a, b

    def test_windows_cover_trial(self):
        a, b = self._pair()
        w = windowed_deviation(a, b, window_ns=10_000.0)
        assert w.n_windows == 10
        assert int(w.n_common.sum()) == 1000

    def test_sums_decompose_the_metric_numerators(self):
        """Window sums add up exactly to the Eq. 3/4 numerators."""
        a, b = self._pair()
        w = windowed_deviation(a, b, window_ns=7_000.0)
        assert w.sum_abs_latency_ns.sum() == pytest.approx(
            np.abs(latency_deltas_ns(a, b)).sum(), rel=1e-12
        )
        assert w.sum_abs_iat_ns.sum() == pytest.approx(
            np.abs(iat_deltas_ns(a, b)).sum(), rel=1e-12
        )

    def test_disturbance_localized(self):
        a, b = self._pair()
        w = windowed_deviation(a, b, window_ns=10_000.0)
        hot = w.hottest_windows(1, by="latency")[0]
        # Packets 400-449 live at 40-45 ms*1e-3... window 4 of 10.
        assert hot["window"] == 4

    def test_identical_pair_is_quiet(self):
        a = comb_trial(500)
        w = windowed_deviation(a, a.relabel("B"), window_ns=5_000.0)
        assert w.sum_abs_iat_ns.sum() == 0.0
        assert w.n_missing.sum() == 0

    def test_missing_attributed_to_baseline_window(self):
        a = comb_trial(100, gap_ns=100.0)
        b = a.drop_packets([55, 56, 57]).relabel("B")
        w = windowed_deviation(a, b, window_ns=1_000.0)
        # Packets 55-57 arrive at 5.5-5.7 us -> window 5.
        assert w.n_missing[5] == 3
        assert int(w.n_missing.sum()) == 3

    def test_rows_and_validation(self):
        a, b = self._pair(100)
        w = windowed_deviation(a, b, window_ns=2_000.0)
        assert len(w.rows()) == w.n_windows
        with pytest.raises(ValueError):
            windowed_deviation(a, b, window_ns=0.0)
        with pytest.raises(KeyError):
            w.hottest_windows(by="nope")

    def test_empty_baseline_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            windowed_deviation(make_trial([]), comb_trial(5), 100.0)


class TestDetectBursts:
    def test_clear_burst_structure(self):
        # 3 bursts of 4 packets: 10 ns intra, 1000 ns inter.
        times = []
        t = 0.0
        for _ in range(3):
            for _ in range(4):
                times.append(t)
                t += 10.0
            t += 1000.0
        trial = make_trial(times)
        ids = detect_bursts(trial, gap_threshold_ns=100.0)
        assert ids[-1] == 2
        np.testing.assert_array_equal(np.bincount(ids), [4, 4, 4])

    def test_no_bursts_single_run(self):
        trial = comb_trial(50, gap_ns=100.0)
        ids = detect_bursts(trial, gap_threshold_ns=200.0)
        assert ids[-1] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_bursts(comb_trial(5), 0.0)

    def test_empty(self):
        assert detect_bursts(make_trial([]), 10.0).shape == (0,)


class TestTraceStats:
    def test_paper_style_summary(self):
        # ~3.5 Mpps comb.
        trial = comb_trial(10_000, gap_ns=284.0)
        s = trace_stats(trial)
        assert s.n_packets == 10_000
        assert s.pps == pytest.approx(1e9 / 284.0, rel=1e-3)
        assert s.iat_p50_ns == pytest.approx(284.0)
        assert s.n_replayers == 1

    def test_per_replayer_composition(self):
        tags = np.concatenate([make_tags(60, replayer_id=1),
                               make_tags(40, replayer_id=2)])
        trial = Trial(tags, np.arange(100) * 10.0)
        s = trace_stats(trial)
        assert s.n_replayers == 2
        assert s.per_replayer_counts == {1: 60, 2: 40}

    def test_burst_statistics(self):
        times = []
        t = 0.0
        for _ in range(10):
            for _ in range(8):
                times.append(t)
                t += 112.0
            t += 5_000.0
        s = trace_stats(make_trial(times))
        assert s.n_bursts == 10
        assert s.mean_burst_size == pytest.approx(8.0)

    def test_empty_trial(self):
        s = trace_stats(make_trial([]))
        assert s.n_packets == 0
        assert s.pps == 0.0

    def test_rows_flat(self):
        s = trace_stats(comb_trial(100))
        row = s.rows()
        assert row["packets"] == 100
        assert "Mpps" in row
