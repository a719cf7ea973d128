"""Unit tests for the clock substrate (repro.timing)."""

import numpy as np
import pytest

from repro.timing import (
    FABRIC_PTP,
    LOCAL_PTP,
    TSC,
    PTPDomain,
    PTPProfile,
    RealtimeHWStamper,
    SampledClockStamper,
)


class TestTSC:
    def test_period(self):
        assert TSC(frequency_hz=1e9).period_ns == 1.0

    def test_read_is_integer_cycles(self):
        tsc = TSC(frequency_hz=2.4e9)
        c = tsc.read(1000.0)
        assert c == int(1000.0 * 2.4)

    def test_read_vectorized(self):
        tsc = TSC(frequency_hz=1e9)
        out = tsc.read(np.array([0.0, 1.5, 2.0]))
        np.testing.assert_array_equal(out, [0, 1, 2])
        assert out.dtype == np.int64

    def test_roundtrip_within_period(self):
        tsc = TSC(frequency_hz=2.4e9)
        back = tsc.cycles_to_ns(tsc.ns_to_cycles(12345.0))
        assert abs(back - 12345.0) < tsc.period_ns

    def test_quantize(self):
        tsc = TSC(frequency_hz=1e9)
        assert tsc.quantize_ns(5.7) == 5.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TSC(frequency_hz=0)


class TestPTP:
    def test_profiles_ordering(self):
        """FABRIC's ptp_kvm chain is coarser than the local grandmaster."""
        assert FABRIC_PTP.residual_ns > LOCAL_PTP.residual_ns

    def test_sync_sets_offsets(self):
        """One residual draw per follower, in order, from the run's stream."""
        profile = PTPProfile(residual_ns=50.0, path_asymmetry_ns=7.0)
        offsets = PTPDomain(profile, np.random.default_rng(3)).synchronize_all(2)
        ref = np.random.default_rng(3)
        assert offsets == [ref.normal(0.0, 50.0) + 7.0, ref.normal(0.0, 50.0) + 7.0]

    def test_zero_residual_still_draws(self):
        """The stream advances by one draw per follower at any error scale."""
        rng = np.random.default_rng(5)
        offsets = PTPDomain(PTPProfile(residual_ns=0.0), rng).synchronize_all(2)
        assert offsets == [0.0, 0.0]
        ref = np.random.default_rng(5)
        ref.normal(size=2)
        assert rng.random() == ref.random()

    def test_residuals_have_expected_scale(self, rng):
        dom = PTPDomain(profile=PTPProfile(residual_ns=100.0), rng=rng)
        draws = dom.synchronize_all(300)
        assert np.std(draws) == pytest.approx(100.0, rel=0.2)

    def test_path_asymmetry_biases(self, rng):
        dom = PTPDomain(
            profile=PTPProfile(residual_ns=1.0, path_asymmetry_ns=500.0), rng=rng
        )
        offs = dom.synchronize_all(50)
        assert np.mean(offs) == pytest.approx(500.0, abs=5.0)


class TestStampers:
    def test_realtime_monotone(self, rng):
        s = RealtimeHWStamper(jitter_ns=5.0)
        t = np.sort(rng.uniform(0, 1e6, 1000))
        out = s.stamp(t, rng)
        assert np.all(np.diff(out) >= 0)

    def test_realtime_zero_jitter_is_quantization_only(self, rng):
        s = RealtimeHWStamper(jitter_ns=0.0, resolution_ns=10.0)
        out = s.stamp(np.array([15.0, 23.0]), rng)
        np.testing.assert_allclose(out, [10.0, 20.0])

    def test_sampled_monotone(self, rng):
        s = SampledClockStamper()
        t = np.sort(rng.uniform(0, 1e7, 2000))
        out = s.stamp(t, rng)
        assert np.all(np.diff(out) >= 0)

    def test_sampled_error_is_smooth_sawtooth(self, rng):
        """Between anchors the conversion error varies slowly."""
        s = SampledClockStamper(
            jitter_ns=0.0, resolution_ns=0.0, sample_interval_ns=1e6,
            sample_error_ns=50.0,
        )
        t = np.arange(0, 5e6, 1000.0)  # 1 us apart, anchors 1 ms apart
        err = s.stamp(t, rng) - t
        # Per-sample error scale is right...
        assert 5.0 < np.std(err) < 200.0
        # ...but neighbouring packets see nearly the same error.
        assert np.median(np.abs(np.diff(err))) < 1.0

    def test_sampled_empty(self, rng):
        s = SampledClockStamper()
        assert s.stamp(np.array([]), rng).shape == (0,)

    def test_sampled_adds_more_gap_noise_than_realtime(self, rng):
        """Section 8.1's recorder difference, in miniature."""
        t = np.arange(0, 1e6, 284.0)
        e810 = RealtimeHWStamper(jitter_ns=2.0)
        cx6 = SampledClockStamper(jitter_ns=14.5)
        g_real = np.diff(e810.stamp(t, np.random.default_rng(1)))
        g_samp = np.diff(cx6.stamp(t, np.random.default_rng(2)))
        assert np.std(g_samp) > np.std(g_real)
