"""Unit tests for latency step detection."""

import numpy as np
import pytest

from repro.analysis.changepoints import detect_series_steps


def noisy(n, rng, sigma=50.0):
    return rng.normal(0.0, sigma, n)


class TestDetectSteps:
    def test_no_steps_in_noise(self, rng):
        steps = detect_series_steps(noisy(20_000, rng), min_step=1_000.0)
        assert steps == []

    def test_single_step_found(self, rng):
        x = noisy(10_000, rng)
        x[6_000:] += 12_000.0  # a 12 us clock step
        steps = detect_series_steps(x, min_step=1_000.0)
        assert len(steps) == 1
        s = steps[0]
        assert abs(s.index - 6_000) < 50
        assert s.step_ns == pytest.approx(12_000.0, rel=0.05)

    def test_two_steps_found_in_order(self, rng):
        x = noisy(15_000, rng)
        x[5_000:] += 8_000.0
        x[10_000:] -= 20_000.0
        steps = detect_series_steps(x, min_step=1_000.0)
        assert len(steps) == 2
        assert steps[0].index < steps[1].index
        assert steps[0].step_ns == pytest.approx(8_000.0, rel=0.1)
        assert steps[1].step_ns == pytest.approx(-20_000.0, rel=0.1)

    def test_small_steps_ignored(self, rng):
        x = noisy(10_000, rng, sigma=5.0)
        x[5_000:] += 300.0  # below min_step
        assert detect_series_steps(x, min_step=1_000.0) == []
        # ...but found when the threshold allows it.
        found = detect_series_steps(x, min_step=100.0)
        assert len(found) == 1

    def test_ramp_is_not_a_step_forest(self, rng):
        """A linear drift (freq error) should not explode into many steps."""
        x = noisy(20_000, rng, sigma=20.0) + np.linspace(0, 2_000.0, 20_000)
        steps = detect_series_steps(x, min_step=1_500.0)
        assert len(steps) <= 1

    def test_recovers_simulated_clock_steps(self):
        """End-to-end: inject steps via ClockStepModel, recover them."""
        from repro.core import Trial, latency_deltas_ns
        from repro.testbeds import ClockStepModel

        rng = np.random.default_rng(5)
        n = 50_000
        base = np.arange(n) * 284.0
        a = Trial(np.arange(n), base + rng.normal(0, 20, n).cumsum() * 0, label="A")
        model = ClockStepModel(rate_per_sec=2e8 / n / 284.0 * 2, scale_ns=50_000.0)
        stepped = model.apply(base + rng.normal(0, 10, n), n * 284.0, rng)
        b = Trial(np.arange(n), np.maximum.accumulate(stepped), label="B")
        deltas = latency_deltas_ns(a, b)
        steps = detect_series_steps(deltas, min_step=5_000.0)
        # The model drew Poisson(2) steps of ~50 us; at least one big one
        # should be recovered whenever any was injected.
        injected_spread = np.ptp(deltas)
        if injected_spread > 20_000:
            assert len(steps) >= 1

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            detect_series_steps(np.zeros((2, 2)), min_step=1_000.0)
        with pytest.raises(ValueError):
            detect_series_steps(np.zeros(10), min_step=0.0)

    def test_short_series(self):
        assert detect_series_steps(np.array([1.0, 2.0]), min_step=1_000.0) == []
