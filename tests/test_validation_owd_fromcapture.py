"""Unit tests for validation and OWD analysis."""

import numpy as np
import pytest

from repro.analysis import owd_series
from repro.core import Trial
from repro.experiments import validate_against_paper
from repro.experiments.validation import ScenarioVerdict, ValidationResult
from repro.net import PacketArray, TxNicModel
from repro.replay import ChoirNode

from .conftest import make_trial


class TestValidation:
    def test_full_validation_passes(self):
        result = validate_against_paper(duration_scale=0.05, n_runs=3)
        assert result.passed, result.render()
        assert len(result.verdicts) == 9

    def test_render_mentions_every_scenario(self):
        result = validate_against_paper(duration_scale=0.05, n_runs=3)
        text = result.render()
        assert "local-single" in text and "fabric-shared-40g-noisy" in text
        assert "overall: PASS" in text

    def test_tight_tolerance_fails_loudly(self):
        result = validate_against_paper(
            duration_scale=0.05, n_runs=3, kappa_abs_tol=1e-6
        )
        assert not result.passed
        assert any(not v.passed for v in result.verdicts)
        assert "FAIL" in result.render()

    def test_verdict_structure(self):
        result = validate_against_paper(duration_scale=0.05, n_runs=3)
        v = result.verdicts[0]
        assert isinstance(v, ScenarioVerdict)
        assert v.failures == ()

    def test_too_small_scale_rejected(self):
        with pytest.raises(ValueError, match="duration_scale >= 0.05"):
            validate_against_paper(duration_scale=0.01)


class TestOwd:
    def _setup(self, rng, n=500):
        node = ChoirNode("r", TxNicModel(rate_bps=100e9))
        batch = PacketArray.uniform(n, 1400, np.arange(n) * 284.0, replayer_id=1)
        _, rec = node.record(batch, rng)
        out = node.replay(1e9, rng)
        capture = Trial.from_arrival_events(
            out.egress.tags, out.egress.times_ns + 5_000.0  # 5 us path
        )
        return rec, capture

    def test_series_covers_received_packets(self, rng):
        rec, capture = self._setup(rng)
        s = owd_series(rec, capture)
        assert s.n_packets == 500
        # Packets cannot arrive before the (replayed) epoch.
        assert np.all(s.rx_ns > s.tx_ns.min())

    def test_drops_absent_from_series(self, rng):
        rec, capture = self._setup(rng)
        capture2 = Trial(capture.tags[5:], capture.times_ns[5:])
        s = owd_series(rec, capture2)
        assert s.n_packets == 495

    def test_summary_fields(self, rng):
        rec, capture = self._setup(rng)
        summ = owd_series(rec, capture).summary()
        assert summ["n"] == 500
        assert summ["min_ns"] <= summ["p50_ns"] <= summ["p99_ns"] <= summ["max_ns"]

    def test_trend_detects_relative_drift(self):
        # Synthetic: tx at 0..N, rx drifting 100 ppm faster.
        n =10_000
        tx = np.arange(n) * 284.0
        tags = np.arange(n)
        rx = tx * (1 + 100e-6) + 1_000.0
        from repro.replay import Recording, burstify_fixed
        from repro.timing import TSC

        rec = Recording.capture(
            PacketArray(tags, np.full(n, 1400), tx), burstify_fixed(n, 16), tx, TSC()
        )
        s = owd_series(rec, Trial(tags, rx))
        assert s.trend_ppm() == pytest.approx(100.0, rel=0.05)

    def test_empty_overlap(self, rng):
        rec, _ = self._setup(rng, n=10)
        other = make_trial(np.arange(5) * 10.0, tags=9_000_000 + np.arange(5))
        s = owd_series(rec, other)
        assert s.n_packets == 0
        assert s.summary() == {"n": 0}
