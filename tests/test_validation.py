"""Unit tests for the validation of simulated results against the paper."""

import pytest

from repro.experiments import validate_against_paper
from repro.experiments.validation import ScenarioVerdict


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

    def test_too_small_scale_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="duration_scale >= 0.05"):
            validate_against_paper(duration_scale=0.01)
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        with pytest.raises(ValueError, match="duration_scale >= 0.05"):
            validate_against_paper()

