"""Unit tests for the experiment drivers (scenarios, runner, figures, tables)."""

import numpy as np
import pytest

from repro.experiments import (
    ALL_FIGURES,
    SCENARIOS,
    default_duration_scale,
    fig4,
    run_scenario,
    run_scenario_trials,
    run_trials,
    scenario,
    table1,
    table2,
)
from repro.testbeds import local_single_replayer

TINY = 0.01  # 1% of paper duration: fast but structurally complete


class TestScenarioRegistry:
    def test_nine_environments(self):
        assert len(SCENARIOS) == 9

    def test_keys_unique(self):
        keys = [s.key for s in SCENARIOS]
        assert len(set(keys)) == len(keys)

    def test_lookup(self):
        assert scenario("local-single").paper.kappa == pytest.approx(0.9853)
        with pytest.raises(KeyError, match="valid keys"):
            scenario("nope")

    def test_all_table2_figures_covered(self):
        """Every figure id 4a..10b maps to exactly one scenario."""
        covered = [f for s in SCENARIOS for f in s.figures]
        assert sorted(covered) == sorted(ALL_FIGURES.keys() - set())
        assert len(covered) == len(set(covered))

    def test_profiles_build(self):
        for s in SCENARIOS:
            p = s.profile(duration_scale=1.0)
            assert p.duration_ns == pytest.approx(0.3e9)
            p_small = s.profile(duration_scale=0.5)
            assert p_small.duration_ns == pytest.approx(0.15e9)

    def test_seeds_distinct(self):
        seeds = [s.seed for s in SCENARIOS]
        assert len(set(seeds)) == len(seeds)

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_duration_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ValueError):
            default_duration_scale()
        monkeypatch.setenv("REPRO_SCALE", "9")
        with pytest.raises(ValueError):
            default_duration_scale()


class TestRunner:
    def test_run_trials_adhoc(self):
        trials = run_trials(local_single_replayer().at_duration(2e6), n_runs=2, seed=1)
        assert len(trials) == 2

    def test_run_scenario_report(self):
        rep = run_scenario("local-single", duration_scale=TINY, n_runs=2)
        assert rep.environment == "local-single"
        assert len(rep.pairs) == 1

    def test_memoization_returns_same_trials(self):
        a = run_scenario_trials("local-single", duration_scale=TINY, n_runs=2)
        b = run_scenario_trials("local-single", duration_scale=TINY, n_runs=2)
        assert a[0].tags is b[0].tags  # same arrays, not recomputed

    def test_series_analyzed_once(self, monkeypatch):
        """Repeated reads of a series run ``compare_series`` once per series."""
        from repro.experiments import runner
        from repro.parallel import engine

        monkeypatch.setattr(runner, "_series_cache", {})
        monkeypatch.setattr(runner, "_store", None)
        calls = []
        real = engine.compare_series

        def counting(trials, *args, **kwargs):
            calls.append(kwargs.get("environment"))
            return real(trials, *args, **kwargs)

        monkeypatch.setattr(engine, "compare_series", counting)
        for key in ("local-single", "local-dual"):
            first = run_scenario(key, duration_scale=TINY, n_runs=2)
            assert run_scenario(key, duration_scale=TINY, n_runs=2) is first
            run_scenario_trials(key, duration_scale=TINY, n_runs=2)
        assert calls == ["local-single", "local-dual"]

    def test_unknown_key_fails_fast(self):
        with pytest.raises(KeyError):
            run_scenario_trials("bogus", duration_scale=TINY)


class TestFiguresAndTables:
    def test_fig4_structure(self):
        a, b = fig4(duration_scale=TINY, n_runs=3)
        assert a.figure_id == "4a" and a.kind == "iat"
        assert b.figure_id == "4b" and b.kind == "latency"
        assert len(a.histograms) == 2  # runs B, C vs A
        assert "Figure 4a" in a.render()

    def test_all_figures_generate(self):
        for fid, gen in ALL_FIGURES.items():
            fs = gen(duration_scale=TINY, n_runs=2)
            assert fs.figure_id == fid
            assert fs.histograms[0].n_total > 0

    def test_table1_rows(self):
        rows = table1(duration_scale=TINY, n_runs=3)
        assert len(rows) == 2
        assert {"Run", "Mean", "Abs. Mean", "Min", "Max"} <= set(rows[0])

    def test_table2_covers_all_scenarios(self):
        rows = table2(duration_scale=TINY, n_runs=2)
        assert [r["environment"] for r in rows] == [
            s.profile(1.0).name for s in SCENARIOS
        ]
        assert all("paper_kappa" in r for r in rows)

    def test_table2_without_paper_columns(self):
        rows = table2(with_paper=False, duration_scale=TINY, n_runs=2)
        assert all("paper_kappa" not in r for r in rows)
