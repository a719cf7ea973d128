"""Unit tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs.export import validate_chrome_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        p = build_parser()
        assert p.parse_args(["scenarios"]).command == "scenarios"
        args = p.parse_args(["simulate", "local-single", "--runs", "3", "--scale", "0.1"])
        assert args.scenario == "local-single" and args.runs == 3
        assert p.parse_args(["analyze", "/tmp/x"]).directory == "/tmp/x"
        assert p.parse_args(["table2", "--no-paper"]).no_paper
        assert p.parse_args(["figure", "4a"]).figure_id == "4a"
        args = p.parse_args([
            "monitor", "/tmp/x", "--window-ms", "2.5",
            "--chunk", "512", "--kappa-step", "0.05", "--fail-on-degraded",
        ])
        assert args.directory == "/tmp/x" and args.window_ms == 2.5
        assert args.chunk == 512 and args.kappa_step == 0.05
        assert args.fail_on_degraded

    @pytest.mark.parametrize(
        "argv", [["table1"], ["figure", "4a"], ["simulate", "local-single"]]
    )
    def test_single_series_commands_take_no_jobs(self, argv, capsys):
        """One series never fans out, so these commands have no --jobs."""
        p = build_parser()
        assert p.parse_args(argv + ["--store", "/tmp/s"]).store == "/tmp/s"
        with pytest.raises(SystemExit):
            p.parse_args(argv + ["--jobs", "2"])

    def test_analyze_takes_jobs_but_no_store(self, capsys):
        """analyze simulates nothing, so it has no series store."""
        p = build_parser()
        assert p.parse_args(["analyze", "/tmp/x", "--jobs", "3"]).jobs == 3
        with pytest.raises(SystemExit):
            p.parse_args(["analyze", "/tmp/x", "--store", "/tmp/s"])

    @pytest.mark.parametrize("command", ["simulate", "sweep", "stability"])
    @pytest.mark.parametrize("runs", ["1", "0", "-3", "two"])
    def test_runs_below_two_is_a_usage_error(self, command, runs, capsys):
        """A series is a baseline plus at least one repeat run."""
        with pytest.raises(SystemExit) as ei:
            main([command, "local-single", "--runs", runs])
        assert ei.value.code == 2
        assert "--runs" in capsys.readouterr().err

    def test_ci_flags_parse(self):
        p = build_parser()
        args = p.parse_args(["table2", "--ci", "--ci-seeds", "6"])
        assert args.ci and args.ci_seeds == 6
        assert not p.parse_args(["table2"]).ci
        args = p.parse_args(["validate", "--ci"])
        assert args.ci and args.ci_seeds == 4  # the default screen width

    def test_stability_flags_parse(self):
        p = build_parser()
        args = p.parse_args([
            "stability", "local-dual", "--seeds", "3,5,8", "--eps", "0.01",
            "--max-runs", "16", "--runs", "2", "--jobs", "4",
            "--store", "/tmp/s", "-o", "/tmp/out",
        ])
        assert args.command == "stability"
        assert args.scenario == ["local-dual"]
        assert args.seeds == "3,5,8" and args.eps == 0.01
        assert args.max_runs == 16 and args.runs == 2
        assert args.jobs == 4 and args.store == "/tmp/s"
        assert args.output == "/tmp/out"
        defaults = p.parse_args(["stability"])
        assert defaults.scenario == [] and defaults.seeds is None
        assert defaults.eps == 0.005 and defaults.max_runs == 12


class TestBadInput:
    """Bad input is a usage error: exit 2 with ``<command>:`` on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                [command, "local-single", "--scale", scale]
                if command == "simulate" else [command, "--scale", scale]
                for command in ("simulate", "table1")
                for scale in ("-1", "0", "nan")
            ),
            ["simulate", "nosuch"],
            ["simulate", "--profile", "{tmp}/missing.json"],
            ["validate", "--scale", "0.02"],
            ["table2", "--ci", "--ci-seeds", "0"],
            ["monitor", "{tmp}", "--window-ms", "0"],
            ["monitor", "{tmp}", "--chunk", "0"],
            ["monitor", "{tmp}/missing"],
            ["monitor", "{tmp}/garbage"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_with_command_prefix(self, argv, capsys, tmp_path):
        (tmp_path / "garbage").mkdir()
        for name in ("run-000.cho", "run-001.cho"):
            (tmp_path / "garbage" / name).write_bytes(b"not a trial file")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert f"{argv[0]}: " in capsys.readouterr().err


class TestJobsValidation:
    """A bad worker count is a usage error (exit 2), never a traceback
    and never a silent fall-back to serial."""

    def test_simulate_jobs_zero(self, capsys):
        """simulate resolves one series serially and takes no --jobs."""
        with pytest.raises(SystemExit) as ei:
            main(["simulate", "local-single", "--jobs", "0"])
        assert ei.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_analyze_jobs_zero(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["analyze", str(tmp_path), "--jobs", "0"])
        assert ei.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_negative_jobs(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["sweep", "local-single", "--jobs", "-2", "--store", str(tmp_path)])
        assert ei.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_non_integer_repro_jobs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(SystemExit) as ei:
            main(["analyze", str(tmp_path)])
        assert ei.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err


class TestObservabilityOptions:
    """``--trace`` streams through the sink; bad settings are usage errors."""

    @pytest.fixture(scope="class")
    def caps(self, tmp_path_factory):
        """Four saved runs: three whole pairs for two analysis workers."""
        out = tmp_path_factory.mktemp("caps")
        assert main([
            "simulate", "local-single", "--runs", "4", "--scale", "0.02",
            "-o", str(out),
        ]) == 0
        return str(out)

    @pytest.fixture(autouse=True)
    def _clean_obs(self, monkeypatch):
        from repro.obs import metrics, trace

        for var in (
            "REPRO_TRACE", "REPRO_METRICS_PORT", "REPRO_METRICS_HOLD_S",
        ):
            monkeypatch.delenv(var, raising=False)
        trace.reset()
        metrics.REGISTRY.reset()
        yield
        trace.reset()
        metrics.REGISTRY.reset()

    def test_trace_streams_worker_spans_with_stats(self, capsys, tmp_path, caps):
        path = tmp_path / "t.json"
        assert main(
            ["analyze", caps, "--jobs", "2", "--trace", str(path), "--stats"]
        ) == 0
        events = json.loads(path.read_text())
        assert {e["ph"] for e in events} <= {"M", "X", "C", "i"}
        assert events[-1]["name"] == "trace_meta"
        meta = events[-1]["args"]
        assert meta["sink_dropped"] == 0
        span_pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(span_pids - {meta["parent_pid"]}) >= 2
        # --stats counts the parent-side series span and the worker-side pairs.
        err = capsys.readouterr().err
        assert re.search(r"^ +analysis\.series +1 ", err, re.M)
        assert re.search(r"^ +analysis\.pair\.whole +3 ", err, re.M)

    def test_json_suffix_writes_a_valid_chrome_trace(self, capsys, tmp_path, caps):
        path = tmp_path / "t.json"
        assert main(["analyze", caps, "--jobs", "2", "--trace", str(path)]) == 0
        summary = validate_chrome_trace(
            path, min_worker_pids=2,
            require_spans=("cli.analyze", "analysis.pair.whole"),
        )
        assert summary["dropped_spans"] == 0
        # Tracing changes no output byte.
        traced = capsys.readouterr().out
        assert main(["analyze", caps, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == traced

    def test_traced_pooled_sweep_matches_serial(self, capsys, tmp_path):
        """Two units at --jobs 2 fan out through the pool under --trace."""
        sweep = [
            "sweep", "local-single", "local-dual", "--runs", "2",
            "--scale", "0.02",
        ]
        path = tmp_path / "t.json"
        assert main(sweep + [
            "--jobs", "2", "--trace", str(path),
            "--store", str(tmp_path / "store-a"), "-o", str(tmp_path / "out"),
        ]) == 0
        assert main(sweep + [
            "--jobs", "1",
            "--store", str(tmp_path / "store-b"), "-o", str(tmp_path / "plain"),
        ]) == 0
        assert (tmp_path / "out" / "sweep.json").read_bytes() == (
            tmp_path / "plain" / "sweep.json"
        ).read_bytes()
        # Record and replay runs happen inside the units, in the workers.
        summary = validate_chrome_trace(
            path, min_worker_pids=2,
            require_spans=("cli.sweep", "testbed.record", "sim.run"),
        )
        assert summary["dropped_spans"] == 0
        unit_pids = {
            e["pid"] for e in json.loads(path.read_text())
            if e["ph"] == "X" and e["name"] == "sweep.unit.remote"
        }
        assert len(unit_pids) == 2

    @pytest.mark.parametrize(
        "env, flags, msg",
        [
            ({"REPRO_METRICS_PORT": "abc"}, [], "REPRO_METRICS_PORT"),
            ({"REPRO_METRICS_HOLD_S": "abc"}, [], "REPRO_METRICS_HOLD_S"),
            ({"REPRO_METRICS_HOLD_S": "-1"}, [], "REPRO_METRICS_HOLD_S"),
        ],
    )
    def test_malformed_settings_are_usage_errors(
        self, capsys, monkeypatch, env, flags, msg
    ):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios"] + flags)
        assert exc.value.code == 2
        assert msg in capsys.readouterr().err


class TestCommands:
    def test_scenarios_lists_all_nine(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 9
        assert "local-single" in out and "fabric-shared-40g-noisy" in out

    def test_simulate_and_analyze_roundtrip(self, capsys, tmp_path):
        out_dir = str(tmp_path / "caps")
        rc = main([
            "simulate", "local-single", "--runs", "2",
            "--scale", "0.01", "-o", out_dir,
        ])
        assert rc == 0
        sim_out = capsys.readouterr().out
        assert "per-run metrics" in sim_out
        assert main(["analyze", out_dir]) == 0
        ana_out = capsys.readouterr().out
        assert "kappa" in ana_out

    def test_simulate_reads_and_feeds_the_store(self, capsys, tmp_path):
        """simulate is one sweep unit: stored once, then a hit, same bytes."""
        store = tmp_path / "store"
        argv = [
            "simulate", "local-single", "--runs", "2", "--scale", "0.01",
            "--store", str(store),
        ]
        outputs = []
        for k in range(2):
            assert main(argv + ["-o", str(tmp_path / f"caps{k}")]) == 0
            outputs.append(capsys.readouterr().out)
            entries = [p for p in store.rglob("*") if p.is_file()]
            assert len(entries) == 1
        assert outputs[0] == outputs[1]
        for path in sorted((tmp_path / "caps0").iterdir()):
            assert path.read_bytes() == (tmp_path / "caps1" / path.name).read_bytes()

    def test_store_flag_does_not_outlive_the_command(self, capsys, tmp_path):
        from repro.experiments.runner import persistent_store

        before = persistent_store()
        argv = [
            "simulate", "local-single", "--runs", "2", "--scale", "0.01",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert persistent_store() is before

    def test_analyze_bad_directory_is_a_usage_error(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "missing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("analyze: ") and "no captures" in err

    def test_analyze_needs_two_captures(self, capsys, tmp_path):
        from repro.analysis import save_series
        from repro.core import Trial

        import numpy as np

        t = Trial(np.arange(5, dtype=np.int64), np.arange(5.0), label="only")
        save_series([t], tmp_path / "one")
        assert main(["analyze", str(tmp_path / "one")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("analyze: ") and "at least one repeat run" in err

    def test_monitor_on_saved_captures(self, capsys, tmp_path):
        out_dir = str(tmp_path / "caps")
        assert main([
            "simulate", "local-single", "--runs", "2",
            "--scale", "0.01", "-o", out_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["monitor", out_dir, "--window-ms", "2"]) == 0
        out = capsys.readouterr().out
        assert "streaming metrics" in out
        assert "kappa" in out
        assert "windows" in out

    def test_monitor_needs_two_captures(self, capsys, tmp_path):
        from repro.analysis import save_series
        from repro.core import Trial

        import numpy as np

        t = Trial(np.arange(5, dtype=np.int64), np.arange(5.0), label="only")
        save_series([t], tmp_path / "one")
        assert main(["monitor", str(tmp_path / "one")]) == 2
        assert "at least one run" in capsys.readouterr().err

    def test_simulate_unknown_scenario(self, capsys):
        assert main(["simulate", "bogus", "--scale", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("simulate: ") and "valid keys" in err

    def test_table1(self, capsys):
        assert main(["table1", "--scale", "0.01"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table2_no_paper(self, capsys):
        assert main(["table2", "--scale", "0.005", "--no-paper"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "paper_kappa" not in out

    def test_table2_ci_columns(self, capsys):
        assert main([
            "table2", "--ci", "--ci-seeds", "3", "--scale", "0.005",
        ]) == 0
        out = capsys.readouterr().out
        assert "bootstrap intervals" in out
        for column in ("kappa_ci_low", "kappa_ci_high", "n_eff", "outliers"):
            assert column in out

    def test_stability_report(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "stab"
        assert main([
            "stability", "local-single", "--seeds", "3,5", "--runs", "2",
            "--scale", "0.01", "--eps", "0",
            "--store", str(tmp_path / "store"), "-o", str(out_dir),
        ]) == 0
        captured = capsys.readouterr()
        assert "kappa_ci_low" in captured.out
        doc = json.loads((out_dir / "stability.json").read_text())
        assert doc["kind"] == "stability-report"
        (block,) = doc["environments"]
        assert block["scenario"] == "local-single"
        assert block["seeds"] == [3, 5]
        telemetry = json.loads(
            (out_dir / "stability_telemetry.json").read_text()
        )
        assert telemetry["bench"] == "stability"

    def test_stability_rejects_bad_seeds(self, capsys):
        assert main(["stability", "--seeds", "3,x"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_stability_unknown_scenario(self, capsys):
        assert main(["stability", "bogus"]) == 2
        assert "valid keys" in capsys.readouterr().err

    def test_figure(self, capsys):
        assert main(["figure", "4a", "--scale", "0.01"]) == 0
        assert "Figure 4a" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "99z"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "f.svg"
        assert main(["figure", "4a", "--scale", "0.01", "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_simulate_custom_profile(self, capsys, tmp_path):
        from repro.testbeds import local_single_replayer, save_profile

        path = save_profile(
            local_single_replayer().at_duration(1e6), tmp_path / "env.json"
        )
        assert main(["simulate", "--profile", str(path), "--runs", "2"]) == 0
        assert "local-single" in capsys.readouterr().out

    def test_simulate_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["simulate"]) == 2
        assert "exactly one" in capsys.readouterr().err
        from repro.testbeds import local_single_replayer, save_profile

        path = save_profile(local_single_replayer(), tmp_path / "env.json")
        assert main(["simulate", "local-single", "--profile", str(path)]) == 2

    def test_report_generates_artifacts(self, capsys, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "-o", str(out), "--scale", "0.005", "--no-svg"]) == 0
        assert (out / "table2.txt").exists()
        assert (out / "table1.txt").exists()
        assert (out / "fig4a.txt").exists()
        # All 13 figures, no SVGs when --no-svg.
        assert len(list(out.glob("fig*.txt"))) == 13
        assert not list(out.glob("*.svg"))

    def test_report_with_svg(self, capsys, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "-o", str(out), "--scale", "0.005"]) == 0
        assert (out / "fig4a.svg").exists()
        assert (out / "table2_kappa.svg").exists()
