"""``scripts/compare_bench_json.py``: diffing bench artifacts across runs.

The benchmarks emit ``benchmarks/out/<name>.json`` documents
(``benchmarks/_emit.py``); the comparator turns two of them into
wall-time / per-stage deltas with percent-regression flags.  Under test:
same-bench enforcement, host/params warnings, delta math, threshold
flagging, added/removed stages, and the CLI exit codes.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "compare_bench_json", REPO_ROOT / "scripts" / "compare_bench_json.py"
)
cbj = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cbj)


def _doc(wall=10.0, *, bench="streaming_kappa", stages=None, cores=8,
         params=None):
    return {
        "bench": bench,
        "params": {"n": 200_000, "seed": 12345} if params is None else params,
        "host": {"usable_cores": cores, "pool_start_method": "forkserver"},
        "wall_s": wall,
        "per_stage": {"serial": 10.0, "jobs=4": 3.5} if stages is None
        else stages,
    }


class TestCompareBench:
    def test_identical_docs_no_regressions(self):
        result = cbj.compare_bench(_doc(), _doc())
        assert result["comparable"]
        assert result["regressions"] == []
        wall = result["rows"][0]
        assert wall["name"] == "wall_s"
        assert wall["delta_s"] == 0.0 and wall["delta_pct"] == 0.0

    def test_regression_past_threshold_is_flagged(self):
        base = _doc(stages={"serial": 10.0})
        cand = _doc(wall=12.0, stages={"serial": 13.0})
        result = cbj.compare_bench(base, cand, threshold_pct=10.0)
        assert set(result["regressions"]) == {"wall_s", "per_stage.serial"}
        wall = result["rows"][0]
        assert wall["flag"] == "REGRESSION"
        assert wall["delta_pct"] == pytest.approx(20.0)

    def test_improvement_is_flagged_not_a_regression(self):
        result = cbj.compare_bench(_doc(wall=10.0), _doc(wall=7.0))
        assert result["regressions"] == []
        assert result["rows"][0]["flag"] == "improved"
        assert result["rows"][0]["delta_pct"] == pytest.approx(-30.0)

    def test_within_threshold_is_unflagged(self):
        result = cbj.compare_bench(
            _doc(wall=10.0), _doc(wall=10.5), threshold_pct=10.0
        )
        assert result["rows"][0]["flag"] == ""
        assert result["regressions"] == []

    def test_different_bench_names_refused(self):
        with pytest.raises(ValueError, match="different benchmarks"):
            cbj.compare_bench(_doc(), _doc(bench="other"))

    def test_host_and_params_differences_warn(self):
        result = cbj.compare_bench(_doc(cores=8), _doc(cores=2))
        assert not result["comparable"]
        assert any("usable_cores" in w for w in result["warnings"])
        result = cbj.compare_bench(_doc(), _doc(params={"n": 5}))
        assert any("params differ" in w for w in result["warnings"])

    def test_added_and_removed_stages(self):
        base = _doc(stages={"serial": 10.0, "old": 1.0})
        cand = _doc(stages={"serial": 10.0, "new": 2.0})
        rows = {r["name"]: r for r in cbj.compare_bench(base, cand)["rows"]}
        assert rows["per_stage.old"]["flag"] == "removed"
        assert rows["per_stage.new"]["flag"] == "added"
        assert rows["per_stage.new"]["delta_pct"] is None

    def test_zero_baseline_has_undefined_pct(self):
        result = cbj.compare_bench(
            _doc(wall=0.0, stages={}), _doc(wall=1.0, stages={})
        )
        assert result["rows"][0]["delta_pct"] is None
        assert result["regressions"] == []

    def test_render_mentions_every_row(self):
        text = cbj.render(cbj.compare_bench(_doc(), _doc(wall=20.0)))
        assert "wall_s" in text and "per_stage.serial" in text
        assert "REGRESSION" in text


class TestCompareBenchCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_cli_ok_and_fail_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _doc())
        cand = self._write(tmp_path, "cand.json", _doc(wall=20.0))
        assert cbj.main([base, cand]) == 0
        assert "REGRESSION" in capsys.readouterr().out
        assert cbj.main([base, cand, "--fail-on-regression"]) == 1
        same = self._write(tmp_path, "same.json", _doc())
        assert cbj.main([base, same, "--fail-on-regression"]) == 0

    def test_cli_rejects_malformed_and_mismatched(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bench": "x"}))
        good = self._write(tmp_path, "good.json", _doc())
        assert cbj.main([str(bad), good]) == 2
        other = self._write(tmp_path, "other.json", _doc(bench="other"))
        assert cbj.main([good, other]) == 2
        capsys.readouterr()


def _trajectory(workload="contended", *, pps=(1.0e6, 1.2e6), patience=(9.3, 1.0),
                covered=(0.95, 0.96)):
    def stats(median):
        return {"median": median, "q1": median * 0.98, "q3": median * 1.02,
                "runs": [median]}

    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} --seconds 20 --trace 0",
        "commit": "0" * 40,
        "change": "test",
        "seeds": [1, 2],
        "end_to_end": {
            "pkts_per_s": {"unit": "1/s", "better": "higher",
                           "parent": stats(pps[0]), "change": stats(pps[1])},
            "op_mean_ms": {"unit": "ms", "better": "lower",
                           "parent": stats(40.0), "change": stats(40.0)},
        },
        "traced": {"seed": 1, "seconds": 8, "layers": {
            "core.patience_ms": {"unit": "ms", "better": "lower",
                                 "parent": patience[0], "change": patience[1]},
            "op.covered_frac": {"unit": "ratio", "better": "higher",
                                "parent": covered[0], "change": covered[1]},
        }},
    }


class TestCompareTrajectory:
    """Root-level BENCH_<workload>.json documents (the perfbench trajectory)."""

    def test_one_document_parent_against_change(self):
        doc = _trajectory()
        rows = {r["name"]: r for r in cbj.compare_trajectory(
            doc, doc, base_side="parent")["rows"]}
        assert rows["end_to_end.pkts_per_s"]["flag"] == "improved"
        assert rows["end_to_end.pkts_per_s"]["base"] == 1.0e6
        assert rows["end_to_end.pkts_per_s"]["delta_pct"] == pytest.approx(20.0)
        assert rows["end_to_end.op_mean_ms"]["flag"] == ""
        assert rows["layers.core.patience_ms"]["flag"] == "improved"

    def test_direction_decides_regressions(self):
        """Higher-is-better metrics regress when they fall, and vice versa."""
        doc = _trajectory(pps=(1.2e6, 1.0e6), patience=(1.0, 9.3), covered=(0.96, 0.5))
        result = cbj.compare_trajectory(doc, doc, base_side="parent")
        assert set(result["regressions"]) == {
            "end_to_end.pkts_per_s", "layers.core.patience_ms", "layers.op.covered_frac"}

    def test_two_documents_compare_their_change_sides(self):
        old = _trajectory(pps=(0.5e6, 1.0e6))
        new = _trajectory(pps=(1.0e6, 1.5e6))
        rows = {r["name"]: r for r in cbj.compare_trajectory(old, new)["rows"]}
        assert rows["end_to_end.pkts_per_s"]["base"] == 1.0e6
        assert rows["end_to_end.pkts_per_s"]["cand"] == 1.5e6

    def test_added_layer_and_different_workloads(self):
        old = _trajectory()
        new = _trajectory()
        new["traced"]["layers"]["core.match_ms"] = {
            "unit": "ms", "better": "lower", "parent": 1.0, "change": 1.0}
        rows = {r["name"]: r for r in cbj.compare_trajectory(old, new)["rows"]}
        assert rows["layers.core.match_ms"]["flag"] == "added"
        with pytest.raises(ValueError, match="different workloads"):
            cbj.compare_trajectory(old, _trajectory("reorder"))

    def test_cli(self, tmp_path, capsys):
        path = tmp_path / "BENCH_contended.json"
        path.write_text(json.dumps(_trajectory()))
        assert cbj.main([str(path)]) == 0
        assert "improved" in capsys.readouterr().out
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(_trajectory(pps=(1.0e6, 0.5e6))))
        assert cbj.main([str(path), str(worse), "--fail-on-regression"]) == 1
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_doc()))
        assert cbj.main([str(bench)]) == 2
        assert cbj.main([str(bench), str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("path", sorted(REPO_ROOT.glob("BENCH_*.json")),
                             ids=lambda p: p.name)
    def test_committed_trajectory_files_diff(self, path):
        doc = cbj.load_doc(path)
        assert path.name == f"BENCH_{doc['workload']}.json"
        assert set(doc["end_to_end"]) == {
            "pkts_per_s", "op_mean_ms", "peak_rss_mb", "setup_s"}
        for metric in doc["end_to_end"].values():
            for side in ("parent", "change"):
                stats = metric[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"]
                assert len(stats["runs"]) == len(doc["seeds"])
        result = cbj.compare_trajectory(doc, doc, base_side="parent")
        assert len(result["rows"]) == 4 + len(doc["traced"]["layers"])
