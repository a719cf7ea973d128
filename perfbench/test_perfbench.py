"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  They
use a tiny duration scale, so they check the benchmark's logic, not its
timings.
"""

from __future__ import annotations

import json
import re
from itertools import islice

import pytest

from perfbench.run import (
    MAX_SETUPS, N_SETUPS, ROOT, _drive, _import_program, _Measured, _set_up_again, main,
)

_import_program()

from perfbench.tracer import LAYERS, Tracer, layer_metric_names  # noqa: E402
from perfbench.workloads import WORKLOADS, Recorder, make_workload  # noqa: E402

TINY = 0.005
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _one_item(wl, rec=None) -> tuple[object, dict]:
    _key, item = next(iter(wl.items()))
    return item, wl.run_item(item, rec if rec is not None else Recorder())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_plan_and_outputs(name, tmp_path):
    outputs = []
    for i in range(2):
        wl = make_workload(name, 7, TINY, tmp_path / str(i))
        (tmp_path / str(i)).mkdir()
        wl.setup()
        digests = [u.digest for u in getattr(wl, "plan", [])]
        outputs.append((wl.describe(), digests, _one_item(wl)[1]["output"]))
        wl.close()
    assert outputs[0] == outputs[1]
    other = make_workload(name, 8, TINY, tmp_path)
    assert other.describe() != outputs[0][0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_output_checks(name, tmp_path):
    wl = make_workload(name, 3, TINY, tmp_path)
    wl.setup()
    rec = Recorder()
    for _key, item in islice(wl.items(), 2):
        assert wl.check(item, wl.run_item(item, rec))
    assert rec.op_ns and rec.busy_ns >= sum(rec.op_ns)
    wl.close()


def test_wrappers_are_inert_and_restored(tmp_path):
    targets = []
    for layer in LAYERS:
        for target in layer.targets:
            module = __import__(target[1], fromlist=["_"])
            owner = getattr(module, target[2]) if target[0] == "method" else module
            targets.append((owner, target[-1], owner.__dict__[target[-1]]))
    for name in ("reorder", "stream"):
        wl = make_workload(name, 5, TINY, tmp_path)
        wl.setup()
        item, plain = _one_item(wl)
        tracer = Tracer()
        with tracer:
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in targets)
            traced = wl.run_item(item, Recorder(tracer=tracer))
        assert traced["output"] == plain["output"]
        assert tracer.missing == []
        assert tracer.spans and tracer.ops
        wl.close()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in targets)


def test_metric_names_match_benchmark_json(capsys):
    bench = _benchmark()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert all(NAME.fullmatch(n) for n in end_to_end | per_layer)
    assert per_layer == set(layer_metric_names())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)

    for trace, expected in ((0, end_to_end), (1, per_layer)):
        code = main(["--workload", "reorder", "--seed", "4", "--seconds", "0.01",
                     "--trace", str(trace)])
        result = _last_json(capsys)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == expected
    assert not (ROOT / ".perfbench_work").exists() or not any(
        (ROOT / ".perfbench_work").iterdir()
    )


class _Failing:
    """A workload whose every op returns output that fails its check."""

    def items(self):
        return ((i, i) for i in range(100))

    def run_item(self, item, rec):
        rec.op(lambda: None)
        return {"output": b"", "pkts": 1}

    def check(self, item, out):
        return False


class _Raising(_Failing):
    def run_item(self, item, rec):
        raise RuntimeError("broken")


@pytest.mark.parametrize("workload", [_Failing(), _Raising()])
def test_failed_op_is_counted_and_stops_the_run(workload):
    m = _drive(workload, 10.0)
    assert (m.attempted, m.failed) == (1, 1)
    assert m.raw_op_ns == [] and m.items == 0 and m.pkts_per_s() == 0.0
    assert m.op_mean_ns() == 0.0


def test_run_reports_a_low_percentile_of_each_entrys_repeats():
    m = _Measured()
    m.add("a", 100, 50, [20, 30])
    m.add("b", 300, 100, [100])
    m.add("a", 100, 40, [25, 15])
    # Entry a's op time is its least repeat (40), not its per-op least (35).
    assert m.op_mean_ns() == pytest.approx((40 + 100) / 3)
    assert m.pkts_per_s() == pytest.approx(400 / 140e-9)
    assert m.items == 3
    for busy in range(10, 0, -1):
        m.add("c", 1, busy, [busy])
    m.add("c", 1, 100, [100])
    # 11 repeats: the 10th percentile is the second least, not the least.
    assert m.op_mean_ns() == pytest.approx((40 + 100 + 2) / 4)


def test_cheap_set_ups_repeat_until_two_seconds_of_set_up():
    def count(each_s, traced=False):
        times = []
        while _set_up_again(times, traced):
            times.append(each_s)
        return len(times)

    assert count(1.3) == N_SETUPS
    assert count(0.25) == 8
    assert count(0.001) == MAX_SETUPS
    assert count(0.1, traced=True) == 1
