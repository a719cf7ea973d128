"""The record layer's poll loop against the per-burst numpy loop it replaced.

A Choir middlebox forwards in bursts of at most 64 packets (Section 5),
and the simulator groups each recording's arrivals the same way:
:func:`repro.replay.burst.burstify_poll_loop` runs the forwarding loop
once per burst.  Production runs it on Python floats, finding each
burst's end with ``bisect_right`` from the burst's first packet; the loop
it replaced made a whole-array ``searchsorted``, a numpy-scalar ``ceil``
and numpy indexing per burst, and is kept as
``tests/oracle.py:reference_burstify_poll_loop``.

Inputs are the poll-loop calls the middlebox makes while recording
``local-dual`` (two replayers, ~1,240 bursts of 8-9 packets per
recording) and ``fabric-shared-40g-noisy`` (~1,120 bursts of 19-20)
series.  Each call is timed through the oracle and through
``burstify_poll_loop``, alternately, ``REPEATS`` times, and the ids are
asserted identical every time.

The table goes to ``benchmarks/out/burst.txt``, the structured twin to
``burst.json``.  ``REPRO_BENCH_SMOKE=1`` (CI) captures fewer series and
gates production at >= 2.5x the oracle on ``local-dual``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.scenarios import scenario
from repro.replay import burstify_poll_loop, middlebox
from repro.testbeds import Testbed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracle import reference_burstify_poll_loop  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Captured scenarios and their duration scales.
SCENARIOS = {"local-dual": 0.02, "fabric-shared-40g-noisy": 0.02}
SERIES_SEEDS = (1, 2) if SMOKE else (1, 2, 3)
#: A series records once; its runs only replay, so two are enough.
N_RUNS = 2
#: Alternating repeats per input; the speedup is the median of the
#: per-repeat ratios, so CPU-speed drift between repeats cancels.
REPEATS = 15
MIN_SPEEDUP = {"local-dual": 2.5}


def _captured(name: str) -> list[tuple]:
    """``(arrival_ns, cost, max_burst)`` of every poll-loop call the
    middlebox makes while ``name``'s series are simulated."""
    calls = []
    production = middlebox._poll_loop_bursts

    def capture(arrival_ns, cost=None, max_burst=64):
        calls.append((np.array(arrival_ns), cost, max_burst))
        return production(arrival_ns, cost, max_burst)

    middlebox._poll_loop_bursts = capture
    try:
        profile = scenario(name).profile(SCENARIOS[name])
        for seed in SERIES_SEEDS:
            Testbed(profile, seed=seed).run_series(N_RUNS)
    finally:
        middlebox._poll_loop_bursts = production
    return calls


def _measure(calls: list[tuple]) -> dict:
    oracle_s = np.zeros(REPEATS)
    production_s = np.zeros(REPEATS)
    bursts = 0
    for r in range(REPEATS):
        for args in calls:
            t0 = time.perf_counter()
            want = reference_burstify_poll_loop(*args)
            t1 = time.perf_counter()
            got = burstify_poll_loop(*args)
            t2 = time.perf_counter()
            oracle_s[r] += t1 - t0
            production_s[r] += t2 - t1
            assert got.dtype == want.dtype and np.array_equal(got, want)
            if r == 0:
                bursts += int(got[-1]) + 1 if got.size else 0
    packets = sum(args[0].shape[0] for args in calls)
    return dict(
        calls=len(calls),
        packets=packets,
        bursts=bursts,
        oracle_s=float(np.median(oracle_s)) / len(calls),
        production_s=float(np.median(production_s)) / len(calls),
        speedup=float(np.median(oracle_s / production_s)),
    )


def test_burst_speedup(once, emit, emit_json):
    rows = once(lambda: {name: _measure(_captured(name)) for name in SCENARIOS})

    lines = [
        f"poll-loop burst ids per call, {REPEATS} alternating repeats "
        f"(median; speedup = median ratio){' (smoke)' if SMOKE else ''}",
        f"{'input':<24s}  {'calls':>5s}  {'packets':>8s}  {'pkts/burst':>10s}  "
        f"{'oracle':>10s}  {'production':>10s}  {'speedup':>7s}",
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<24s}  {r['calls']:5d}  {r['packets']:8d}  "
            f"{r['packets'] / r['bursts']:10.2f}  {r['oracle_s'] * 1e3:7.3f} ms  "
            f"{r['production_s'] * 1e3:7.3f} ms  {r['speedup']:6.2f}x"
        )
    lines.append("")
    lines.append(
        "oracle: one whole-array searchsorted, numpy-scalar ceil and indexing "
        "per burst; production: bisect_right from the burst start on a float "
        "list, ids built once from the burst starts.  Ids identical on every "
        "call and repeat"
    )
    emit("burst", "\n".join(lines))
    emit_json(
        "burst",
        {
            "scenarios": SCENARIOS,
            "series_seeds": list(SERIES_SEEDS),
            "n_runs": N_RUNS,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "inputs": {name: dict(r) for name, r in rows.items()},
        },
        sum(r["production_s"] * r["calls"] for r in rows.values()),
        {
            f"{impl}@{name}": r[f"{impl}_s"]
            for name, r in rows.items()
            for impl in ("oracle", "production")
        },
    )

    if SMOKE:
        for name, gate in MIN_SPEEDUP.items():
            speedup = rows[name]["speedup"]
            assert speedup >= gate, (
                f"poll loop on {name}: production at {speedup:.2f}x the "
                f"oracle (gate {gate}x)"
            )
