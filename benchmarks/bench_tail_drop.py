"""Exact tail drop: the vectorized queue against the packet-at-a-time oracle.

The shared SR-IOV port of ``fabric-shared-40g-noisy`` (Section 7.1) serves
the merged foreground + co-tenant stream through a finite VF ring, via
:func:`repro.net.queueing.fifo_tail_drop`.  This benchmark captures those
merged streams from a real series at two duration scales, then times the
production function against ``reference_tail_drop`` (the packet-at-a-time
loop in ``tests/test_queueing.py``) on every captured call, asserting that
the accepted masks and the departure-time bytes are identical.

The port queues only the background that can reach the foreground
(:class:`repro.net.sriov.SharedPort`), so a captured call holds fewer
packets than the port received.  Reported per scale: the packets the port
received (foreground plus background) beside the packets it queued, ns per
queued packet for both implementations, the drop-free busy periods,
the drops, the share of packets served by the scalar steps between an
at-risk arrival and the next regeneration point, and how many calls the
verified closed form solved (every drop-free solve of the call passed
:func:`repro.net.queueing._satisfies_recurrence`, so none fell back to the
busy-period sums; counted on an untimed call).  The table goes to
``benchmarks/out/tail_drop.txt``, the structured twin to ``tail_drop.json``.

``REPRO_BENCH_SMOKE=1`` (CI) measures the small scale only, gates the
production path at >= 2x faster than the oracle, and requires the closed
form to verify on every captured call, so shipped inputs that drift onto
the fallback fail.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

import repro.net.sriov as sriov
from repro.experiments.scenarios import scenario
from repro.net import queueing
from repro.testbeds import Testbed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.test_queueing import reference_tail_drop  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCENARIO = "fabric-shared-40g-noisy"
SCALES = (0.01,) if SMOKE else (0.01, 0.2)
N_RUNS = 3
#: Each call is timed this many times per implementation; the best counts.
REPEATS = 3
MIN_SPEEDUP = 2.0


def _captured_calls(scale: float) -> tuple[list[tuple[np.ndarray, np.ndarray, int]], int]:
    """The (ready, service, capacity) of every shared-port tail-drop call,
    and the packets the port received over those calls."""
    calls = []
    received = []
    production = sriov.fifo_tail_drop
    traverse = sriov.SharedPort.traverse

    def capture(ready, service, capacity):
        calls.append((np.array(ready), np.array(service), capacity))
        return production(ready, service, capacity)

    def counted(port, foreground, background=None):
        received.append(len(foreground) + (0 if background is None else len(background)))
        return traverse(port, foreground, background)

    sc = scenario(SCENARIO)
    sriov.fifo_tail_drop = capture
    sriov.SharedPort.traverse = counted
    try:
        Testbed(sc.profile(scale), seed=sc.seed).run_series(N_RUNS)
    finally:
        sriov.fifo_tail_drop = production
        sriov.SharedPort.traverse = traverse
    return calls, sum(received)


def _best_of(fn, *args) -> tuple[float, object]:
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _inspect(ready, service, capacity) -> tuple[int, bool]:
    """Packets the production call serves in its scalar steps, and whether
    the verified closed form gave every drop-free solve of the call."""
    spans, checks = [], []
    steps = queueing._scalar_steps
    satisfies = queueing._satisfies_recurrence

    def counted(ready, service, done, accepted, a, f, end, cap):
        stop = steps(ready, service, done, accepted, a, f, end, cap)
        spans.append(stop - f)
        return stop

    def checked(ready, service, done):
        ok = satisfies(ready, service, done)
        checks.append(ok)
        return ok

    queueing._scalar_steps = counted
    queueing._satisfies_recurrence = checked
    try:
        queueing.fifo_tail_drop(ready, service, capacity)
    finally:
        queueing._scalar_steps = steps
        queueing._satisfies_recurrence = satisfies
    return sum(spans), all(checks)


def _measure(scale: float) -> dict:
    calls, received = _captured_calls(scale)
    row = dict(calls=len(calls), verified=0, received=received, packets=0,
               busy_periods=0, drops=0,
               scalar_packets=0, oracle_s=0.0, production_s=0.0)
    for ready, service, capacity in calls:
        oracle_s, want = _best_of(reference_tail_drop, ready, service, capacity)
        production_s, got = _best_of(queueing.fifo_tail_drop, ready, service, capacity)
        assert np.array_equal(got.accepted, want.accepted)
        assert got.done_ns.tobytes() == want.done_ns.tobytes()
        row["packets"] += ready.size
        row["busy_periods"] += int(queueing._drop_free_departures(ready, service)[1].sum())
        row["drops"] += got.n_dropped
        scalar_packets, verified = _inspect(ready, service, capacity)
        row["scalar_packets"] += scalar_packets
        row["verified"] += verified
        row["oracle_s"] += oracle_s
        row["production_s"] += production_s
    return row


def test_tail_drop_speedup(once, emit, emit_json):
    rows = once(lambda: {scale: _measure(scale) for scale in SCALES})

    lines = [
        f"{SCENARIO} shared-port tail drop, {N_RUNS} runs per scale, best of "
        f"{REPEATS} per call{' (smoke)' if SMOKE else ''}",
        f"{'scale':>5s}  {'calls':>5s}  {'verified':>8s}  {'received':>9s}  "
        f"{'queued':>9s}  {'periods':>7s}  {'drops':>5s}  {'scalar':>6s}  "
        f"{'oracle':>10s}  {'production':>10s}  {'speedup':>7s}",
    ]
    for scale, r in rows.items():
        lines.append(
            f"{scale:5.2f}  {r['calls']:5d}  {r['verified']:8d}  {r['received']:9d}  "
            f"{r['packets']:9d}  {r['busy_periods']:7d}  {r['drops']:5d}  "
            f"{r['scalar_packets'] / r['packets']:6.1%}  "
            f"{r['oracle_s'] / r['packets'] * 1e9:7.1f} ns  "
            f"{r['production_s'] / r['packets'] * 1e9:7.1f} ns  "
            f"{r['oracle_s'] / r['production_s']:6.2f}x"
        )
    lines.append("")
    lines.append(
        "ns per queued packet; 'received' counts the foreground and background "
        "packets the port was given, 'queued' those it queued; 'verified' counts "
        "calls solved by the verified closed form; 'scalar' is the share of "
        "queued packets served one at a time; "
        "accepted masks and departure bytes identical on every call"
    )
    emit("tail_drop", "\n".join(lines))
    emit_json(
        "tail_drop",
        {
            "scenario": SCENARIO,
            "scales": list(SCALES),
            "n_runs": N_RUNS,
            "seed": scenario(SCENARIO).seed,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "streams": {
                str(scale): {k: r[k] for k in ("calls", "verified", "received",
                                               "packets", "busy_periods", "drops",
                                               "scalar_packets")}
                for scale, r in rows.items()
            },
        },
        sum(r["oracle_s"] for r in rows.values()),
        {
            f"{impl}@{scale}": r[f"{impl}_s"]
            for scale, r in rows.items()
            for impl in ("oracle", "production")
        },
    )

    if SMOKE:
        for scale, r in rows.items():
            assert r["verified"] == r["calls"], (
                f"tail drop at scale {scale}: the closed form verified on only "
                f"{r['verified']} of {r['calls']} calls"
            )
            speedup = r["oracle_s"] / r["production_s"]
            assert speedup >= MIN_SPEEDUP, (
                f"tail drop at scale {scale}: production only {speedup:.2f}x "
                f"faster than the oracle (gate {MIN_SPEEDUP}x)"
            )
