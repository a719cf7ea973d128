"""Exact patience: the production kernel against the scalar oracle.

The ordering metric ``O`` (Eq. 2) runs a patience sort over the A-ranks
of the common packets in B order (:func:`repro.core.ordering.patience_fill`).
This benchmark captures those inputs from ``compare_trials`` on two
scenarios — ``fabric-shared-40g-noisy``, whose permutations are the
identity, and ``local-dual``, two replayers merged in bursts — and from
``StreamKappa`` fed ``local-dual`` runs in 2048-packet chunks (each run's
chunks resume one live pile state).  It adds synthetic shapes: a random
permutation, ascending runs of 8, 40 and 70, a full reversal, the
identity, a three-value tie stream, and two shuffles of two ascending
streams — one lagging the other by a fixed distance, as ``local-dual``'s
late replayer does, and one cut in bursts of 16 in A and 17 in B, which
needs more two-chain rounds than the cap and so goes run by run.  Each
call is timed through ``reference_patience_fill`` (the element-at-a-time
loop in ``tests/test_ordering.py``, fed ``tolist()`` as the old
production path was) and through the production kernel, alternately,
asserting that ``tails_vals``, ``tails_idx`` and ``prev`` are identical
after every call.

Reported per input: calls, elements, ascending runs, the share of
elements solved as two chains and the most rounds any call took, the
share in runs (ascending or non-increasing) solved in closed form, ns per
element for both, and the speedup.  The table goes to
``benchmarks/out/patience.txt``, the structured twin to ``patience.json``.

``REPRO_BENCH_SMOKE=1`` (CI) captures fewer series and gates production
at >= 3x the oracle on the captured ``fabric-shared-40g-noisy`` inputs,
>= 2.5x on both captured ``local-dual`` rows (whole pairs and stream
chunks), and >= 0.9x on every synthetic shape, so no input shape runs
slower than the oracle by more than timing noise.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import streamkappa
from repro.core import ordering
from repro.core.report import compare_trials
from repro.experiments.scenarios import scenario
from repro.testbeds import Testbed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.test_ordering import reference_patience_fill  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Captured scenarios and their duration scales.
SCENARIOS = {"fabric-shared-40g-noisy": 0.01, "local-dual": 0.02}
SERIES_SEEDS = (1, 2) if SMOKE else (1, 2, 3, 4)
N_RUNS = 3 if SMOKE else 5
#: Packets per ``StreamKappa.update`` in the captured stream row, as in
#: the ``stream`` workload of the repository benchmark.
STREAM_CHUNK = 2048
STREAM_ROW = f"local-dual, {STREAM_CHUNK} chunks"
#: Divisible by every synthetic run length.
SHAPE_N = 19_600
SHAPE_SEED = 16
#: Oracle and production alternate this many times per input.  On a
#: shared host the CPU speed drifts between runs: taking the best of 5
#: per side let one lucky oracle run swing the random shape from 1.1x
#: to 0.89x, so the speedup is the median of per-repeat ratios instead.
REPEATS = 11
#: The two-chain shapes: the late stream's lag and burst length, and
#: the burst lengths A and B cut the streams into past the round cap.
LAG, LAG_BURST = 2800, 8
CUT_BURSTS = (16, 17)
MIN_CAPTURED_SPEEDUP = {"fabric-shared-40g-noisy": 3.0, "local-dual": 2.5}
MIN_SHAPE_SPEEDUP = 0.9


def _captured(name: str, scale: float) -> list[list[np.ndarray]]:
    """The values of every patience call ``compare_trials`` makes, each
    call one input on a fresh state."""
    calls = []
    production = ordering.patience_fill

    def capture(values, piles):
        calls.append([np.array(values)])
        return production(values, piles)

    ordering.patience_fill = capture
    try:
        for trials in _series(name, scale):
            for b in trials[1:]:
                compare_trials(trials[0], b)
    finally:
        ordering.patience_fill = production
    return calls


def _captured_stream(name: str, scale: float) -> list[list[np.ndarray]]:
    """The chunk calls ``StreamKappa`` makes, one input per run: each
    run's calls resume one pile state."""
    inputs = []
    production = streamkappa.patience_fill

    def capture(values, piles):
        inputs[-1].append(np.array(values))
        return production(values, piles)

    streamkappa.patience_fill = capture
    try:
        for trials in _series(name, scale):
            for b in trials[1:]:
                inputs.append([])
                sk = streamkappa.StreamKappa(trials[0])
                for lo in range(0, len(b), STREAM_CHUNK):
                    sk.update(b.tags[lo : lo + STREAM_CHUNK], b.times_ns[lo : lo + STREAM_CHUNK])
    finally:
        streamkappa.patience_fill = production
    return inputs


def _series(name: str, scale: float):
    for seed in SERIES_SEEDS:
        yield Testbed(scenario(name).profile(scale), seed=seed).run_series(N_RUNS)


def _shapes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(SHAPE_SEED)

    def runs(k: int) -> np.ndarray:
        return np.sort(rng.permutation(SHAPE_N).reshape(-1, k), axis=1).ravel()

    ranks = np.arange(SHAPE_N)
    # A alternates the two streams every LAG_BURST ranks; B sends the
    # second stream LAG ranks late.
    lagged = ranks[np.argsort(ranks + LAG * (ranks // LAG_BURST % 2), kind="stable")]
    # A alternates them every a ranks, B every b packets of each stream.
    a, b = CUT_BURSTS
    streams = [ranks[ranks // a % 2 == s] for s in (0, 1)]
    cut = np.concatenate([
        s[lo : lo + b] for lo in range(0, max(map(len, streams)), b) for s in streams
    ])
    return {
        "random": rng.permutation(SHAPE_N),
        "runs of 8": runs(8),
        "runs of 40": runs(40),
        "runs of 70": runs(70),
        "reversal": np.arange(SHAPE_N)[::-1].copy(),
        "identity": np.arange(SHAPE_N),
        "ties": rng.integers(0, 3, SHAPE_N),
        "two chains": lagged,
        "two chains past the cap": cut,
    }


def _paths(calls: list[np.ndarray]) -> dict:
    """Elements each path took, and the most two-chain rounds, from one
    untimed pass with spies on the kernel's paths."""
    out = {"closed_elements": 0, "two_chain_elements": 0, "rounds": 0}
    real = {name: getattr(ordering, name) for name in
            ("_ascending_run", "_descending_run", "_two_chains")}

    def closed(name):
        def spy(values, piles):
            out["closed_elements"] += len(values)
            return real[name](values, piles)
        return spy

    def two_chains(values, piles):
        rounds = real["_two_chains"](values, piles)
        if rounds:
            out["two_chain_elements"] += len(values)
            out["rounds"] = max(out["rounds"], rounds)
        return rounds

    ordering._ascending_run = closed("_ascending_run")
    ordering._descending_run = closed("_descending_run")
    ordering._two_chains = two_chains
    try:
        piles = ordering.PileState(np.int64)
        for values in calls:
            ordering.patience_fill(values, piles)
    finally:
        for name, fn in real.items():
            setattr(ordering, name, fn)
    return out


def _measure(inputs: list[list[np.ndarray]]) -> dict:
    """Time every input through both sides, alternately, ``REPEATS`` times.

    An input is a list of calls that resume one state.  Each call is timed
    on the oracle, then on production, and the states compared (untimed);
    each repeat sums the calls per side.  The speedup is the median of the
    per-repeat ratios, so a drift in CPU speed between repeats cancels
    within each pair.
    """
    inputs = [[np.ascontiguousarray(v, dtype=np.int64) for v in calls] for calls in inputs]
    oracle_s = np.zeros(REPEATS)
    production_s = np.zeros(REPEATS)
    for r in range(REPEATS):
        for calls in inputs:
            n = sum(v.shape[0] for v in calls)
            tails_vals: list = []
            tails_idx: list[int] = []
            prev = np.full(n, -1, dtype=np.intp)
            piles = ordering.PileState(np.int64, capacity=calls[0].shape[0])
            lo = 0
            for values in calls:
                t0 = time.perf_counter()
                reference_patience_fill(values.tolist(), tails_vals, tails_idx, prev[lo:], lo)
                t1 = time.perf_counter()
                ordering.patience_fill(values, piles)
                t2 = time.perf_counter()
                oracle_s[r] += t1 - t0
                production_s[r] += t2 - t1
                lo += values.shape[0]
                assert piles.tails_vals.tolist() == tails_vals
                assert piles.tails_idx.tolist() == tails_idx
                assert np.array_equal(piles.prev, prev[:lo])
    paths = [_paths(calls) for calls in inputs]
    return dict(
        calls=sum(map(len, inputs)),
        elements=sum(v.size for calls in inputs for v in calls),
        runs=sum(int(np.count_nonzero(v[1:] <= v[:-1])) + 1 for calls in inputs for v in calls),
        two_chain_elements=sum(p["two_chain_elements"] for p in paths),
        rounds=max(p["rounds"] for p in paths),
        closed_elements=sum(p["closed_elements"] for p in paths),
        oracle_s=float(np.median(oracle_s)),
        production_s=float(np.median(production_s)),
        speedup=float(np.median(oracle_s / production_s)),
    )


def test_patience_speedup(once, emit, emit_json):
    def workload():
        rows = {name: _measure(_captured(name, scale)) for name, scale in SCENARIOS.items()}
        rows[STREAM_ROW] = _measure(_captured_stream("local-dual", SCENARIOS["local-dual"]))
        rows.update({name: _measure([[seq]]) for name, seq in _shapes().items()})
        return rows

    rows = once(workload)

    lines = [
        f"patience_fill vs the scalar oracle, {REPEATS} alternating repeats per "
        f"input (median time; speedup = median ratio), crossovers "
        f"{ordering._LONG_RUN} ascending, {ordering._LONG_DESCENT} non-increasing, "
        f"two-chain cap {ordering._TWO_CHAIN_ROUNDS} rounds"
        f"{' (smoke)' if SMOKE else ''}",
        f"{'input':<26s}  {'calls':>5s}  {'elements':>9s}  {'runs':>6s}  "
        f"{'2-chain':>7s}  {'rounds':>6s}  {'closed':>6s}  "
        f"{'oracle':>10s}  {'production':>10s}  {'speedup':>7s}",
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<26s}  {r['calls']:5d}  {r['elements']:9d}  {r['runs']:6d}  "
            f"{r['two_chain_elements'] / r['elements']:7.0%}  {r['rounds']:6d}  "
            f"{r['closed_elements'] / r['elements']:6.0%}  "
            f"{r['oracle_s'] / r['elements'] * 1e9:7.1f} ns  "
            f"{r['production_s'] / r['elements'] * 1e9:7.1f} ns  "
            f"{r['speedup']:6.2f}x"
        )
    lines.append("")
    lines.append(
        "ns per element; 'runs' counts maximal strictly ascending runs; "
        "'2-chain' is the share of elements solved as two chains and "
        "'rounds' the most rounds a call took; 'closed' is the share in "
        "ascending or non-increasing runs solved in closed form (a strictly "
        "ascending call is one such run); the rest took the scalar step; "
        "tails_vals, tails_idx and prev identical after every call"
    )
    emit("patience", "\n".join(lines))
    emit_json(
        "patience",
        {
            "scenarios": SCENARIOS,
            "series_seeds": list(SERIES_SEEDS),
            "n_runs": N_RUNS,
            "stream_chunk": STREAM_CHUNK,
            "shape_n": SHAPE_N,
            "shape_seed": SHAPE_SEED,
            "repeats": REPEATS,
            "crossover": ordering._LONG_RUN,
            "descent_crossover": ordering._LONG_DESCENT,
            "two_chain_rounds": ordering._TWO_CHAIN_ROUNDS,
            "smoke": SMOKE,
            "inputs": {
                name: {k: r[k] for k in ("calls", "elements", "runs", "two_chain_elements",
                                         "rounds", "closed_elements", "speedup")}
                for name, r in rows.items()
            },
        },
        sum(r["oracle_s"] for r in rows.values()),
        {
            f"{impl}@{name}": r[f"{impl}_s"]
            for name, r in rows.items()
            for impl in ("oracle", "production")
        },
    )

    if SMOKE:
        gates = dict(MIN_CAPTURED_SPEEDUP)
        gates[STREAM_ROW] = MIN_CAPTURED_SPEEDUP["local-dual"]
        gates.update((name, MIN_SHAPE_SPEEDUP) for name in _shapes())
        for name, gate in gates.items():
            speedup = rows[name]["speedup"]
            assert speedup >= gate, (
                f"patience on {name}: production at {speedup:.2f}x the oracle "
                f"(gate {gate}x)"
            )
