"""Exact run-wise patience: the production kernel against the scalar oracle.

The ordering metric ``O`` (Eq. 2) runs a patience sort over the A-ranks
of the common packets in B order (:func:`repro.core.ordering.patience_fill`).
This benchmark captures those inputs from ``compare_trials`` on two
scenarios — ``fabric-shared-40g-noisy``, whose permutations are the
identity, and ``local-dual``, two replayers merged in bursts — and adds
synthetic shapes: a random permutation, ascending runs of 8, 40 and 70,
a full reversal, the identity and a three-value tie stream.  Each input
is timed through ``reference_patience_fill`` (the element-at-a-time loop
in ``tests/test_ordering.py``, fed ``tolist()`` as the old production
path was) and through the production kernel, alternately, asserting that
``tails_vals``, ``tails_idx`` and ``prev`` are identical on every call.

Reported per input: calls, elements, ascending runs, the share of
elements in runs (ascending or non-increasing) long enough for the closed
form, ns per element for both, and the speedup.  The table goes to ``benchmarks/out/patience.txt``,
the structured twin to ``patience.json``.

``REPRO_BENCH_SMOKE=1`` (CI) captures fewer series and gates production
at >= 3x the oracle on the captured ``fabric-shared-40g-noisy`` inputs and
>= 0.9x on every synthetic shape, so no input shape runs slower than the
oracle by more than timing noise.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

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
#: Divisible by every synthetic run length.
SHAPE_N = 19_600
SHAPE_SEED = 16
#: Oracle and production alternate this many times per input.  On a
#: shared host the CPU speed drifts between runs: taking the best of 5
#: per side let one lucky oracle run swing the random shape from 1.1x
#: to 0.89x, so the speedup is the median of per-repeat ratios instead.
REPEATS = 11
MIN_CAPTURED_SPEEDUP = 3.0
MIN_SHAPE_SPEEDUP = 0.9


def _captured(name: str, scale: float) -> list[np.ndarray]:
    """The values of every patience call ``compare_trials`` makes."""
    calls = []
    production = ordering.patience_fill

    def capture(values, piles):
        calls.append(np.array(values))
        return production(values, piles)

    ordering.patience_fill = capture
    try:
        for seed in SERIES_SEEDS:
            trials = Testbed(scenario(name).profile(scale), seed=seed).run_series(N_RUNS)
            for b in trials[1:]:
                compare_trials(trials[0], b)
    finally:
        ordering.patience_fill = production
    return calls


def _shapes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(SHAPE_SEED)

    def runs(k: int) -> np.ndarray:
        return np.sort(rng.permutation(SHAPE_N).reshape(-1, k), axis=1).ravel()

    return {
        "random": rng.permutation(SHAPE_N),
        "runs of 8": runs(8),
        "runs of 40": runs(40),
        "runs of 70": runs(70),
        "reversal": np.arange(SHAPE_N)[::-1].copy(),
        "identity": np.arange(SHAPE_N),
        "ties": rng.integers(0, 3, SHAPE_N),
    }


def _oracle(seq: np.ndarray):
    tails_vals: list = []
    tails_idx: list[int] = []
    prev = np.full(seq.shape[0], -1, dtype=np.intp)
    reference_patience_fill(seq.tolist(), tails_vals, tails_idx, prev)
    return tails_vals, tails_idx, prev


def _production(seq: np.ndarray) -> ordering.PileState:
    piles = ordering.PileState(seq.dtype, capacity=seq.shape[0])
    ordering.patience_fill(seq, piles)
    return piles


def _timed(fn, seq):
    t0 = time.perf_counter()
    result = fn(seq)
    return time.perf_counter() - t0, result


def _measure(inputs: list[np.ndarray]) -> dict:
    """Time every input through both sides, alternately, ``REPEATS`` times.

    Each repeat sums the input's calls per side; the speedup is the median
    of the per-repeat ratios, so a drift in CPU speed between repeats
    cancels within each pair.
    """
    seqs = [np.ascontiguousarray(seq, dtype=np.int64) for seq in inputs]
    oracle_s = np.zeros(REPEATS)
    production_s = np.zeros(REPEATS)
    for r in range(REPEATS):
        for seq in seqs:
            t, want = _timed(_oracle, seq)
            oracle_s[r] += t
            t, got = _timed(_production, seq)
            production_s[r] += t
            assert got.tails_vals.tolist() == want[0]
            assert got.tails_idx.tolist() == want[1]
            assert np.array_equal(got.prev, want[2])
    return dict(
        calls=len(seqs),
        elements=sum(seq.size for seq in seqs),
        runs=sum(int(np.count_nonzero(seq[1:] <= seq[:-1])) + 1 for seq in seqs),
        long_elements=sum(b - a for seq in seqs for a, b, _ in ordering._long_runs(seq)),
        oracle_s=float(np.median(oracle_s)),
        production_s=float(np.median(production_s)),
        speedup=float(np.median(oracle_s / production_s)),
    )


def test_patience_speedup(once, emit, emit_json):
    def workload():
        rows = {name: _measure(_captured(name, scale)) for name, scale in SCENARIOS.items()}
        rows.update({name: _measure([seq]) for name, seq in _shapes().items()})
        return rows

    rows = once(workload)

    lines = [
        f"patience_fill vs the scalar oracle, {REPEATS} alternating repeats per "
        f"input (median time; speedup = median ratio), crossovers "
        f"{ordering._LONG_RUN} ascending, {ordering._LONG_DESCENT} non-increasing"
        f"{' (smoke)' if SMOKE else ''}",
        f"{'input':<24s}  {'calls':>5s}  {'elements':>9s}  {'runs':>6s}  "
        f"{'long':>5s}  {'oracle':>10s}  {'production':>10s}  {'speedup':>7s}",
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<24s}  {r['calls']:5d}  {r['elements']:9d}  {r['runs']:6d}  "
            f"{r['long_elements'] / r['elements']:5.0%}  "
            f"{r['oracle_s'] / r['elements'] * 1e9:7.1f} ns  "
            f"{r['production_s'] / r['elements'] * 1e9:7.1f} ns  "
            f"{r['speedup']:6.2f}x"
        )
    lines.append("")
    lines.append(
        "ns per element; 'runs' counts maximal strictly ascending runs; "
        "'long' is the share of elements in ascending or non-increasing "
        "runs solved in closed form; tails_vals, tails_idx and prev "
        "identical on every call"
    )
    emit("patience", "\n".join(lines))
    emit_json(
        "patience",
        {
            "scenarios": SCENARIOS,
            "series_seeds": list(SERIES_SEEDS),
            "n_runs": N_RUNS,
            "shape_n": SHAPE_N,
            "shape_seed": SHAPE_SEED,
            "repeats": REPEATS,
            "crossover": ordering._LONG_RUN,
            "descent_crossover": ordering._LONG_DESCENT,
            "smoke": SMOKE,
            "inputs": {
                name: {k: r[k] for k in ("calls", "elements", "runs", "long_elements",
                                         "speedup")}
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
        gates = {"fabric-shared-40g-noisy": MIN_CAPTURED_SPEEDUP}
        gates.update((name, MIN_SHAPE_SPEEDUP) for name in rows if name not in SCENARIOS)
        for name, gate in gates.items():
            speedup = rows[name]["speedup"]
            assert speedup >= gate, (
                f"patience on {name}: production at {speedup:.2f}x the oracle "
                f"(gate {gate}x)"
            )
