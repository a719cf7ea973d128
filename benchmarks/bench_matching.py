"""Matching through the baseline index, against the retired matcher and
the Section-3 oracle.

Every comparison of a series is against its baseline A, so production
matching (:func:`repro.core.matching.match_trials`) sorts A once into a
:class:`~repro.core.matching.BaselineIndex` and matches each run with a
``searchsorted`` and a scatter.  The matcher it replaced stable-argsorted
both tag arrays for every pair, argsorted the matched A positions, and
argsorted the matched B positions once more for the A-ranks in B order;
it is kept as ``tests/oracle.py:match_tag_arrays``.

Inputs are captured ``compare_series`` pairs of ``fabric-shared-40g-noisy``
and ``local-dual``, and ``local-dual`` runs fed to ``StreamKappa`` in
2048-packet chunks, as in the ``stream`` workload of the repository
benchmark.  Per pair, the retired path (both argsorts, the ``ia`` sort and
the B-order argsort) and the production path (``match_trials`` plus
``a_ranks_in_b_order()``, with the series' index built once per repeat on
a fresh baseline trial) are timed alternately, ``REPEATS`` times, and
``idx_a``, ``idx_b`` and the A-ranks in B order are asserted identical to
each other and to the naive dict oracle (``tests/oracle.py:match``).  The
stream row times the chunks' ``StreamKappa.update`` calls and asserts
``matching()`` identical to the oracle and ``result()`` equal to
``compare_trials``.

The table goes to ``benchmarks/out/matching.txt``, the structured twin
to ``matching.json``.  ``REPRO_BENCH_SMOKE=1`` (CI) captures fewer series
and gates production at >= 1.5x the retired path on the ``local-dual``
pairs.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.streamkappa import StreamKappa
from repro.core import Trial, compare_trials, match_trials
from repro.experiments.scenarios import scenario
from repro.testbeds import Testbed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import oracle  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Captured scenarios and their duration scales.
SCENARIOS = {"fabric-shared-40g-noisy": 0.02, "local-dual": 0.02}
SERIES_SEEDS = (11, 12) if SMOKE else (11, 12, 13)
N_RUNS = 3 if SMOKE else 5
#: Packets per ``StreamKappa.update``, as in the ``stream`` workload.
STREAM_CHUNK = 2048
STREAM_ROW = f"local-dual, {STREAM_CHUNK} chunks"
#: Alternating repeats per input; the speedup is the median of the
#: per-repeat ratios, so CPU-speed drift between repeats cancels.
REPEATS = 11
MIN_SPEEDUP = {"local-dual": 1.5}


def _series(name: str) -> list[list[Trial]]:
    profile = scenario(name).profile(SCENARIOS[name])
    return [Testbed(profile, seed=seed).run_series(N_RUNS) for seed in SERIES_SEEDS]


def _retired(a: Trial, b: Trial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ia, ib = oracle.match_tag_arrays(a.tags, b.tags)
    return ia, ib, np.argsort(ib, kind="stable").astype(np.int64)


def _production(a: Trial, b: Trial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = match_trials(a, b)
    return m.idx_a, m.idx_b, m.a_ranks_in_b_order()


def _check_oracle(a: Trial, b: Trial, got) -> None:
    ia, ib = oracle.match(a.tags.tolist(), b.tags.tolist())
    assert got[0].tolist() == ia and got[1].tolist() == ib
    assert got[2].tolist() == oracle.a_ranks_in_b_order(ia, ib)


def _measure_pairs(series: list[list[Trial]]) -> dict:
    retired_s = np.zeros(REPEATS)
    production_s = np.zeros(REPEATS)
    for r in range(REPEATS):
        for trials in series:
            # A fresh baseline trial: each repeat builds the series' index once.
            a = Trial(trials[0].tags, trials[0].times_ns)
            for b in trials[1:]:
                t0 = time.perf_counter()
                want = _retired(a, b)
                t1 = time.perf_counter()
                got = _production(a, b)
                t2 = time.perf_counter()
                retired_s[r] += t1 - t0
                production_s[r] += t2 - t1
                for x, y in zip(want, got):
                    assert np.array_equal(x, y)
                if r == 0:
                    _check_oracle(a, b, got)
    pairs = sum(len(t) - 1 for t in series)
    return dict(
        inputs=pairs,
        packets=sum(len(b) for t in series for b in t[1:]),
        retired_s=float(np.median(retired_s)) / pairs,
        production_s=float(np.median(production_s)) / pairs,
        speedup=float(np.median(retired_s / production_s)),
    )


def _measure_stream(series: list[list[Trial]]) -> dict:
    production_s = np.zeros(REPEATS)
    for r in range(REPEATS):
        for trials in series:
            a = Trial(trials[0].tags, trials[0].times_ns)
            for b in trials[1:]:
                sk = StreamKappa(a)
                t0 = time.perf_counter()
                for lo in range(0, len(b), STREAM_CHUNK):
                    hi = lo + STREAM_CHUNK
                    sk.update(b.tags[lo:hi], b.times_ns[lo:hi])
                production_s[r] += time.perf_counter() - t0
                if r == 0:
                    m = sk.matching()
                    _check_oracle(a, b, (m.idx_a, m.idx_b, m.a_ranks_in_b_order()))
                    assert sk.result() == compare_trials(a, b).metrics
    runs = sum(len(t) - 1 for t in series)
    return dict(
        inputs=runs,
        packets=sum(len(b) for t in series for b in t[1:]),
        retired_s=None,
        production_s=float(np.median(production_s)) / runs,
        speedup=None,
    )


def test_matching_speedup(once, emit, emit_json):
    def workload():
        captured = {name: _series(name) for name in SCENARIOS}
        rows = {name: _measure_pairs(series) for name, series in captured.items()}
        rows[STREAM_ROW] = _measure_stream(captured["local-dual"])
        return rows

    rows = once(workload)

    def ms(value) -> str:
        return f"{value * 1e3:8.3f} ms" if value is not None else f"{'-':>11s}"

    lines = [
        f"matching per pair (per run for the stream row), {REPEATS} alternating "
        f"repeats (median; speedup = median ratio){' (smoke)' if SMOKE else ''}",
        f"{'input':<26s}  {'pairs':>5s}  {'packets':>8s}  {'retired':>11s}  "
        f"{'production':>11s}  {'speedup':>7s}",
    ]
    for name, r in rows.items():
        speedup = f"{r['speedup']:6.2f}x" if r["speedup"] is not None else f"{'-':>7s}"
        lines.append(
            f"{name:<26s}  {r['inputs']:5d}  {r['packets']:8d}  {ms(r['retired_s'])}  "
            f"{ms(r['production_s'])}  {speedup}"
        )
    lines.append("")
    lines.append(
        "retired: both stable argsorts, the ia sort and the B-order argsort; "
        "production: match_trials plus a_ranks_in_b_order (index built once per "
        "series); stream: every StreamKappa.update of a run.  idx_a, idx_b and "
        "A-ranks in B order identical to each other and to the dict oracle"
    )
    emit("matching", "\n".join(lines))
    emit_json(
        "matching",
        {
            "scenarios": SCENARIOS,
            "series_seeds": list(SERIES_SEEDS),
            "n_runs": N_RUNS,
            "stream_chunk": STREAM_CHUNK,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "inputs": {name: dict(r) for name, r in rows.items()},
        },
        sum(r["production_s"] * r["inputs"] for r in rows.values()),
        {
            f"{impl}@{name}": r[f"{impl}_s"]
            for name, r in rows.items()
            for impl in ("retired", "production")
            if r[f"{impl}_s"] is not None
        },
    )

    if SMOKE:
        for name, gate in MIN_SPEEDUP.items():
            speedup = rows[name]["speedup"]
            assert speedup >= gate, (
                f"matching on {name}: production at {speedup:.2f}x the retired "
                f"matcher (gate {gate}x)"
            )
