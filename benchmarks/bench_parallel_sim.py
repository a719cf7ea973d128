"""End-to-end simulate+analyze scaling of the sweep-unit fan-out.

The analysis benchmark (bench_parallel_analysis.py) measures the
Section-3 comparison alone; this one measures the grain every command
that simulates fans out: whole sweep units (one record-once/replay-N
series plus its analysis each, :func:`repro.sweep.run_sweep`), drawn
from the single process-global pool.  A multi-unit ``local-dual`` plan is
swept over job counts without a store, every unit's trials and report
are checked bit-identical to serial, and the wall-time/speedup table
goes to ``benchmarks/out/parallel_sim.txt``.

Honesty note: the speedup assertion (>= 2x at 4 jobs) only fires when the
runner exposes >= 4 usable cores — on a 1-core container the measurement
still runs and the exactness checks still bind, but physics caps the
speedup at ~1x and asserting otherwise would only test the hardware.

``REPRO_BENCH_SMOKE=1`` (CI) shrinks the plan to four units at scale
0.02, sweeps serial and jobs=2 only, and measures the pooled config at
steady state (pool warm) instead of including startup — the smoke
question is whether a warm two-worker unit fan-out holds serial parity,
and it is only asserted when the runner has a second core to run it on.
"""

import os
import time

import numpy as np

from repro.parallel import pool_stats, shutdown_pool
from repro.sweep import plan_from_scenarios, run_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Full: 8 units x 5 runs at scale 0.1 (~40k packets/run).
SCALE = 0.02 if SMOKE else 0.1
SEEDS = list(range(2025, 2025 + (4 if SMOKE else 8)))
N_RUNS = 5
JOB_COUNTS = (1, 2) if SMOKE else (1, 2, 4, 8)
#: Timed repetitions per config; the best one counts (both sides alike).
REPS = 3 if SMOKE else 1


def _pipeline(jobs: int):
    """Simulate and analyze every unit of the plan (no store)."""
    plan = plan_from_scenarios(
        ["local-dual"], seeds=SEEDS, n_runs=N_RUNS, duration_scale=SCALE
    )
    return run_sweep(plan, None, jobs=jobs)


def _timed(jobs: int):
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = _pipeline(jobs)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


def _assert_sweep_exact(got, want):
    for got_trials, want_trials in zip(got.trials, want.trials, strict=True):
        for g, w in zip(got_trials, want_trials, strict=True):
            assert np.array_equal(g.tags, w.tags)
            assert np.array_equal(g.times_ns, w.times_ns)
    for got_report, want_report in zip(got.series, want.series, strict=True):
        for g, w in zip(got_report.pairs, want_report.pairs, strict=True):
            assert g.metrics == w.metrics
            assert g.n_common == w.n_common
            assert g.move_stats == w.move_stats
    assert got.report == want.report


def test_parallel_sim_speedup(once, emit, emit_json):
    usable_cores = len(os.sched_getaffinity(0))

    def sweep():
        _pipeline(1)  # warm allocator/caches: measure steady state
        want, serial_s = _timed(1)

        n_packets = sum(len(t) for trials in want.trials for t in trials)
        rows = [("serial", serial_s, 1.0)]
        pools_created = []
        for jobs in JOB_COUNTS[1:]:
            if SMOKE:
                _pipeline(jobs)  # warm the pool: smoke gates steady state
            else:
                shutdown_pool()  # fresh pool per config: startup is included,
            before = pool_stats().created_total  # as a real invocation pays it
            got, dt = _timed(jobs)
            _assert_sweep_exact(got, want)
            pools_created.append(pool_stats().created_total - before)
            rows.append((f"jobs={jobs}", dt, serial_s / dt))
        shutdown_pool()
        # Every unit of a config shares one pool (smoke measures with the
        # warm pool, so none is created mid-sweep).
        assert pools_created == [0 if SMOKE else 1] * len(JOB_COUNTS[1:])
        return n_packets, rows

    n_packets, rows = once(sweep)

    lines = [
        f"end-to-end sweep-unit scaling, {len(SEEDS)} local-dual units x "
        f"{N_RUNS} runs, ~{n_packets} packets ({usable_cores} usable cores"
        f"{', smoke' if SMOKE else ''})",
        f"{'config':>8s}  {'seconds':>8s}  {'speedup':>7s}",
    ]
    for name, dt, speedup in rows:
        lines.append(f"{name:>8s}  {dt:8.3f}  {speedup:6.2f}x")
    lines.append("")
    lines.append(
        "trials, reports and the merged sweep report verified bit-identical "
        "to serial at every job count; "
        + (
            f"best of {REPS}, pooled configs measured against a warm pool"
            if SMOKE
            else "exactly one pool created per configuration"
        )
    )
    emit("parallel_sim", "\n".join(lines))
    emit_json(
        "parallel_sim",
        {
            "n_packets": n_packets,
            "n_units": len(SEEDS),
            "n_runs": N_RUNS,
            "duration_scale": SCALE,
            "seeds": SEEDS,
            "usable_cores": usable_cores,
            "smoke": SMOKE,
        },
        rows[0][1],
        {name: dt for name, dt, _ in rows},
    )

    by_name = {name: speedup for name, _, speedup in rows}
    if usable_cores >= 4 and "jobs=4" in by_name:
        assert by_name["jobs=4"] >= 2.0, (
            f"expected >= 2x speedup at 4 jobs on {usable_cores} cores, "
            f"got {by_name['jobs=4']:.2f}x"
        )
    # Smoke parity gate: a warm two-worker unit fan-out must not lose to
    # serial — asserted only where a second core exists (the JSON records
    # the core count either way).  5% noise allowance: parity is the claim.
    if SMOKE and usable_cores >= 2:
        walls = {name: dt for name, dt, _ in rows}
        assert walls["jobs=2"] <= walls["serial"] * 1.05, (
            f"jobs=2 below serial parity on {usable_cores} cores: "
            f"{walls['jobs=2']:.3f}s vs serial {walls['serial']:.3f}s"
        )
