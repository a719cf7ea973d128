"""Scaling of the whole-pair comparison fan-out (repro.parallel).

Compares a paper-scale series — one baseline and ``N_RUNS`` runs of
~1.05M packets each, light jitter + drops (the Section-6.1 regime) —
serially in memory and, saved as captures, under increasing job counts
through :func:`repro.analysis.analyze_directory`, checks the parallel
reports are *bit-identical* to serial, and emits the wall-time/speedup
table to ``benchmarks/out/parallel_analysis.txt``.  Each pool task is one
whole pair, named by its two capture paths; a pair is never split.

Honesty note: the speedup assertion (>= 2x at 4 jobs) only fires when the
runner actually exposes >= 4 usable cores — on a smaller host the
measurement still runs and the exactness checks still bind, but physics
caps the speedup and asserting otherwise would only test the hardware.

The fused timing kernel gets its own stage table
(``test_fused_kernel_stage_table``): the single-pass
:func:`repro.core.fusedpass.fused_timings` against the pre-fusion
per-component passes it replaced, plus a jobs=2 steady-state parity
measurement of the whole-pair fan-out on a saved two-pair series.  Gates: the
fused path must stay within 10% of the component passes in every mode
(regression guard), jobs=2 must reach serial parity when the runner
actually has a second core, and in full mode the serial comparison must
beat the recorded pre-fusion baseline by >= 1.25x.

``REPRO_BENCH_SMOKE=1`` (CI) shrinks the pairs to ~220k packets and skips
the full scaling sweep.
"""

import os
import time

import numpy as np
import pytest

from repro.analysis import analyze_directory, save_series
from repro.core import compare_series, compare_trials

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N = 221_000 if SMOKE else 1_055_648  # full: the paper's Section-6.1 capture size
JOB_COUNTS = (1, 2, 4)
#: Runs per series in the scaling sweep: one pool task each.
N_RUNS = 4

#: Serial wall time of this pair before the fused kernel and the
#: single-argsort/patience-fast-path rewrites (benchmarks/out/
#: parallel_analysis.json as of the observability PR), measured on the
#: same reference container the full benches regenerate artifacts on.
#: The full-mode gate below holds the optimized serial path to >= 1.25x
#: against it; smoke mode (CI, heterogeneous runners) gates ratios
#: measured in-run instead of absolute numbers from another machine.
PREFUSION_SERIAL_S = 0.926
FUSED_SPEEDUP_FLOOR = 1.25


def _paper_scale_series(seed=0, n=N, n_runs=1):
    """Baseline + runs with jitter, ~0.5% drops and occasional reorders."""
    from repro.core import Trial

    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(284.0, n))
    tags = np.arange(n, dtype=np.int64)
    trials = [Trial(tags, times, label="A")]
    for k in range(n_runs):
        keep = rng.random(n) > 0.005
        bt = times[keep] + rng.normal(0.0, 40.0, int(keep.sum()))
        order = np.argsort(bt, kind="stable")
        trials.append(Trial(tags[keep][order], bt[order], label=chr(ord("B") + k)))
    return trials


def _paper_scale_pair(seed=0, n=N):
    """Baseline + one run (the first pair of :func:`_paper_scale_series`)."""
    return tuple(_paper_scale_series(seed, n, n_runs=1))


def _assert_exact(got, want):
    assert got.metrics == want.metrics
    assert got.n_common == want.n_common
    assert got.pct_iat_within_10ns == want.pct_iat_within_10ns
    assert got.move_stats == want.move_stats
    assert np.array_equal(got.iat_hist.counts, want.iat_hist.counts)
    assert np.array_equal(got.latency_hist.counts, want.latency_hist.counts)


def _assert_series_exact(got, want):
    assert len(got.pairs) == len(want.pairs)
    for g, w in zip(got.pairs, want.pairs):
        _assert_exact(g, w)


@pytest.mark.skipif(SMOKE, reason="full scaling sweep is not part of smoke mode")
def test_parallel_analysis_speedup(once, emit, emit_json, tmp_path):
    trials = _paper_scale_series(n_runs=N_RUNS)
    save_series(trials, tmp_path)
    usable_cores = len(os.sched_getaffinity(0))

    def sweep():
        # Warm allocator/caches and the pool: every config is measured at
        # steady state, best of two.
        serial = compare_series(trials)
        serial_s = _best_of(2, lambda: compare_series(trials))

        rows = [("serial", serial_s, 1.0)]
        for jobs in JOB_COUNTS:
            _assert_series_exact(analyze_directory(tmp_path, jobs=jobs), serial)
            dt = _best_of(2, lambda j=jobs: analyze_directory(tmp_path, jobs=j))
            rows.append((f"jobs={jobs}", dt, serial_s / dt))
        return rows

    rows = once(sweep)

    lines = [
        f"whole-pair comparison scaling, {N_RUNS} pairs of n={N} packets "
        f"({usable_cores} usable cores)",
        f"{'config':>8s}  {'seconds':>8s}  {'speedup':>7s}",
    ]
    for name, dt, speedup in rows:
        lines.append(f"{name:>8s}  {dt:8.3f}  {speedup:6.2f}x")
    lines.append("")
    lines.append("parallel output verified bit-identical to serial at every job count")
    emit("parallel_analysis", "\n".join(lines))
    emit_json(
        "parallel_analysis",
        {
            "n_packets": N,
            "n_pairs": N_RUNS,
            "seed": 0,
            "usable_cores": usable_cores,
            "smoke": SMOKE,
        },
        rows[0][1],
        {name: dt for name, dt, _ in rows},
    )

    by_name = {name: speedup for name, _, speedup in rows}
    if usable_cores >= 4:
        assert by_name["jobs=4"] >= 2.0, (
            f"expected >= 2x speedup at 4 jobs on {usable_cores} cores, "
            f"got {by_name['jobs=4']:.2f}x"
        )


def _best_of(k, fn):
    """Minimum wall time of k runs — the standard noise floor estimator."""
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fused_kernel_stage_table(once, emit, emit_json, tmp_path):
    """Fused timing kernel vs the per-component passes it replaced."""
    from repro.core import SymlogBins
    from repro.core.fusedpass import fused_timings
    from repro.core.histograms import DeltaHistogram, pct_within
    from repro.core.iat import iat_deltas_ns, iat_from_matching
    from repro.core.latency import latency_deltas_ns, latency_from_matching
    from repro.core.matching import match_trials

    a, b = _paper_scale_pair()
    usable_cores = len(os.sched_getaffinity(0))
    bins = SymlogBins()
    reps = 3 if SMOKE else 5

    def sweep():
        m = match_trials(a, b)

        def components():
            # The pre-fusion timing side of compare_trials, pass for
            # pass: two reduction gathers (L, I), two figure-series
            # gathers, the ±10 ns scan and both histogram passes.
            latency_from_matching(a, b, m)
            iat_from_matching(a, b, m)
            dl = latency_deltas_ns(a, b, matching=m)
            dg = iat_deltas_ns(a, b, matching=m)
            pct_within(dg, 10.0)
            DeltaHistogram.from_deltas(dg, bins)
            DeltaHistogram.from_deltas(dl, bins)

        components()  # warm
        fused_timings(a, b, m, bins=bins)
        components_s = _best_of(reps, components)
        fused_s = _best_of(reps, lambda: fused_timings(a, b, m, bins=bins))
        match_s = _best_of(reps, lambda: match_trials(a, b))

        compare_trials(a, b)  # warm
        serial_s = _best_of(reps, lambda: compare_trials(a, b))

        # jobs=2 steady state on a two-pair series: one whole pair per
        # forkserver worker, read from its saved captures.  Pool startup
        # is measured by the sim bench; here the question is whether a
        # warm two-worker fan-out holds parity with the fused serial path
        # over the same two pairs already in memory.
        series = [a, b, b]
        save_series(series, tmp_path)
        want = compare_series(series)
        serial2_s = _best_of(reps, lambda: compare_series(series))
        _assert_series_exact(analyze_directory(tmp_path, jobs=2), want)
        jobs2_s = _best_of(reps, lambda: analyze_directory(tmp_path, jobs=2))
        return match_s, components_s, fused_s, serial_s, serial2_s, jobs2_s

    match_s, components_s, fused_s, serial_s, serial2_s, jobs2_s = once(sweep)

    lines = [
        f"fused timing kernel, n={N} packets "
        f"({usable_cores} usable cores{', smoke' if SMOKE else ''})",
        f"{'stage':>22s}  {'seconds':>8s}",
        f"{'match':>22s}  {match_s:8.3f}",
        f"{'timing (components)':>22s}  {components_s:8.3f}",
        f"{'timing (fused)':>22s}  {fused_s:8.3f}",
        f"{'serial compare_trials':>22s}  {serial_s:8.3f}",
        f"{'serial 2-pair series':>22s}  {serial2_s:8.3f}",
        f"{'jobs=2 2-pair series':>22s}  {jobs2_s:8.3f}",
        "",
        f"fused vs components: {components_s / fused_s:.2f}x; "
        f"jobs=2 vs serial (2 pairs): {serial2_s / jobs2_s:.2f}x",
    ]
    if not SMOKE:
        lines.append(
            f"serial vs pre-fusion reference ({PREFUSION_SERIAL_S:.3f}s): "
            f"{PREFUSION_SERIAL_S / serial_s:.2f}x"
        )
    lines.append("fused kernel verified bit-identical by tests/test_fusedpass.py")
    emit("fused_kernel", "\n".join(lines))
    emit_json(
        "fused_kernel",
        {
            "n_packets": N,
            "seed": 0,
            "usable_cores": usable_cores,
            "smoke": SMOKE,
            "prefusion_serial_s": PREFUSION_SERIAL_S,
        },
        serial_s,
        {
            "match": match_s,
            "timing_components": components_s,
            "timing_fused": fused_s,
            "serial_compare": serial_s,
            "serial_series2": serial2_s,
            "jobs2_series2": jobs2_s,
        },
    )

    # Regression guard (the CI fused-smoke gate): the fused single pass
    # must never fall more than 10% behind the component passes it fused.
    assert fused_s <= components_s * 1.10, (
        f"fused kernel regressed: {fused_s:.4f}s vs components "
        f"{components_s:.4f}s ({fused_s / components_s:.2f}x)"
    )

    # Parity gate: two workers on two whole pairs must not lose to one
    # process — but only where a second core exists; on a 1-core runner
    # the JSON records why (host.usable_cores).  5% noise allowance:
    # parity, not speedup, is the claim.
    if usable_cores >= 2:
        assert jobs2_s <= serial2_s * 1.05, (
            f"jobs=2 below serial parity on {usable_cores} cores: "
            f"{jobs2_s:.3f}s vs serial {serial2_s:.3f}s"
        )

    if not SMOKE:
        assert serial_s * FUSED_SPEEDUP_FLOOR <= PREFUSION_SERIAL_S, (
            f"fused serial must be >= {FUSED_SPEEDUP_FLOOR}x the pre-fusion "
            f"baseline: {serial_s:.3f}s vs {PREFUSION_SERIAL_S:.3f}s "
            f"({PREFUSION_SERIAL_S / serial_s:.2f}x)"
        )
