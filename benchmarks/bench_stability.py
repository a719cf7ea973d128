"""Minimal-runs economy: the stopping rule must beat the fixed-N sweep.

The pitch of the sequential estimator (``docs/stability.md``) is that a
stable environment should not pay for the worst case: instead of a fixed
``max_seeds``-session screen, sessions are added only until the κ
bootstrap CI half-width reaches ε.  This benchmark runs both designs on
the same quiet environment through the same store machinery and gates on
the headline: the adaptive screen must consume **fewer sessions** than
the fixed-N cap while landing inside tolerance of the fixed sweep's mean
— and its sessions must be the exact bit-identical prefix of the fixed
sweep's (same seeds, same store digests), so the saving is pure and not
a different experiment.

Session economy is hardware-free, so the gate binds under
``REPRO_BENCH_SMOKE`` (CI, 1 core) exactly like the full run.
"""

import os
import time

import numpy as np

from repro.analysis.stability import stability_screen
from repro.parallel import shutdown_pool
from repro.sweep import ArtifactStore, compute_digest
from repro.testbeds import local_single_replayer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE_NS = 0.02 * 0.3e9 if SMOKE else 0.25 * 0.3e9
N_RUNS = 2 if SMOKE else 3
INITIAL_SEEDS = (0, 1, 2, 3)
MAX_SEEDS = 12
EPSILON = 0.005  # the stability layer's default κ resolution target


def test_adaptive_stops_before_the_fixed_cap(once, emit, emit_json, tmp_path):
    profile = local_single_replayer().at_duration(SCALE_NS)
    fixed_store = ArtifactStore(tmp_path / "fixed-store")
    adaptive_store = ArtifactStore(tmp_path / "adaptive-store")

    def fixed():
        t0 = time.perf_counter()
        (result,) = stability_screen(
            [("fixed", profile,
              range(INITIAL_SEEDS[0], INITIAL_SEEDS[0] + MAX_SEEDS))],
            n_runs=N_RUNS, store=fixed_store, jobs=1,
        )
        return result, time.perf_counter() - t0

    fixed_result, fixed_s = once(fixed)

    t0 = time.perf_counter()
    (adaptive,) = stability_screen(
        [("adaptive", profile, INITIAL_SEEDS)],
        n_runs=N_RUNS, eps=EPSILON, max_seeds=MAX_SEEDS,
        store=adaptive_store, jobs=1,
    )
    adaptive_s = time.perf_counter() - t0

    n_fixed = len(fixed_result.seeds)
    n_adaptive = len(adaptive.seeds)

    # Correctness before economy: the adaptive sessions are the exact
    # prefix of the fixed sweep — same seeds, the same content-addressed
    # store entries, same per-seed κ bits — so fewer sessions is a
    # saving, not a detour.
    assert adaptive.seeds == fixed_result.seeds[:n_adaptive]
    for seed in adaptive.seeds:
        digest = compute_digest(profile, seed, N_RUNS)
        assert adaptive_store.get(digest) is not None
        assert fixed_store.get(digest) is not None
    assert np.array_equal(adaptive.kappa, fixed_result.kappa[:n_adaptive])
    assert abs(adaptive.kappa.mean() - fixed_result.kappa.mean()) <= EPSILON

    emit(
        "stability_minimal_runs",
        f"environment: {profile.name}, n_runs={N_RUNS}, "
        f"eps={EPSILON}, cap={MAX_SEEDS}\n"
        f"fixed-N : {n_fixed:2d} sessions  {fixed_s * 1e3:9.1f} ms  "
        f"mean kappa {fixed_result.kappa.mean():.6f}\n"
        f"adaptive: {n_adaptive:2d} sessions  {adaptive_s * 1e3:9.1f} ms  "
        f"mean kappa {adaptive.kappa.mean():.6f}  "
        f"(stopped={adaptive.decision.stopped}, "
        f"half_width={adaptive.decision.half_width:.2e})\n"
        f"sessions saved: {n_fixed - n_adaptive} "
        f"({(n_fixed - n_adaptive) / n_fixed:.0%})\n",
    )
    emit_json(
        "stability_minimal_runs",
        {
            "environment": profile.name,
            "seeds": list(fixed_result.seeds),
            "n_runs": N_RUNS,
            "eps": EPSILON,
            "max_seeds": MAX_SEEDS,
            "smoke": SMOKE,
        },
        fixed_s,
        {
            "fixed": fixed_s,
            "adaptive": adaptive_s,
            "fixed_sessions": n_fixed,
            "adaptive_sessions": n_adaptive,
        },
    )

    # The headline gates: the rule stopped on its own, under the cap.
    assert adaptive.decision.stopped, (
        f"stopping rule never converged: half_width="
        f"{adaptive.decision.half_width:.2e} > eps={EPSILON} after "
        f"{n_adaptive} sessions"
    )
    assert n_adaptive < n_fixed, (
        f"adaptive screen used {n_adaptive} sessions, no fewer than the "
        f"fixed-N sweep's {n_fixed}"
    )
    shutdown_pool()
