"""PASTRAMI-style stability screening: κ intervals as the reporting default.

The paper characterizes each environment from one recorded session and a
handful of replays; Table 2 prints the 4-run *means*.  A point estimate
hides exactly what a reproduction needs to surface — how much the
characterization moves when the whole session is redone.  PASTRAMI's
answer for software-router benchmarking applies unchanged here: screen
runs for stability, report dispersion, and stop sampling only once the
interval is tight enough to defend.

This module promotes the :mod:`repro.analysis.stats` bootstrap machinery
into that default reporting path:

* :func:`screen_outliers` — MAD-based outlier screening (the modified
  z-score of Iglewicz & Hoaglin, PASTRAMI's robust screen).  Outliers are
  **flagged and reported, never silently dropped**: every row names the
  seeds it excluded from the headline interval;
* :func:`minimal_runs_mean` — the sequential minimal-runs estimator:
  draw sessions until the bootstrap CI half-width of the mean is ≤ ε
  (default 0.005, the κ resolution the paper's comparisons need) or a
  run cap is hit;
* :func:`stability_screen` — the one driver behind ``repro stability``,
  ``table2(ci=True)`` and the CI-aware validation tolerances.  Every
  environment's seeded sessions are sweep units
  (:func:`repro.sweep.coordinator.run_sweep`), so they are
  store-cacheable and **bit-identical** to the serial
  :func:`repro.analysis.stats.seed_sweep` loop (pinned by
  ``tests/test_stability_differential.py``); with ``eps > 0`` each
  environment grows through :func:`minimal_runs_mean`.  The result
  carries distributions, screen, decision and interval columns
  (``kappa_ci_low/high``, ``n_eff``, ``outliers``).

Calibration, not just coverage: the statistical claims here are tested as
*statistics* — ``tests/test_stability_calibration.py`` pins the bootstrap
CI's empirical coverage near nominal on known distributions and proves
the stopping rule terminates on stable series but refuses to on series
with an injected mean shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics
from ..obs.trace import span
from .stats import bootstrap_ci

__all__ = [
    "OutlierScreen",
    "screen_outliers",
    "StabilityDecision",
    "ci_half_width",
    "minimal_runs_mean",
    "EnvironmentStability",
    "stability_screen",
    "stability_seed_plan",
    "stability_document",
    "write_stability_report",
    "STABILITY_REPORT_SCHEMA",
    "DEFAULT_EPSILON",
    "DEFAULT_OUTLIER_THRESHOLD",
]

#: Version of the ``stability.json`` document.
STABILITY_REPORT_SCHEMA = 1

#: Default CI half-width target: κ resolved to ±0.005 separates every
#: well-separated pair of Table-2 environments (the closest distinct
#: paper κ gap is ~0.01).
DEFAULT_EPSILON = 0.005

#: Confidence level of every interval a screen reports.
CONFIDENCE = 0.95

#: Default modified-z threshold; 3.5 is the Iglewicz–Hoaglin
#: recommendation PASTRAMI's screening follows.
DEFAULT_OUTLIER_THRESHOLD = 3.5

#: Consistency constant: median absolute deviation of a normal sample
#: estimates 0.6745σ, so |0.6745·(x−med)/MAD| is a z-score.
_MAD_Z = 0.6745
#: Mean-absolute-deviation fallback constant (MeanAD ≈ 0.7979σ).
_MEANAD_Z = 1.0 / 1.253314


# -- outlier screening -----------------------------------------------------

@dataclass(frozen=True)
class OutlierScreen:
    """A MAD screen over one sample: flags, never deletions.

    ``flags[k]`` marks ``values[k]`` as an outlier; callers decide what to
    do with the flag (the reporting path prints the flagged seeds next to
    the interval computed without them).
    """

    values: np.ndarray
    flags: np.ndarray
    median: float
    mad: float
    threshold: float

    @property
    def n_flagged(self) -> int:
        """How many values the screen flagged."""
        return int(self.flags.sum())

    def kept(self) -> np.ndarray:
        """The unflagged values (all values when everything is flagged —
        a degenerate screen must never leave the estimator with nothing)."""
        if self.n_flagged >= self.values.size:
            return self.values
        return self.values[~self.flags]


def screen_outliers(
    values, *, threshold: float = DEFAULT_OUTLIER_THRESHOLD
) -> OutlierScreen:
    """Flag outliers by modified z-score (MAD-based, PASTRAMI-style).

    A value is flagged when ``|0.6745 · (x − median) / MAD| > threshold``.
    When the MAD degenerates to zero (at least half the sample identical)
    the mean absolute deviation takes its place; when that is zero too the
    sample is constant and nothing is flagged.  Robust by construction:
    the screen's own scale estimate cannot be inflated by the outliers it
    is looking for.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a one-dimensional, non-empty sample")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    med = float(np.median(v))
    dev = np.abs(v - med)
    mad = float(np.median(dev))
    if mad > 0.0:
        z = _MAD_Z * dev / mad
    else:
        meanad = float(dev.mean())
        z = _MEANAD_Z * dev / meanad if meanad > 0.0 else np.zeros_like(dev)
    flags = z > threshold
    if v.size < 3:
        # Two points cannot outvote each other; a screen needs a quorum.
        flags = np.zeros_like(flags)
    return OutlierScreen(
        values=v, flags=flags, median=med, mad=mad, threshold=threshold
    )


# -- the sequential stopping rule ------------------------------------------

@dataclass(frozen=True)
class StabilityDecision:
    """What the minimal-runs estimator decided, and on how much evidence."""

    #: True when the CI target was reached before the cap.
    stopped: bool
    #: Sessions actually consumed.
    n_used: int
    #: Final CI half-width of the mean.
    half_width: float
    #: The target half-width (0 = no target; screening only).
    eps: float
    #: Half-width after each check, in order — the convergence trace.
    history: tuple[float, ...]


def ci_half_width(
    values,
    *,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> float:
    """Half the bootstrap CI width of the mean — the stopping statistic."""
    lo, _, hi = bootstrap_ci(
        values, confidence=confidence, n_resamples=n_resamples, seed=seed
    )
    return (hi - lo) / 2.0


def minimal_runs_mean(
    draw,
    *,
    eps: float = DEFAULT_EPSILON,
    min_runs: int = 4,
    max_runs: int = 32,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    bootstrap_seed: int = 0,
) -> tuple[np.ndarray, StabilityDecision]:
    """Draw values until the mean's CI half-width is ≤ ``eps`` or a cap hits.

    ``draw(k)`` produces the k-th observation (a full record+replay
    session in the environment case; any expensive scalar measurement in
    general).  The rule: after at least ``min_runs`` draws, stop as soon
    as the ``confidence`` bootstrap CI of the running mean has half-width
    at most ``eps``; give up (``stopped=False``) at ``max_runs``.

    A series whose mean *shifts* mid-stream keeps inflating its own
    variance estimate, so the rule refuses to stop on it — drift is
    answered with "unstable", never with a tight interval around a
    meaningless mean (calibrated by ``tests/test_stability_calibration.py``
    against :func:`repro.analysis.changepoints.detect_series_steps`).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_runs < 3:
        raise ValueError("min_runs must be >= 3 (below that the bootstrap "
                         "interval degenerates to the sample range)")
    if max_runs < min_runs:
        raise ValueError("max_runs must be >= min_runs")
    values: list[float] = []
    history: list[float] = []
    stopped = False
    while len(values) < max_runs:
        values.append(float(draw(len(values))))
        if len(values) < min_runs:
            continue
        hw = ci_half_width(
            values,
            confidence=confidence,
            n_resamples=n_resamples,
            seed=bootstrap_seed,
        )
        history.append(hw)
        if hw <= eps:
            stopped = True
            break
    decision = StabilityDecision(
        stopped=stopped,
        n_used=len(values),
        half_width=history[-1] if history else float("inf"),
        eps=eps,
        history=tuple(history),
    )
    return np.asarray(values), decision


# -- the stability screen --------------------------------------------------

def stability_seed_plan(base_seed: int, count: int) -> tuple[int, ...]:
    """The seed list a stability screen derives from a scenario's seed.

    Consecutive seeds starting at the registered one: seed k of the plan
    is ``base_seed + k``, so element 0 reproduces the exact series the
    table and figure drivers consume (and hits their store entries), and
    adaptive extension (`max(seeds) + 1, ...`) continues the same stream.
    Distinct integer seeds yield independent realizations — every series
    derives its streams from its own spawned :class:`numpy.random.SeedSequence`.
    """
    if count < 1:
        raise ValueError("need at least one seed")
    return tuple(int(base_seed) + k for k in range(int(count)))


def _series_values(reports, component: str) -> np.ndarray:
    """Per-seed mean of one metric, exactly as the serial sweep computes it."""
    return np.asarray([rep.values(component).mean() for rep in reports])


@dataclass(frozen=True)
class EnvironmentStability:
    """One environment's κ distribution, screen and stopping decision."""

    environment: str
    seeds: tuple[int, ...]
    n_runs: int
    #: Per-seed session means (seed order), one array per metric.
    kappa: np.ndarray
    u_values: np.ndarray
    o_values: np.ndarray
    i_values: np.ndarray
    l_values: np.ndarray
    #: The MAD screen over the per-seed κ means.
    screen: OutlierScreen
    #: The sequential stopping decision (``eps=0``: screening-only).
    decision: StabilityDecision

    @property
    def n_eff(self) -> int:
        """Seeds contributing to the headline interval (unflagged)."""
        return len(self.seeds) - self.screen.n_flagged

    def outlier_seeds(self) -> tuple[int, ...]:
        """The seeds the screen flagged (reported, never dropped)."""
        return tuple(
            int(s) for s, f in zip(self.seeds, self.screen.flags) if f
        )

    def interval(self) -> tuple[float, float, float]:
        """``(low, mean, high)`` over the screened κ sample."""
        return bootstrap_ci(self.screen.kept(), confidence=CONFIDENCE)

    def row(self) -> dict:
        """The interval-bearing Table-2-style row."""
        lo, mean, hi = self.interval()
        return {
            "environment": self.environment,
            "U": float(self.u_values.mean()),
            "O": float(self.o_values.mean()),
            "I": float(self.i_values.mean()),
            "L": float(self.l_values.mean()),
            "kappa": mean,
            "kappa_ci_low": lo,
            "kappa_ci_high": hi,
            "kappa_spread": float(self.kappa.max() - self.kappa.min()),
            "n_eff": self.n_eff,
            "outliers": self.screen.n_flagged,
        }

    def to_doc(self) -> dict:
        """The JSON-ready block for :func:`stability_document`."""
        lo, mean, hi = self.interval()
        return {
            "environment": self.environment,
            "seeds": [int(s) for s in self.seeds],
            "n_runs": int(self.n_runs),
            "kappa": [float(v) for v in self.kappa],
            "U": [float(v) for v in self.u_values],
            "O": [float(v) for v in self.o_values],
            "I": [float(v) for v in self.i_values],
            "L": [float(v) for v in self.l_values],
            "kappa_mean": float(mean),
            "kappa_ci_low": float(lo),
            "kappa_ci_high": float(hi),
            "kappa_spread": float(self.kappa.max() - self.kappa.min()),
            "confidence": float(CONFIDENCE),
            "n_eff": int(self.n_eff),
            "outlier_seeds": [int(s) for s in self.outlier_seeds()],
            "stopped": bool(self.decision.stopped),
            "half_width": float(self.decision.half_width),
            "eps": float(self.decision.eps),
            "history": [float(h) for h in self.decision.history],
        }


def stability_screen(
    environments,
    *,
    n_runs: int = 3,
    jobs: int | None = None,
    store=None,
    eps: float = 0.0,
    max_seeds: int = 12,
) -> list[EnvironmentStability]:
    """Screen the κ stability of several environments over seeded sessions.

    ``environments`` lists ``(name, profile, seeds)`` triples; each seed
    is one session (record, ``n_runs`` replays, Section-3 analysis) and
    one sweep unit, cached in ``store`` under the digest ``repro sweep``
    uses, so a profile must be store-canonicalizable (no custom
    ``workload`` callables), as for ``repro sweep``.  The initial seeds
    of every environment resolve as one sweep plan, fanned out over
    ``jobs`` workers.

    ``eps=0`` (the default) reports exactly those seeds.  ``eps>0`` runs
    each environment through :func:`minimal_runs_mean`: new seeds
    (``max(seeds) + 1`` onward) are appended until the κ CI half-width is
    ≤ ``eps`` or ``max_seeds`` sessions have run.  The rule is checked
    after every seed, in seed order; a miss fetches the next ``jobs``
    seeds in one sweep, and units computed past the stopping point stay
    in the store but out of the result.  The result is therefore the same
    at any job count, cold or warm.

    The screen (:func:`screen_outliers`) runs over the final per-seed κ
    means; flagged seeds are excluded from the headline interval but stay
    in every reported distribution.  Results come back in request order.
    """
    from ..parallel.pool import resolve_jobs
    from ..sweep.coordinator import plan_unit, run_sweep

    environments = [
        (name, profile, tuple(int(s) for s in seeds))
        for name, profile, seeds in environments
    ]
    if eps < 0:
        raise ValueError("eps must be >= 0")
    for name, _, seeds in environments:
        if not seeds:
            raise ValueError(
                f"{name}: need at least one seed (the initial seed list is empty)"
            )
        if eps > 0 and len(seeds) < 3:
            raise ValueError(
                f"{name}: adaptive mode needs >= 3 initial seeds (below "
                "that the bootstrap interval degenerates to the sample range)"
            )
    jobs = resolve_jobs(jobs)

    def sweep(units) -> list:
        return list(run_sweep(units, store, jobs=jobs).series)

    def extend(name, profile, seeds, series):
        """Grow one environment through the stopping rule, seed by seed."""
        seeds, series = list(seeds), list(series)
        max_runs = max(int(max_seeds), len(seeds))

        def draw(k: int) -> float:
            if k >= len(series):
                start = max(seeds) + 1
                new = range(start, start + min(jobs, max_runs - k))
                series.extend(
                    sweep([plan_unit(name, profile, s, n_runs) for s in new])
                )
                seeds.extend(new)
            return series[k].values("kappa").mean()

        _, decision = minimal_runs_mean(
            draw, eps=eps, min_runs=len(seeds), max_runs=max_runs
        )
        n = decision.n_used
        return tuple(seeds[:n]), series[:n], decision

    reports = iter(sweep([
        plan_unit(name, profile, s, n_runs)
        for name, profile, seeds in environments
        for s in seeds
    ]))
    results = []
    for name, profile, seeds in environments:
        series = [next(reports) for _ in seeds]
        with span(
            "stability.environment",
            environment=profile.name,
            n_seeds=len(seeds),
            eps=eps,
        ):
            if eps > 0:
                seeds, series, decision = extend(name, profile, seeds, series)
            kappa = _series_values(series, "kappa")
            if eps == 0:
                hw = ci_half_width(kappa)
                decision = StabilityDecision(
                    stopped=False,
                    n_used=len(seeds),
                    half_width=hw,
                    eps=eps,
                    history=(hw,),
                )
            screen = screen_outliers(kappa)
        metrics.counter("stability.environments").add()
        if screen.n_flagged:
            metrics.counter("stability.outliers_flagged").add(screen.n_flagged)
        results.append(EnvironmentStability(
            environment=profile.name,
            seeds=seeds,
            n_runs=n_runs,
            kappa=kappa,
            u_values=_series_values(series, "U"),
            o_values=_series_values(series, "O"),
            i_values=_series_values(series, "I"),
            l_values=_series_values(series, "L"),
            screen=screen,
            decision=decision,
        ))
    return results


# -- the machine-readable report -------------------------------------------

def stability_document(
    blocks: list[tuple[str, EnvironmentStability]], params: dict
) -> dict:
    """The deterministic ``stability.json`` payload.

    ``blocks`` pairs each result with the scenario key that produced it
    (so the document is self-describing enough to recompute — the CI
    smoke job diffs it against a from-scratch serial ``seed_sweep``).
    Bytes depend only on the plan and the simulated content, exactly like
    ``sweep.json``.
    """
    return {
        "schema": STABILITY_REPORT_SCHEMA,
        "kind": "stability-report",
        "params": dict(params),
        "environments": [
            dict(result.to_doc(), scenario=key) for key, result in blocks
        ],
    }


def write_stability_report(doc: dict, telemetry: dict, outdir):
    """Write ``stability.json`` (deterministic) + ``stability_telemetry.json``.

    Mirrors :func:`repro.sweep.coordinator.write_sweep_report`: the report
    bytes are diffable across job counts and cache states; everything
    run-dependent lives in the telemetry sidecar.
    """
    import json
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "stability.json"
    report_path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    telemetry_path = outdir / "stability_telemetry.json"
    telemetry_path.write_text(
        json.dumps(telemetry, sort_keys=True, indent=1) + "\n"
    )
    return report_path, telemetry_path
