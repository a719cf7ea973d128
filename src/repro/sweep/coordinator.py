"""The resumable sweep orchestrator: expand, deduplicate, fan out, merge.

A *sweep* evaluates a scenario × seed matrix — the shape behind Table 2,
every figure series, and the PASTRAMI-style many-run stability screens —
as a list of independent **work units** (one trial series + its Section-3
analysis each).  A unit is the only way a series is cached: the scenario
runner (:mod:`repro.experiments.runner`) resolves every series it needs
through a sweep, so tables, figures and ``repro sweep`` read and write
the same full entries.  A unit is also the only grain that fans out for
anything that simulates; a unit itself always computes serially.  The
coordinator:

1. expands the matrix into a deterministic work plan
   (:func:`plan_from_scenarios` for registered scenarios,
   :func:`plan_unit` for ad-hoc profiles);
2. probes the :class:`~repro.sweep.store.ArtifactStore` and satisfies
   hits without simulating anything;
3. fans misses out over the persistent worker pool
   (:func:`repro.parallel.pool.fan_out`) — one unit per task, computed
   with the *serial* simulation and analysis paths worker-side; trials
   and the report come back by pickle (floats exactly), with the
   worker's counters (and spans, when tracing) absorbed on the way.  A
   lone miss, or any miss at ``jobs=1``, computes in-process through the
   same serial function — the same bits either way;
4. persists each finished unit **immediately and atomically**, so a
   killed sweep resumes from its last completed unit, not from zero;
5. merges the per-unit reports, in plan order, into one machine-readable
   sweep report plus a separate telemetry document.

Determinism contract (pinned by ``tests/test_sweep_differential.py``):
the merged report (:attr:`SweepResult.report`, serialized by
:func:`write_sweep_report` as ``sweep.json``) is **byte-identical**
across job counts, cold/warm caches, and kill + ``--resume`` cycles.
Everything run-dependent — wall times, hit/miss tallies, host context,
merged worker telemetry — lives in the *telemetry* document
(``sweep_telemetry.json``), which extends the ``benchmarks/_emit.py``
bench-artifact schema (``bench``/``params``/``host``/``wall_s``/
``per_stage``) with a ``store`` block and the drained
:mod:`repro.obs.metrics` counters.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.report import RunSeriesReport, compare_series
from ..core.trial import Trial
from ..obs import metrics
from ..obs.export import host_context
from ..obs.trace import span
from ..parallel.pool import fan_out, resolve_jobs
from ..testbeds.base import Testbed
from ..testbeds.profiles import EnvironmentProfile
from .store import ArtifactStore, compute_digest, digest_key_doc

__all__ = [
    "SweepUnit",
    "SweepResult",
    "plan_unit",
    "plan_from_scenarios",
    "run_sweep",
    "write_sweep_report",
    "render_sweep_summary",
    "SWEEP_REPORT_SCHEMA",
]

#: Version of the merged sweep report document.
SWEEP_REPORT_SCHEMA = 1


@dataclass(frozen=True)
class SweepUnit:
    """One work unit: a (profile, seed) cell of the sweep matrix."""

    name: str
    profile: EnvironmentProfile
    seed: int
    n_runs: int
    digest: str

    @property
    def environment(self) -> str:
        return self.profile.name


def plan_unit(
    name: str, profile: EnvironmentProfile, seed: int, n_runs: int
) -> SweepUnit:
    """Build one unit, computing its content digest."""
    return SweepUnit(
        name=name,
        profile=profile,
        seed=int(seed),
        n_runs=int(n_runs),
        digest=compute_digest(profile, seed, n_runs),
    )


def plan_from_scenarios(
    keys: list[str] | None = None,
    *,
    seeds: list[int] | None = None,
    n_runs: int = 5,
    duration_scale: float | None = None,
) -> list[SweepUnit]:
    """Expand registered scenarios × seeds into a deterministic plan.

    ``keys=None`` sweeps all nine Table-2 environments; ``seeds=None``
    uses each scenario's registered seed (the exact series the figure and
    table drivers consume), while an explicit seed list is applied to
    every scenario (the many-seed stability-screen shape).  Plan order is
    scenario-major in registry order, then seed order — the merge order
    of the final report.
    """
    from ..experiments.scenarios import SCENARIOS, default_duration_scale, scenario

    keys = list(keys) if keys else [sc.key for sc in SCENARIOS]
    scale = duration_scale if duration_scale is not None else default_duration_scale()
    plan = []
    for key in keys:
        sc = scenario(key)
        profile = sc.profile(scale)
        for seed in seeds if seeds else [sc.seed]:
            plan.append(plan_unit(sc.key, profile, seed, n_runs))
    return plan


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced."""

    #: Deterministic merged report (the ``sweep.json`` payload).
    report: dict
    #: Run-dependent context (the ``sweep_telemetry.json`` payload).
    telemetry: dict
    #: Per-unit series reports, in plan order.
    series: tuple[RunSeriesReport, ...]
    #: Per-unit cache outcome, in plan order: ``"hit"`` or ``"miss"``.
    outcomes: tuple[str, ...]
    #: Per-unit trial series, in plan order.
    trials: tuple[tuple[Trial, ...], ...]


# -- the fan-out unit ------------------------------------------------------

def _compute_unit(task: tuple) -> tuple[list[Trial], RunSeriesReport]:
    """Simulate and analyze one unit, serially, in whichever process runs it."""
    profile, seed, n_runs = task
    with span(
        "sweep.unit", environment=profile.name, seed=int(seed), n_runs=int(n_runs)
    ):
        trials = Testbed(profile, seed=seed).run_series(n_runs)
        report = compare_series(trials, environment=profile.name)
    metrics.counter("sweep.units_computed").add()
    return trials, report


# -- the orchestrator ------------------------------------------------------

def run_sweep(
    plan: list[SweepUnit],
    store: ArtifactStore | None = None,
    *,
    jobs: int | None = None,
    resume: bool = True,
    matrix: dict | None = None,
) -> SweepResult:
    """Run a sweep plan through the store and the worker pool.

    ``resume=True`` (the default) satisfies units from existing store
    entries; ``resume=False`` recomputes every unit and rewrites its
    entry (a "fresh" sweep).  With ``store=None`` nothing persists and
    every unit computes.  ``jobs`` defaults to ``REPRO_JOBS`` or serial;
    below 1 it raises ``ValueError``.

    Duplicate digests in the plan (the same cell listed twice) compute at
    most once; every occurrence receives the identical result.
    """
    jobs = resolve_jobs(jobs)
    t_start = time.perf_counter()
    per_stage: dict[str, float] = {}
    # Progress gauges for the live observation channel (/metrics, counter
    # tracks): total plan size up front, completed units as they land.
    metrics.gauge("sweep.units_total").set(len(plan))
    metrics.gauge("sweep.units_done").set(0)

    # -- stage 1: probe the store -----------------------------------------
    t0 = time.perf_counter()
    results: dict[str, tuple[tuple[Trial, ...], RunSeriesReport]] = {}
    outcomes: dict[str, str] = {}
    with span("sweep.probe", n_units=len(plan)):
        for unit in plan:
            if unit.digest in results:
                continue
            if store is not None and resume:
                entry = store.get(unit.digest)
                if entry is not None:
                    results[unit.digest] = (entry.trials, entry.report)
                    outcomes[unit.digest] = "hit"
                    continue
            outcomes[unit.digest] = "miss"
    per_stage["probe"] = time.perf_counter() - t0

    # -- stage 2: compute the misses --------------------------------------
    t0 = time.perf_counter()
    misses = []
    seen = set()
    for unit in plan:
        if outcomes[unit.digest] == "miss" and unit.digest not in seen:
            seen.add(unit.digest)
            misses.append(unit)
    metrics.counter("sweep.units_hit").add(len(results))
    metrics.counter("sweep.units_missed").add(len(misses))
    metrics.gauge("sweep.units_done").set(len(results))

    def _persist(unit: SweepUnit, trials, report: RunSeriesReport) -> None:
        trials = tuple(trials)
        results[unit.digest] = (trials, report)
        metrics.gauge("sweep.units_done").set(len(results))
        if store is not None:
            store.put(
                unit.digest,
                trials,
                report,
                key=digest_key_doc(unit.profile, unit.seed, unit.n_runs),
            )

    if misses:
        with span("sweep.compute", n_units=len(misses), jobs=jobs):
            if jobs > 1 and len(misses) > 1:
                # Persist in completion order: a killed sweep keeps
                # every finished unit, whatever the schedule was.
                for i, (trials, report) in fan_out(
                    jobs,
                    _compute_unit,
                    [(u.profile, u.seed, u.n_runs) for u in misses],
                    name="sweep.unit.remote",
                    attrs=[
                        {"environment": u.environment, "seed": u.seed}
                        for u in misses
                    ],
                ):
                    _persist(misses[i], trials, report)
            else:
                for unit in misses:
                    trials, report = _compute_unit(
                        (unit.profile, unit.seed, unit.n_runs)
                    )
                    _persist(unit, trials, report)
    per_stage["compute"] = time.perf_counter() - t0

    # -- stage 3: merge, in plan order ------------------------------------
    t0 = time.perf_counter()
    with span("sweep.merge", n_units=len(plan)):
        unit_rows = []
        for unit in plan:
            report = results[unit.digest][1]
            unit_rows.append({
                "scenario": unit.name,
                "environment": unit.environment,
                "seed": unit.seed,
                "n_runs": unit.n_runs,
                "digest": unit.digest,
                "mean": report.mean_row(),
                "runs": report.run_rows(),
            })
        merged = {
            "schema": SWEEP_REPORT_SCHEMA,
            "kind": "sweep-report",
            "matrix": dict(matrix or {}),
            "n_units": len(plan),
            "units": unit_rows,
        }
    per_stage["merge"] = time.perf_counter() - t0

    outcome_list = tuple(outcomes[u.digest] for u in plan)
    n_hits = outcome_list.count("hit")
    telemetry = {
        "bench": "sweep",
        "params": {
            "n_units": len(plan),
            "jobs": jobs,
            "resume": resume,
            "matrix": dict(matrix or {}),
        },
        "host": host_context(),
        "wall_s": time.perf_counter() - t_start,
        "per_stage": per_stage,
        "store": store.stats.as_dict() if store is not None else None,
        "cache": {"hits": n_hits, "misses": len(plan) - n_hits},
        "metrics": {
            name: value
            for name, value in sorted(
                metrics.REGISTRY.snapshot()["counters"].items()
            )
            if name.startswith(("sweep.", "pool.", "testbed."))
        },
    }
    return SweepResult(
        report=merged,
        telemetry=telemetry,
        series=tuple(results[u.digest][1] for u in plan),
        outcomes=outcome_list,
        trials=tuple(results[u.digest][0] for u in plan),
    )


def write_sweep_report(result: SweepResult, outdir: str | Path) -> tuple[Path, Path]:
    """Write ``sweep.json`` (deterministic) + ``sweep_telemetry.json``.

    ``sweep.json`` bytes depend only on the plan and the simulated
    content — diffing two of them is the sweep-level exactness check the
    CI smoke job performs.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "sweep.json"
    report_path.write_text(
        json.dumps(result.report, sort_keys=True, indent=1) + "\n"
    )
    telemetry_path = outdir / "sweep_telemetry.json"
    telemetry_path.write_text(
        json.dumps(result.telemetry, sort_keys=True, indent=1) + "\n"
    )
    return report_path, telemetry_path


def render_sweep_summary(result: SweepResult, plan: list[SweepUnit]) -> str:
    """The human table: one row per unit with κ and its cache outcome."""
    from ..analysis.textplot import render_metric_rows

    rows = []
    for unit, report, outcome in zip(plan, result.series, result.outcomes):
        row = report.mean_row()
        rows.append({
            "scenario": unit.name,
            "seed": unit.seed,
            "U": row["U"],
            "O": row["O"],
            "I": row["I"],
            "L": row["L"],
            "kappa": row["kappa"],
            "cache": outcome,
        })
    return render_metric_rows(
        rows, columns=["scenario", "seed", "U", "O", "I", "L", "kappa", "cache"]
    )
