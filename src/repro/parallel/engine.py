"""Whole-pair fan-out of a run series' comparisons.

Each worker runs the unmodified serial
:func:`repro.core.report.compare_trials` on one (baseline, run) pair whose
packet arrays it reads from shared memory (:mod:`repro.parallel.shm`);
the tasks go through :func:`repro.parallel.pool.fan_out`, and the parent
places the reports by pair index.  This is the one fan-out whose inputs
travel through shared memory: the baseline's arrays are shared once for
every pair, and measured on a 2-core host that beats pickling them
(``docs/parallel.md``).  The output is exactly
:func:`repro.core.report.compare_series` — it *is* the serial code, run
elsewhere — so no merge step exists to get wrong.  A pair is never split:
within-pair sharding never beat serial on measured hardware (see
``docs/parallel.md``).
"""

from __future__ import annotations

from ..core.histograms import SymlogBins
from ..core.report import RunSeriesReport, compare_series, compare_trials, label_series
from ..core.trial import Trial
from ..obs import metrics
from ..obs.trace import span
from .pool import fan_out, resolve_jobs
from .shm import ShmArena, attach_view, detach_all

__all__ = ["compare_series_parallel"]


def _whole_pair_worker(task: dict):
    """Run the serial comparison on one pair read from shared memory."""
    attachments: dict = {}
    try:
        baseline, run = (
            Trial(
                attach_view(task[f"tags_{s}"], attachments),
                attach_view(task[f"times_{s}"], attachments),
                label=task[f"label_{s}"],
                meta=task[f"meta_{s}"],
            )
            for s in "ab"
        )
        return compare_trials(baseline, run, bins=task["bins"])
    finally:
        detach_all(attachments)


def compare_series_parallel(
    trials: list[Trial],
    environment: str = "",
    bins: SymlogBins | None = None,
    *,
    jobs: int | None = None,
) -> RunSeriesReport:
    """:func:`repro.core.report.compare_series` with one pool task per pair.

    Exactly equal output (every float bit) at any ``jobs``; ``jobs=None``
    honors ``REPRO_JOBS``.  Runs serially, with no pool, when ``jobs=1``
    or the series has a single pair.
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(trials) <= 2:
        return compare_series(trials, environment=environment, bins=bins)
    baseline, *runs = label_series(trials)
    metrics.counter("engine.whole_pair_tasks").add(len(runs))
    pairs = [None] * len(runs)
    with span("analysis.series", n_pairs=len(runs), jobs=jobs), ShmArena() as arena:
        shared_a = {
            "tags_a": arena.share(baseline.tags),
            "times_a": arena.share(baseline.times_ns),
            "label_a": baseline.label,
            "meta_a": dict(baseline.meta),
            "bins": bins,
        }
        # A generator: each pair is shared just before it is submitted,
        # so the first workers start while later pairs are still copied.
        tasks = (
            {
                **shared_a,
                "tags_b": arena.share(run.tags),
                "times_b": arena.share(run.times_ns),
                "label_b": run.label,
                "meta_b": dict(run.meta),
            }
            for run in runs
        )
        for i, pair in fan_out(
            jobs, _whole_pair_worker, tasks, name="analysis.pair.whole",
            attrs=[{"run": run.label} for run in runs],
        ):
            pairs[i] = pair
    return RunSeriesReport(
        environment=environment, baseline_label=baseline.label, pairs=tuple(pairs)
    )
