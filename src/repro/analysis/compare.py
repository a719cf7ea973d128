"""Offline capture analysis: the artifact-notebook pipeline.

The paper's artifact records captures per run, then "analyze[s] packet
captures and produce[s] figures similar to those in the paper" with the
metrics in a text file.  This module is that pipeline over the
simulator's capture files: point it at a directory of run captures, get
back the per-run metric rows, the Table-2 aggregate row, the figure
histograms, and a rendered text report.

:func:`analyze_directory` is also the one place whole pairs fan out
across processes: each pool task carries two capture paths, and the
worker reads both files and runs the serial comparison, so no trial
crosses a process boundary and the report is the serial one, bit for bit.
"""

from __future__ import annotations

from pathlib import Path

from ..core.histograms import SymlogBins
from ..core.report import (
    PairReport,
    RunSeriesReport,
    compare_series,
    compare_trials,
    default_label,
)
from ..core.trial import Trial
from ..obs.trace import span
from .capture import read_capture, write_capture
from .textplot import render_histogram, render_metric_rows

__all__ = ["save_series", "load_series", "analyze_directory", "render_report"]


def save_series(trials: list[Trial], directory: str | Path) -> list[Path]:
    """Write one capture file per run into ``directory`` (created if needed).

    Files are named ``run-<label>.cho``; ordering metadata is preserved by
    an ``index.txt`` manifest listing labels in run order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    labels = []
    for t in trials:
        label = t.label or f"run{len(labels)}"
        paths.append(write_capture(t, directory / f"run-{label}.cho"))
        labels.append(label)
    (directory / "index.txt").write_text("\n".join(labels) + "\n")
    return paths


def _series_paths(directory: str | Path) -> list[Path]:
    """The capture files of a saved series, in run order."""
    directory = Path(directory)
    index = directory / "index.txt"
    if index.exists():
        labels = [line for line in index.read_text().splitlines() if line]
        paths = [directory / f"run-{label}.cho" for label in labels]
    else:
        paths = sorted(directory.glob("run-*.cho"))
    if not paths:
        raise FileNotFoundError(f"no captures found under {directory}")
    return paths


def load_series(directory: str | Path) -> list[Trial]:
    """Load a capture series saved by :func:`save_series`, in run order."""
    return [read_capture(p) for p in _series_paths(directory)]


def _compare_captures(task: tuple) -> PairReport:
    """Read one (baseline, run) pair from its captures; compare it serially."""
    baseline_path, run_path, index, bins = task
    return compare_trials(
        default_label(read_capture(baseline_path), 0),
        default_label(read_capture(run_path), index),
        bins=bins,
    )


def analyze_directory(
    directory: str | Path,
    environment: str = "",
    bins: SymlogBins | None = None,
    jobs: int | None = None,
) -> RunSeriesReport:
    """Full Section-3 analysis of a saved capture series.

    The first capture in run order is the baseline (run A), as in the
    paper's protocol.  ``jobs`` (default ``REPRO_JOBS`` or serial) fans
    the pairs out across the worker pool, one whole pair per task; the
    parent places each report by pair index, so the report is exactly
    :func:`repro.core.report.compare_series` of the loaded series at any
    ``jobs``.  One pair, or ``jobs=1``, runs in-process with no pool.
    """
    # Imported here: the pool module loads concurrent.futures, which the
    # other users of this package (monitor, stream readers) never need.
    from ..parallel.pool import fan_out, resolve_jobs

    paths = _series_paths(directory)
    environment = environment or str(directory)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(paths) <= 2:
        trials = [read_capture(p) for p in paths]
        return compare_series(trials, environment=environment, bins=bins)
    baseline, *runs = paths
    pairs = [None] * len(runs)
    with span("analysis.series", n_pairs=len(runs), jobs=jobs):
        for i, pair in fan_out(
            jobs,
            _compare_captures,
            [(baseline, run, k, bins) for k, run in enumerate(runs, start=1)],
            name="analysis.pair.whole",
            attrs=[{"run": run.name} for run in runs],
        ):
            pairs[i] = pair
    return RunSeriesReport(
        environment=environment,
        baseline_label=pairs[0].baseline_label,
        pairs=tuple(pairs),
    )


def render_report(report: RunSeriesReport, *, histograms: bool = True) -> str:
    """Human-readable text report: per-run rows, means, optional figures.

    This is the shape of the artifact's text-file output: metric values
    per run against run A, then the aggregate, then the histograms the
    figures plot.
    """
    lines = [
        f"environment: {report.environment}",
        f"baseline run: {report.baseline_label}",
        "",
        "per-run metrics (vs baseline):",
        render_metric_rows(
            report.run_rows(),
            columns=["run", "U", "O", "I", "L", "kappa", "pct_iat_10ns", "n_missing"],
        ),
        "mean (Table 2 row):",
        render_metric_rows([report.mean_row()]),
    ]
    if histograms:
        for p in report.pairs:
            lines.append(
                render_histogram(
                    p.iat_hist, title=f"IAT deltas, run {p.run_label} vs {p.baseline_label}:"
                )
            )
            lines.append(
                render_histogram(
                    p.latency_hist,
                    title=f"latency deltas, run {p.run_label} vs {p.baseline_label}:",
                )
            )
    return "\n".join(lines)
