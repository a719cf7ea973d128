"""High-level comparison drivers: one pair, and a run-series vs baseline.

The paper's workflow is always the same: record one baseline run (A), run
the replay several more times (B, C, D, E, ...), and compare every repeat
to A.  :func:`compare_trials` produces the full Section-3 analysis for one
pair; :class:`RunSeriesReport` aggregates a whole series, producing the
per-run rows quoted in Sections 6-7 and the mean rows of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fusedpass import fused_timings
from .histograms import DeltaHistogram, SymlogBins
from .kappa import KappaScaling, MetricVector
from .matching import match_trials
from .ordering import (
    MoveDistanceStats,
    edit_script,
    ordering_from_matching,
)
from .trial import Trial
from .uniqueness import uniqueness_from_matching

__all__ = [
    "PairReport",
    "compare_trials",
    "RunSeriesReport",
    "compare_series",
    "default_label",
    "label_series",
]


@dataclass(frozen=True)
class PairReport:
    """Everything Section 3 extracts from one (baseline, run) pair."""

    baseline_label: str
    run_label: str
    metrics: MetricVector
    n_baseline: int
    n_run: int
    n_common: int
    pct_iat_within_10ns: float
    move_stats: MoveDistanceStats
    iat_hist: DeltaHistogram
    latency_hist: DeltaHistogram
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def kappa(self) -> float:
        """Equation 5 for this pair."""
        return self.metrics.kappa()

    def kappa_scaled(self, scaling: KappaScaling) -> float:
        """Equation 5 under a Section-8.2 weighting/scaling refinement."""
        return self.metrics.kappa(scaling)

    @property
    def n_missing(self) -> int:
        """Baseline packets absent from the run (drops, as counted in §7.1)."""
        return self.n_baseline - self.n_common

    def row(self) -> dict:
        """A flat dict row for table rendering."""
        return {
            "run": self.run_label,
            "U": self.metrics.u,
            "O": self.metrics.o,
            "I": self.metrics.i,
            "L": self.metrics.l,
            "kappa": self.kappa,
            "pct_iat_10ns": self.pct_iat_within_10ns,
            "n_common": self.n_common,
            "n_missing": self.n_missing,
        }


def compare_trials(
    baseline: Trial,
    run: Trial,
    bins: SymlogBins | None = None,
    within_ns: float = 10.0,
) -> PairReport:
    """Full Section-3 comparison of ``run`` against ``baseline``.

    Computes the matching once and derives all four metrics, κ, the ±10 ns
    IAT statistic, the Table-1 move-distance statistics, and both figure
    histograms from it.  The timing side runs through the fused kernel
    (:mod:`repro.core.fusedpass`) — one walk over the matched rows instead
    of four per-component passes; bit-identical output, which
    ``tests/test_fusedpass.py`` pins against the per-component functions.
    """
    bins = bins if bins is not None else SymlogBins()
    m = match_trials(baseline, run)
    script = edit_script(baseline, run, matching=m)

    u = uniqueness_from_matching(m)
    o = ordering_from_matching(m, script)
    fused = fused_timings(baseline, run, m, bins=bins, within_ns=within_ns)

    return PairReport(
        baseline_label=baseline.label,
        run_label=run.label,
        metrics=MetricVector(u, o, fused.l, fused.i),
        n_baseline=len(baseline),
        n_run=len(run),
        n_common=m.n_common,
        pct_iat_within_10ns=fused.pct_iat_within,
        move_stats=MoveDistanceStats.from_distances(script.moved_distances),
        iat_hist=DeltaHistogram.from_counts(
            fused.iat_counts, m.n_common, bins, label=run.label
        ),
        latency_hist=DeltaHistogram.from_counts(
            fused.lat_counts, m.n_common, bins, label=run.label
        ),
        meta={"baseline": dict(baseline.meta), "run": dict(run.meta)},
    )


@dataclass(frozen=True)
class RunSeriesReport:
    """All repeat runs of an environment compared against the baseline run."""

    environment: str
    baseline_label: str
    pairs: tuple[PairReport, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a run series needs at least one repeat run")

    # -- per-run accessors (the Sections 6-7 quoted lists) ---------------
    def values(self, component: str) -> np.ndarray:
        """Per-run values of one metric: 'U', 'O', 'L', 'I' or 'kappa'."""
        comp = component.lower()
        if comp == "kappa":
            return np.array([p.kappa for p in self.pairs])
        if comp in ("u", "o", "l", "i"):
            return np.array([getattr(p.metrics, comp) for p in self.pairs])
        raise KeyError(f"unknown metric component {component!r}")

    def pct_iat_within_10ns(self) -> np.ndarray:
        """Per-run % of packets within ±10 ns IAT delta of the baseline."""
        return np.array([p.pct_iat_within_10ns for p in self.pairs])

    # -- aggregate row (Table 2) -----------------------------------------
    def mean_row(self) -> dict:
        """The environment's Table-2 row: mean U, O, I, L and κ."""
        return {
            "environment": self.environment,
            "U": float(self.values("U").mean()),
            "O": float(self.values("O").mean()),
            "I": float(self.values("I").mean()),
            "L": float(self.values("L").mean()),
            "kappa": float(self.values("kappa").mean()),
        }

    def run_rows(self) -> list[dict]:
        """Per-run rows, as the running text of Sections 6-7 reports them."""
        return [p.row() for p in self.pairs]


def default_label(trial: Trial, index: int) -> Trial:
    """``trial`` as run ``index`` of a series, labelled as the paper does.

    A trial keeps its own label; an unlabelled one becomes A at index 0
    (the baseline), then B, C, D, E, ...
    """
    if trial.label:
        return trial
    return trial.relabel(chr(ord("A") + index) if index < 26 else f"run{index}")


def label_series(trials: list[Trial]) -> list[Trial]:
    """The series with the paper's default labels filled in."""
    if len(trials) < 2:
        raise ValueError("need a baseline plus at least one repeat run")
    return [default_label(trial, i) for i, trial in enumerate(trials)]


def compare_series(
    trials: list[Trial],
    environment: str = "",
    bins: SymlogBins | None = None,
) -> RunSeriesReport:
    """Compare ``trials[1:]`` against the baseline ``trials[0]``.

    Mirrors the paper's protocol: the first run is A, later runs are
    labelled B, C, D, E, ... if they carry no label of their own.
    """
    baseline, *runs = label_series(trials)
    bins = bins if bins is not None else SymlogBins()
    pairs = [compare_trials(baseline, run, bins=bins) for run in runs]
    return RunSeriesReport(
        environment=environment,
        baseline_label=baseline.label,
        pairs=tuple(pairs),
    )
