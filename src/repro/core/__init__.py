"""Section-3 consistency metrics — the paper's primary contribution.

Public surface:

* :class:`~repro.core.trial.Trial` — a received packet sequence.
* :func:`~repro.core.uniqueness.uniqueness_variation` — ``U`` (Eq. 1).
* :func:`~repro.core.ordering.ordering_variation` — ``O`` (Eq. 2).
* :func:`~repro.core.latency.latency_variation` — ``L`` (Eq. 3).
* :func:`~repro.core.iat.iat_variation` — ``I`` (Eq. 4).
* :class:`~repro.core.kappa.MetricVector` / ``κ`` — Eq. 5.
* :func:`~repro.core.report.compare_trials` /
  :func:`~repro.core.report.compare_series` — one-call analysis drivers.
"""

from .histograms import DeltaHistogram, SymlogBins, pct_within, pct_within_from_counts
from .iat import (
    iat_deltas_ns,
    iat_denominator_ns,
    iat_from_deltas,
    iat_variation,
    max_iat_construction,
)
from .kappa import KappaScaling, MetricVector, kappa_from_components, kappa_from_vector
from .latency import (
    latency_deltas_ns,
    latency_from_deltas,
    latency_span_ns,
    latency_variation,
    max_latency_construction,
)
from .matching import Matching, match_trials, occurrence_ranks
from .ordering import (
    EditScript,
    MoveDistanceStats,
    edit_script,
    edit_script_from_matching,
    longest_increasing_subsequence,
    move_distance_stats,
    naive_lcs_length,
    ordering_variation,
)
from .reorder import ReorderBySpacing, reorder_probability_by_spacing
from .report import PairReport, RunSeriesReport, compare_series, compare_trials
from .trial import Trial
from .windows import WindowedDeviation, deviation_from_deltas, windowed_deviation
from .uniqueness import uniqueness_variation

__all__ = [
    "Trial",
    "Matching",
    "match_trials",
    "occurrence_ranks",
    "uniqueness_variation",
    "ordering_variation",
    "longest_increasing_subsequence",
    "naive_lcs_length",
    "EditScript",
    "edit_script",
    "edit_script_from_matching",
    "MoveDistanceStats",
    "move_distance_stats",
    "latency_variation",
    "latency_deltas_ns",
    "latency_span_ns",
    "latency_from_deltas",
    "max_latency_construction",
    "iat_variation",
    "iat_deltas_ns",
    "iat_denominator_ns",
    "iat_from_deltas",
    "max_iat_construction",
    "MetricVector",
    "KappaScaling",
    "kappa_from_vector",
    "kappa_from_components",
    "SymlogBins",
    "DeltaHistogram",
    "pct_within",
    "pct_within_from_counts",
    "ReorderBySpacing",
    "reorder_probability_by_spacing",
    "PairReport",
    "RunSeriesReport",
    "compare_trials",
    "compare_series",
    "WindowedDeviation",
    "windowed_deviation",
    "deviation_from_deltas",
]
