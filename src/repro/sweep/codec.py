"""Exact JSON codecs for the artifact store's report payloads.

The store's contract is *bit-identity*: an analysis loaded from disk must
equal the analysis that was stored, down to the last float bit, so that a
swept (cached) run is indistinguishable from a cold run.  JSON can carry
that contract — Python serializes floats via ``repr``, the shortest
round-tripping decimal, and parses them back with correctly-rounded
``float()`` — as long as nothing on the way re-derives, truncates or
re-formats a value.  These codecs therefore copy every field verbatim:
no recomputation on decode, no ``default=`` fallbacks that would silently
stringify unexpected payloads (unknown types fail loudly instead).

Scope: :class:`~repro.core.kappa.MetricVector`,
:class:`~repro.core.ordering.MoveDistanceStats`,
:class:`~repro.core.histograms.DeltaHistogram` (bins config + integer
counts), :class:`~repro.core.report.PairReport` and
:class:`~repro.core.report.RunSeriesReport`.  Trials are **not** JSON —
they round-trip through the binary capture format
(:mod:`repro.analysis.capture`), which is already exact.

The decode side validates shape via a schema tag per document and the
dataclass constructors' own invariants (e.g. ``MetricVector`` rejects
non-finite components), so a corrupted report fails decoding rather than
producing a silently wrong κ — the store maps any decode failure to a
counted cache miss.
"""

from __future__ import annotations

import numpy as np

from ..core.histograms import DeltaHistogram, SymlogBins
from ..core.kappa import MetricVector
from ..core.ordering import MoveDistanceStats
from ..core.report import PairReport, RunSeriesReport

__all__ = [
    "series_report_to_dict",
    "series_report_from_dict",
    "pair_report_to_dict",
    "pair_report_from_dict",
]

#: Bump when the encoded shape changes; decoders reject other versions.
REPORT_CODEC_VERSION = 1


def _check_version(data: dict, context: str) -> None:
    v = data.get("codec")
    if v != REPORT_CODEC_VERSION:
        raise ValueError(
            f"{context}: unsupported codec version {v!r} "
            f"(expected {REPORT_CODEC_VERSION})"
        )


def _hist_to_dict(h: DeltaHistogram) -> dict:
    return {
        "bins": {
            "linthresh": h.bins.linthresh,
            "max_decade": h.bins.max_decade,
            "bins_per_decade": h.bins.bins_per_decade,
        },
        "counts": [int(c) for c in h.counts],
        "n_total": int(h.n_total),
        "label": h.label,
        "meta": dict(h.meta),
    }


def _hist_from_dict(data: dict, context: str) -> DeltaHistogram:
    bins = SymlogBins(**data["bins"])
    counts = np.asarray(data["counts"], dtype=np.int64)
    if counts.shape != (bins.n_bins,):
        raise ValueError(f"{context}: histogram counts do not match bin layout")
    return DeltaHistogram(
        bins=bins,
        counts=counts,
        n_total=int(data["n_total"]),
        label=data["label"],
        meta=dict(data["meta"]),
    )


def _move_stats_to_dict(s: MoveDistanceStats) -> dict:
    return {
        "n_moved": s.n_moved,
        "mean": s.mean,
        "std": s.std,
        "abs_mean": s.abs_mean,
        "abs_std": s.abs_std,
        "min": s.min,
        "max": s.max,
    }


def pair_report_to_dict(p: PairReport) -> dict:
    """Encode one :class:`PairReport`, every float verbatim."""
    return {
        "codec": REPORT_CODEC_VERSION,
        "baseline_label": p.baseline_label,
        "run_label": p.run_label,
        "metrics": {"u": p.metrics.u, "o": p.metrics.o,
                    "l": p.metrics.l, "i": p.metrics.i},
        "n_baseline": p.n_baseline,
        "n_run": p.n_run,
        "n_common": p.n_common,
        "pct_iat_within_10ns": p.pct_iat_within_10ns,
        "move_stats": _move_stats_to_dict(p.move_stats),
        "iat_hist": _hist_to_dict(p.iat_hist),
        "latency_hist": _hist_to_dict(p.latency_hist),
        "meta": dict(p.meta),
    }


def pair_report_from_dict(data: dict) -> PairReport:
    """Decode :func:`pair_report_to_dict` output; fails loudly on drift."""
    _check_version(data, "pair report")
    m = data["metrics"]
    return PairReport(
        baseline_label=data["baseline_label"],
        run_label=data["run_label"],
        metrics=MetricVector(m["u"], m["o"], m["l"], m["i"]),
        n_baseline=int(data["n_baseline"]),
        n_run=int(data["n_run"]),
        n_common=int(data["n_common"]),
        pct_iat_within_10ns=data["pct_iat_within_10ns"],
        move_stats=MoveDistanceStats(**data["move_stats"]),
        iat_hist=_hist_from_dict(data["iat_hist"], "iat_hist"),
        latency_hist=_hist_from_dict(data["latency_hist"], "latency_hist"),
        meta=dict(data["meta"]),
    )


def series_report_to_dict(report: RunSeriesReport) -> dict:
    """Encode a whole :class:`RunSeriesReport` (the store's report payload)."""
    return {
        "codec": REPORT_CODEC_VERSION,
        "environment": report.environment,
        "baseline_label": report.baseline_label,
        "pairs": [pair_report_to_dict(p) for p in report.pairs],
    }


def series_report_from_dict(data: dict) -> RunSeriesReport:
    """Decode :func:`series_report_to_dict` output."""
    _check_version(data, "series report")
    return RunSeriesReport(
        environment=data["environment"],
        baseline_label=data["baseline_label"],
        pairs=tuple(pair_report_from_dict(p) for p in data["pairs"]),
    )
