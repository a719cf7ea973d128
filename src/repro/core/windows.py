"""Time-windowed consistency: localize *when* an environment misbehaved.

The Section-3 metrics summarize a whole trial pair into scalars; for
debugging (the paper's Section-1 motivation) one usually needs to know
*where in time* the inconsistency sits — a contention window on a shared
port, one scheduler stall, a clock step.  This module slices a trial pair
into fixed windows on the baseline's timeline and computes per-window
deviation statistics, producing a time series that spikes exactly where
the trouble happened.

Windowed values are *diagnostic* statistics, deliberately not the
normalized Section-3 metrics: normalizers are global properties of a
trial (total duration, worst-case span), so per-window "κ" would not
compose back into the whole-trial score.  What does compose is the raw
deviation mass: the window sums of ``|Δl|`` and ``|Δg|`` add up exactly
to the numerators of Equations 3 and 4 (a property the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iat import iat_deltas_ns
from .latency import latency_deltas_ns
from .matching import match_trials
from .trial import Trial

__all__ = ["WindowedDeviation", "windowed_deviation", "deviation_from_deltas"]


@dataclass(frozen=True)
class WindowedDeviation:
    """Per-window deviation series for one (baseline, run) pair.

    All arrays share one length (the number of windows).  Windows are
    laid on the *baseline's* relative timeline: window ``k`` covers
    ``[k·window_ns, (k+1)·window_ns)`` after the baseline's first packet.
    """

    window_ns: float
    starts_ns: np.ndarray
    n_common: np.ndarray
    n_missing: np.ndarray
    sum_abs_latency_ns: np.ndarray
    sum_abs_iat_ns: np.ndarray
    max_abs_latency_ns: np.ndarray
    max_abs_iat_ns: np.ndarray

    @property
    def n_windows(self) -> int:
        return int(self.starts_ns.shape[0])

    def mean_abs_iat_ns(self) -> np.ndarray:
        """Per-window mean |Δg| (0 where a window is empty)."""
        with np.errstate(invalid="ignore"):
            out = self.sum_abs_iat_ns / np.maximum(self.n_common, 1)
        return np.where(self.n_common > 0, out, 0.0)

    def hottest_windows(self, k: int = 3, by: str = "iat") -> list[dict]:
        """The ``k`` most deviant windows — the debugger's starting points."""
        key = {
            "iat": self.sum_abs_iat_ns,
            "latency": self.sum_abs_latency_ns,
            "missing": self.n_missing.astype(np.float64),
        }.get(by)
        if key is None:
            raise KeyError(f"unknown ranking {by!r}; use iat/latency/missing")
        order = np.argsort(key)[::-1][:k]
        return [
            {
                "window": int(i),
                "start_ms": float(self.starts_ns[i]) / 1e6,
                "sum_abs_iat_ns": float(self.sum_abs_iat_ns[i]),
                "sum_abs_latency_ns": float(self.sum_abs_latency_ns[i]),
                "n_missing": int(self.n_missing[i]),
            }
            for i in order
        ]

    def rows(self) -> list[dict]:
        """One dict per window, for table rendering."""
        return [
            {
                "window": k,
                "start_ms": float(self.starts_ns[k]) / 1e6,
                "n_common": int(self.n_common[k]),
                "n_missing": int(self.n_missing[k]),
                "mean_abs_iat_ns": float(self.mean_abs_iat_ns()[k]),
                "max_abs_iat_ns": float(self.max_abs_iat_ns[k]),
                "max_abs_latency_ns": float(self.max_abs_latency_ns[k]),
            }
            for k in range(self.n_windows)
        ]


def deviation_from_deltas(
    rel_baseline_ns: np.ndarray,
    idx_a: np.ndarray,
    abs_latency_ns: np.ndarray,
    abs_iat_ns: np.ndarray,
    window_ns: float,
) -> WindowedDeviation:
    """Assemble the window series from per-common-packet deviations.

    The single aggregation every path runs: the batch driver
    (:func:`windowed_deviation`) and the streaming comparator
    (:meth:`repro.analysis.streamkappa.StreamKappa.windowed`) both call
    this exact function on identically-ordered inputs, so their window
    series are bit-identical.  ``rel_baseline_ns`` is the *full*
    baseline's relative timeline; ``idx_a`` the baseline positions of the
    common packets in A order; the two delta arrays are ``|Δl|`` / ``|Δg|``
    per common packet, aligned with ``idx_a``.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    rel = np.asarray(rel_baseline_ns, dtype=np.float64)
    if rel.shape[0] == 0:
        raise ValueError("baseline trial is empty")
    n_windows = int(np.floor(rel[-1] / window_ns)) + 1
    starts = np.arange(n_windows, dtype=np.float64) * window_ns

    # Window index of every baseline packet; common packets inherit it.
    win_all = np.minimum((rel / window_ns).astype(np.intp), n_windows - 1)
    win_common = win_all[idx_a]

    n_common = np.bincount(win_common, minlength=n_windows)
    sum_l = np.bincount(win_common, weights=abs_latency_ns, minlength=n_windows)
    sum_g = np.bincount(win_common, weights=abs_iat_ns, minlength=n_windows)

    # Per-window maxima: sort by window, then segmented maximum.
    max_l = np.zeros(n_windows)
    max_g = np.zeros(n_windows)
    if win_common.size:
        np.maximum.at(max_l, win_common, abs_latency_ns)
        np.maximum.at(max_g, win_common, abs_iat_ns)

    # Missing baseline packets per window.
    present = np.zeros(rel.shape[0], dtype=bool)
    present[idx_a] = True
    n_missing = np.bincount(win_all[~present], minlength=n_windows)

    return WindowedDeviation(
        window_ns=float(window_ns),
        starts_ns=starts,
        n_common=n_common.astype(np.int64),
        n_missing=n_missing.astype(np.int64),
        sum_abs_latency_ns=sum_l,
        sum_abs_iat_ns=sum_g,
        max_abs_latency_ns=max_l,
        max_abs_iat_ns=max_g,
    )


def windowed_deviation(
    baseline: Trial, run: Trial, window_ns: float
) -> WindowedDeviation:
    """Cut the pair into baseline-timeline windows and aggregate deviations.

    Missing packets (in the baseline, absent from the run) are attributed
    to the window of their *baseline* arrival — where the operator would
    go looking for them.

    Runs through the fused timing kernel (:mod:`repro.core.fusedpass`),
    which feeds :func:`deviation_from_deltas` the identical delta arrays
    the per-component path here used to gather twice.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    if baseline.is_empty:
        raise ValueError("baseline trial is empty")

    from .fusedpass import fused_timings  # local: fusedpass imports this module

    m = match_trials(baseline, run)
    fused = fused_timings(baseline, run, m, window_ns=window_ns)
    if fused.windows is not None:
        return fused.windows
    # No common packets: the fused kernel short-circuits before windowing;
    # aggregate empty delta arrays over the baseline timeline directly.
    return deviation_from_deltas(
        baseline.relative_times_ns(),
        m.idx_a,
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.float64),
        window_ns,
    )
