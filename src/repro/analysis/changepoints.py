"""Step detection in latency-delta series (clock-step diagnosis).

Section 7's FABRIC latency histograms show "either one spike far to one
side or two spikes symmetrically across 0" — the signature of mid-capture
clock steps (``ptp_kvm`` corrections): every packet after the step
carries a shifted latency delta.  Given the per-packet Δl series of a run
pair, this module estimates *how many* steps occurred, *when*, and *how
big* they were — turning the histogram's anonymous spikes back into
events an operator can correlate with sync logs.

Method: recursive binary segmentation on the mean.  For a segment, the
best split maximizes the standardized mean difference between the two
halves (a CUSUM-style statistic); splits are accepted while the implied
step size clears ``min_step`` and the statistic clears a noise-scaled
threshold.  Binary segmentation is O(n log n), robust for the few-steps
regime that clock faults produce, and has no tuning beyond the two
physical thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyStep", "detect_series_steps"]


@dataclass(frozen=True)
class LatencyStep:
    """One detected step in a latency-delta series."""

    index: int
    step_ns: float
    mean_before_ns: float
    mean_after_ns: float


def _best_split(x: np.ndarray) -> tuple[int, float]:
    """(split index, |standardized mean gap|) of the best cut of ``x``.

    The statistic is the two-sample z-like score
    ``|mean_right − mean_left| / (s · sqrt(1/n_l + 1/n_r))`` evaluated at
    every cut in one vectorized pass via prefix sums.
    """
    n = x.shape[0]
    if n < 4:
        return 0, 0.0
    csum = np.cumsum(x)
    total = csum[-1]
    k = np.arange(1, n)  # left sizes
    mean_l = csum[:-1] / k
    mean_r = (total - csum[:-1]) / (n - k)
    # Pooled scale from a robust global estimate (MAD of the diffs keeps
    # the step itself from inflating the noise estimate).
    diffs = np.diff(x)
    scale = 1.4826 * np.median(np.abs(diffs - np.median(diffs))) / np.sqrt(2.0)
    scale = max(scale, 1e-9)
    z = np.abs(mean_r - mean_l) / (scale * np.sqrt(1.0 / k + 1.0 / (n - k)))
    # Guard the edges: a cut needs a few points on each side.
    z[:2] = 0.0
    z[-2:] = 0.0
    best = int(np.argmax(z))
    return best + 1, float(z[best])


def detect_series_steps(
    series: np.ndarray,
    *,
    min_step: float,
    z_threshold: float = 8.0,
    max_steps: int = 16,
) -> list[LatencyStep]:
    """Detect mean shifts in a series, in the series' own units.

    The segmentation is unit-agnostic.  On a per-packet Δl series (e.g.
    from :func:`repro.core.latency_deltas_ns`) it finds clock steps in
    nanoseconds; the live monitor
    (:class:`repro.analysis.streamkappa.KappaMonitor`) runs it over each
    session's windowed κ history to flag degradations.  A returned step
    with negative ``step_ns`` (read: "step size", in the series' units)
    is a downward shift of the series mean at ``index``.

    Parameters
    ----------
    series:
        The values, in order (packet order for Δl, window order for κ).
    min_step:
        Smallest interesting step; shifts below it are noise.
    z_threshold:
        Required standardized score for a split (8 is conservative at
        capture-scale n).
    max_steps:
        Recursion budget (clock faults produce few steps; a series asking
        for more is not step-shaped).
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if min_step <= 0 or z_threshold <= 0 or max_steps < 1:
        raise ValueError("thresholds must be positive")

    boundaries: list[int] = []
    segments = [(0, x.shape[0])]
    while segments and len(boundaries) < max_steps:
        lo, hi = segments.pop()
        split, z = _best_split(x[lo:hi])
        if z < z_threshold:
            continue
        g = lo + split
        step = float(x[g:hi].mean() - x[lo:g].mean())
        if abs(step) < min_step:
            continue
        boundaries.append(g)
        segments.append((lo, g))
        segments.append((g, hi))

    # Step sizes from the *final* segmentation: detection-time segments can
    # span other steps, contaminating the means.
    cuts = [0] + sorted(boundaries) + [x.shape[0]]
    seg_means = [float(x[a:b].mean()) for a, b in zip(cuts[:-1], cuts[1:])]
    steps = []
    for k, g in enumerate(sorted(boundaries)):
        before, after = seg_means[k], seg_means[k + 1]
        if abs(after - before) < min_step:
            continue  # a boundary that dissolved once its neighbours split
        steps.append(
            LatencyStep(
                index=g,
                step_ns=after - before,
                mean_before_ns=before,
                mean_after_ns=after,
            )
        )
    return steps
