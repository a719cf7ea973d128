"""The fused serial timing kernel: one walk over the matched rows.

Before this module, :func:`repro.core.report.compare_trials` derived the
timing side of a pair from four separate passes — ``latency_deltas_ns``
and ``iat_deltas_ns`` once each for the L and I reductions, then *again*
for the two figure histograms, with ``Trial.iats_ns`` materializing a
full-trial gap array on every IAT call.  Each pass re-gathers the same
matched rows; at paper scale (~1M common packets) that is tens of
megabytes of redundant traffic through the allocator per pair.

:func:`fused_timings` walks the matched delta data once and produces
everything the timing side of a :class:`~repro.core.report.PairReport`
needs together: the signed latency and IAT delta arrays, both symlog
histograms, the ±``within_ns`` count, the L and I metrics, and (on
request) the per-window deviation series of :mod:`repro.core.windows`.

Exactness is inherited, not re-argued:

* the delta expressions are the identical IEEE-754 elementwise operations
  of :func:`~repro.core.latency.latency_deltas_ns` and
  :func:`~repro.core.iat.iat_deltas_ns` — each gap is taken against the
  packet's predecessor *in the full trial* (:meth:`Trial.iats_ns`), the
  form the differential suites pin;
* the final reductions are the canonical single-reduction functions every
  other path runs (:func:`~repro.core.latency.latency_from_deltas`,
  :func:`~repro.core.iat.iat_from_deltas`,
  :func:`~repro.core.histograms.pct_within_from_counts`,
  :func:`~repro.core.windows.deviation_from_deltas`), called on the same
  arrays in the same order.

``tests/test_fusedpass.py`` is the differential harness proving the fused
kernel bit-identical to the per-component functions — which all remain
exported, as the reference path.

Observability: the kernel is counted (``fused.pairs``) and its wall time
lands in the always-on ``fused.pair_ns`` log2 histogram, so ``--stats``
shows the fused-path distribution even on untraced runs; under
``--trace`` each invocation is the span ``analysis.fused.timings``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import metrics
from ..obs.trace import span
from .histograms import SymlogBins, pct_within_from_counts
from .iat import iat_denominator_ns, iat_from_deltas
from .latency import latency_from_deltas, latency_span_ns
from .matching import Matching
from .trial import Trial
from .windows import WindowedDeviation, deviation_from_deltas

__all__ = ["FusedTimings", "fused_timings"]


@dataclass(frozen=True)
class FusedTimings:
    """Everything the timing side of one pair report needs, in one pass.

    ``dlat``/``diat`` are the signed per-common-packet delta series in A
    order (the figure series); the counts are the symlog histogram bins
    over them; ``l``/``i`` are Equations 3 and 4; ``windows`` is the
    optional per-window deviation series (``None`` unless a ``window_ns``
    was requested).
    """

    n_common: int
    dlat: np.ndarray
    diat: np.ndarray
    lat_counts: np.ndarray
    iat_counts: np.ndarray
    iat_within: int
    l: float
    i: float
    pct_iat_within: float
    windows: WindowedDeviation | None = None


def fused_timings(
    baseline: Trial,
    run: Trial,
    m: Matching,
    bins: SymlogBins | None = None,
    within_ns: float = 10.0,
    window_ns: float | None = None,
) -> FusedTimings:
    """One pass over the matched rows: deltas, histograms, L, I, windows.

    ``m`` must be the pair's matching.  The deltas are gathered once and
    every downstream consumer reads the same two arrays; the reductions
    are the canonical shared functions, so the result is bit-identical to
    running the per-component functions separately.
    """
    bins = bins if bins is not None else SymlogBins()
    n = m.n_common
    metrics.counter("fused.pairs").add()
    t0 = time.perf_counter_ns()
    with span("analysis.fused.timings", n_common=n):
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            result = FusedTimings(
                n_common=0,
                dlat=empty,
                diat=empty,
                lat_counts=np.zeros(bins.n_bins, dtype=np.int64),
                iat_counts=np.zeros(bins.n_bins, dtype=np.int64),
                iat_within=0,
                l=0.0,
                i=0.0,
                pct_iat_within=0.0,
                windows=None,
            )
        else:
            times_a, times_b = baseline.times_ns, run.times_ns
            ja, jb = m.idx_a, m.idx_b

            # Identical elementwise expressions to latency_deltas_ns /
            # iat_deltas_ns: one contiguous gap diff per trial, then two
            # gathers.
            dlat = (times_b[jb] - times_b[0]) - (times_a[ja] - times_a[0])
            diat = run.iats_ns()[jb] - baseline.iats_ns()[ja]

            edges = bins.edges()
            lat_counts, _ = np.histogram(dlat, bins=edges)
            iat_counts, _ = np.histogram(diat, bins=edges)

            abs_diat = np.abs(diat)
            iat_within = int(np.count_nonzero(abs_diat <= within_ns))

            windows = None
            if window_ns is not None:
                windows = deviation_from_deltas(
                    baseline.relative_times_ns(), ja, np.abs(dlat), abs_diat,
                    window_ns,
                )

            result = FusedTimings(
                n_common=n,
                dlat=dlat,
                diat=diat,
                lat_counts=lat_counts.astype(np.int64),
                iat_counts=iat_counts.astype(np.int64),
                iat_within=iat_within,
                l=latency_from_deltas(dlat, n, latency_span_ns(baseline, run)),
                i=iat_from_deltas(diat, n, iat_denominator_ns(baseline, run)),
                pct_iat_within=pct_within_from_counts(iat_within, n),
                windows=windows,
            )
    metrics.histogram("fused.pair_ns").observe(time.perf_counter_ns() - t0)
    return result
