"""Delta histograms backing the paper's figures.

Figures 4-10 plot "the percentage of packets with a given IAT [latency]
delta" against a symmetric axis spanning several orders of magnitude in
nanoseconds.  :class:`DeltaHistogram` reproduces those series with a
symmetric-log binning: a linear bin around zero (|Δ| ≤ ``linthresh``) and
logarithmically spaced bins outward on both signs.  Bin edges are fixed by
the configuration — not by the data — so histograms from different runs
and environments are directly comparable, as in the paper's side-by-side
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SymlogBins", "DeltaHistogram", "pct_within", "pct_within_from_counts"]


def pct_within_from_counts(n_within: int, n_total: int) -> float:
    """The ``pct_within`` statistic from precomputed counts.

    Routing every path that counts (the per-component and the fused
    kernel) through this one division keeps them bit-identical.
    """
    if n_total == 0:
        return 0.0
    return float(n_within) / n_total * 100.0


def pct_within(deltas_ns: np.ndarray, bound_ns: float = 10.0) -> float:
    """Percentage of deltas with ``|Δ| ≤ bound_ns``.

    This is the headline "% of packets within 10 ns IAT of the baseline
    run" statistic quoted throughout Sections 6 and 7.
    """
    deltas_ns = np.asarray(deltas_ns, dtype=np.float64)
    n_within = int(np.count_nonzero(np.abs(deltas_ns) <= bound_ns))
    return pct_within_from_counts(n_within, deltas_ns.size)


@dataclass(frozen=True)
class SymlogBins:
    """Symmetric-log bin edges shared across comparable histograms.

    Edges run ``-10^max_decade ... -linthresh, +linthresh ... +10^max_decade``
    with ``bins_per_decade`` log-spaced bins per decade per sign, plus one
    central linear bin for ``|Δ| ≤ linthresh``, plus two open-ended overflow
    bins capturing anything beyond ``±10^max_decade``.
    """

    linthresh: float = 10.0
    max_decade: int = 9
    bins_per_decade: int = 4

    def __post_init__(self) -> None:
        if self.linthresh <= 0:
            raise ValueError("linthresh must be positive")
        if 10.0**self.max_decade <= self.linthresh:
            raise ValueError("max_decade must exceed log10(linthresh)")
        if self.bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")

    def _n_log(self) -> int:
        """Log-spaced bins per sign."""
        lo = np.log10(self.linthresh)
        return int(np.ceil((self.max_decade - lo) * self.bins_per_decade))

    @property
    def n_bins(self) -> int:
        """Number of bins, ``edges().size - 1``, without building the edges."""
        return 2 * self._n_log() + 3

    def edges(self) -> np.ndarray:
        """Monotone bin edges including ±inf overflow edges."""
        lo = np.log10(self.linthresh)
        pos = np.logspace(lo, self.max_decade, self._n_log() + 1)
        return np.concatenate([[-np.inf], -pos[::-1], pos, [np.inf]])

    def centers(self) -> np.ndarray:
        """Representative bin centers (geometric means; 0 for the linear bin).

        Overflow bins take the finite edge as their representative value.
        """
        e = self.edges()
        finite = e[1:-1]
        mids = np.sign(finite[:-1]) * np.sqrt(np.abs(finite[:-1] * finite[1:]))
        # The central bin spans [-linthresh, +linthresh]: its center is 0.
        zero_bin = np.flatnonzero((finite[:-1] < 0) & (finite[1:] > 0))
        mids[zero_bin] = 0.0
        return np.concatenate([[finite[0]], mids, [finite[-1]]])


@dataclass(frozen=True)
class DeltaHistogram:
    """A per-run delta histogram in percent-of-packets, as in the figures."""

    bins: SymlogBins
    counts: np.ndarray
    n_total: int
    label: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_deltas(
        cls,
        deltas_ns: np.ndarray,
        bins: SymlogBins | None = None,
        label: str = "",
        meta: dict | None = None,
    ) -> "DeltaHistogram":
        """Histogram an array of signed deltas (ns) into the shared bins."""
        bins = bins if bins is not None else SymlogBins()
        deltas_ns = np.asarray(deltas_ns, dtype=np.float64)
        counts, _ = np.histogram(deltas_ns, bins=bins.edges())
        return cls(
            bins=bins,
            counts=counts.astype(np.int64),
            n_total=int(deltas_ns.size),
            label=label,
            meta=dict(meta or {}),
        )

    @classmethod
    def from_counts(
        cls,
        counts: np.ndarray,
        n_total: int,
        bins: SymlogBins | None = None,
        label: str = "",
        meta: dict | None = None,
    ) -> "DeltaHistogram":
        """Histogram from precomputed per-bin counts.

        Binning is elementwise, so counts taken in one fused pass equal
        the counts :meth:`from_deltas` computes on the whole array; the
        fused kernel builds its histograms through this constructor.
        """
        bins = bins if bins is not None else SymlogBins()
        counts = np.asarray(counts)
        if counts.shape != (bins.n_bins,):
            raise ValueError("counts do not match the bin layout")
        return cls(
            bins=bins,
            counts=counts.astype(np.int64),
            n_total=int(n_total),
            label=label,
            meta=dict(meta or {}),
        )

    @property
    def percent(self) -> np.ndarray:
        """Counts as percentages of all packets (the figures' y-axis)."""
        if self.n_total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / self.n_total * 100.0

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """The figure series: (bin centers in ns, percent of packets)."""
        return self.bins.centers(), self.percent

    def nonzero_rows(self) -> list[tuple[float, float]]:
        """(center, percent) pairs for non-empty bins — compact printing."""
        centers, pct = self.series()
        idx = np.flatnonzero(self.counts)
        return [(float(centers[i]), float(pct[i])) for i in idx]
