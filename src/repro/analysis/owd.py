"""One-way delay analysis: recording TX stamps vs capture RX stamps.

A Choir node's recording stores per-burst TSC transmit times; the
recorder's capture stores per-packet receive times.  On a PTP-disciplined
deployment (the paper's setting) both sides share an epoch to within the
sync residual, so joining them per packet yields the one-way-delay (OWD)
series — the measurement that separates *path* effects (queueing: OWD
grows) from *clock* effects (sync steps: OWD jumps but packets still
flow) and from *scheduling* effects (bursts leaving late: OWD spikes
burst-aligned).

Note the systematic offsets: the recorded "tx time" is the doorbell
(software enqueue), so OWD includes the NIC DMA pull; and any PTP
residual shifts the whole series.  Absolute OWD therefore carries an
offset, but its *structure over time* — trends, steps, burst alignment —
is exactly what a debugger needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.matching import BaselineIndex
from ..core.trial import Trial
from ..replay.recording import Recording

__all__ = ["OwdSeries", "owd_series"]


@dataclass(frozen=True)
class OwdSeries:
    """One-way delays of the packets common to a recording and a capture."""

    tags: np.ndarray
    tx_ns: np.ndarray
    rx_ns: np.ndarray

    def __post_init__(self) -> None:
        if not (self.tags.shape == self.tx_ns.shape == self.rx_ns.shape):
            raise ValueError("series arrays must share one shape")

    @property
    def delays_ns(self) -> np.ndarray:
        """Per-packet one-way delay (includes the systematic offsets)."""
        return self.rx_ns - self.tx_ns

    @property
    def n_packets(self) -> int:
        return int(self.tags.shape[0])

    def summary(self) -> dict:
        """Percentile summary of the delay distribution."""
        d = self.delays_ns
        if d.size == 0:
            return {"n": 0}
        return {
            "n": int(d.size),
            "min_ns": float(d.min()),
            "p50_ns": float(np.percentile(d, 50)),
            "p99_ns": float(np.percentile(d, 99)),
            "max_ns": float(d.max()),
            "spread_ns": float(d.max() - d.min()),
        }

    def trend_ppm(self) -> float:
        """Linear drift of OWD over the capture, in parts per million.

        A non-zero trend means the two clocks run at different rates (or
        a queue is steadily filling); least squares over tx time.
        """
        if self.n_packets < 2:
            return 0.0
        x = self.tx_ns - self.tx_ns[0]
        slope = np.polyfit(x, self.delays_ns, 1)[0]
        return float(slope * 1e6)


def owd_series(recording: Recording, capture: Trial) -> OwdSeries:
    """Join a recording's TX times with a capture's RX times per packet.

    Packets are paired by ``(tag, occurrence)`` as in Section 3: the k-th
    capture packet with a tag is the k-th recorded one.  Packets missing
    from the capture (drops) are simply absent from the series; order
    follows the recording (send order).
    """
    rec_tags = recording.packets.tags
    inv = np.full(rec_tags.shape[0], -1, dtype=np.intp)
    BaselineIndex(rec_tags).claim(capture.tags, inv)
    rec_idx = np.flatnonzero(inv >= 0)
    return OwdSeries(
        tags=rec_tags[rec_idx],
        tx_ns=recording.packets.times_ns[rec_idx].astype(np.float64),
        rx_ns=capture.times_ns[inv[rec_idx]].astype(np.float64),
    )
