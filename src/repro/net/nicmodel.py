"""NIC model: the TX DMA-pull path.

Section 2.3 describes the transmit behaviour that bounds every DPDK
replayer's timing accuracy: software posts packets to the ring and rings a
doorbell, but the NIC *pulls* them by DMA "at a future time".  The TX
model therefore has three parts:

1. a per-doorbell **pull latency** (PCIe round trip + scheduling), drawn
   lognormal so the tail is one-sided like real DMA latencies;
2. the line-rate **serializer** (a FIFO over the pulled frames);
3. optional **pull batching**: the engine fetches up to a descriptor-burst
   worth of frames per transaction, so frames in one pull leave
   back-to-back regardless of their software spacing — this is what makes
   intra-burst IATs highly repeatable (the ±10 ns cluster in the figures)
   while inter-burst gaps carry the jitter.

The receive side is the recorder's
:class:`~repro.timing.hwstamp.RxTimestamper`, which the testbed calls
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .queueing import fifo_departures
from .units import wire_time_ns

__all__ = ["TxNicModel"]


@dataclass(frozen=True)
class TxNicModel:
    """Transmit path of a NIC.

    Parameters
    ----------
    rate_bps:
        Port line rate.
    pull_delay_ns:
        Median DMA pull latency after a doorbell.
    pull_jitter:
        Lognormal sigma of the pull latency (dimensionless; 0 disables).
    overhead_bytes:
        Per-frame on-wire overhead for serialization accounting.
    """

    rate_bps: float
    pull_delay_ns: float = 600.0
    pull_jitter: float = 0.25
    overhead_bytes: int = 0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.pull_delay_ns < 0:
            raise ValueError("pull_delay_ns must be non-negative")
        if self.pull_jitter < 0:
            raise ValueError("pull_jitter must be non-negative")

    def _pull_delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.pull_delay_ns == 0:
            return np.zeros(n)
        if self.pull_jitter == 0:
            return np.full(n, self.pull_delay_ns)
        return self.pull_delay_ns * rng.lognormal(0.0, self.pull_jitter, n)

    def transmit(
        self,
        notify_times_ns: np.ndarray,
        sizes_bytes: np.ndarray,
        burst_ids: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Wire departure times for packets posted in doorbell bursts.

        Parameters
        ----------
        notify_times_ns:
            Per-packet time the software posted it (non-decreasing).  Only
            the **last** notify of each burst matters: the doorbell rings
            once per burst, after the burst is fully posted.
        sizes_bytes:
            Frame sizes.
        burst_ids:
            Per-packet doorbell-burst index, non-decreasing, contiguous.
        rng:
            Randomness source for pull latencies.
        """
        notify = np.asarray(notify_times_ns, dtype=np.float64)
        sizes = np.asarray(sizes_bytes)
        bids = np.asarray(burst_ids, dtype=np.int64)
        n = notify.shape[0]
        if sizes.shape[0] != n or bids.shape[0] != n:
            raise ValueError("per-packet arrays must have equal length")
        if n == 0:
            return np.empty(0)
        if np.any(np.diff(bids) < 0):
            raise ValueError("burst_ids must be non-decreasing")

        # Last notify per burst = doorbell time.  Bursts are contiguous
        # runs, so the run-end positions index the doorbell notifies.
        run_end = np.flatnonzero(np.diff(np.append(bids, bids[-1] + 1)))
        doorbell = notify[run_end]
        n_bursts = run_end.shape[0]
        pull_time = doorbell + self._pull_delays(n_bursts, rng)
        # The DMA engine itself serves doorbells in order: a pull cannot
        # complete before the previous burst's pull completed.
        pull_time = np.maximum.accumulate(pull_time)

        # Map burst pull times back to packets, then serialize at line rate.
        burst_index = np.cumsum(np.append(0, np.diff(bids) != 0))
        ready = pull_time[burst_index]
        service = wire_time_ns(sizes, self.rate_bps, overhead_bytes=self.overhead_bytes)
        return fifo_departures(ready, service)
