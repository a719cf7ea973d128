"""Point-to-point link model: serialization plus propagation.

A link serializes frames at its line rate (a FIFO whose service time is
the frame's wire time) and then delays them by a fixed propagation time.
Links are the composition unit of every path in the simulated testbeds;
they are stateless and vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pktarray import PacketArray
from .queueing import fifo_departures
from .units import wire_time_ns

__all__ = ["Link"]


@dataclass(frozen=True)
class Link:
    """A unidirectional link.

    Parameters
    ----------
    rate_bps:
        Line rate in bits/second.
    propagation_ns:
        One-way propagation delay (cable length + PHY latency).

    Frames serialize at their size alone, with no preamble or IFG bytes,
    which matches the paper's packet-rate arithmetic.
    """

    rate_bps: float
    propagation_ns: float = 50.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.propagation_ns < 0:
            raise ValueError("propagation_ns must be non-negative")

    def serialization_ns(self, sizes_bytes) -> np.ndarray:
        """Wire time of each frame at this link's rate."""
        return wire_time_ns(sizes_bytes, self.rate_bps)

    def traverse_times(self, ready_ns: np.ndarray, sizes_bytes: np.ndarray) -> np.ndarray:
        """Arrival times at the far end for frames ready at ``ready_ns``.

        A frame "arrives" when its last bit does (store-and-forward
        convention), i.e. serialization completion plus propagation.
        """
        service = self.serialization_ns(sizes_bytes)
        return fifo_departures(ready_ns, service) + self.propagation_ns

    def traverse(self, batch: PacketArray) -> PacketArray:
        """Pipeline-stage form of :meth:`traverse_times`."""
        return batch.with_times(self.traverse_times(batch.times_ns, batch.sizes))
