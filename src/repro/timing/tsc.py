"""Time Stamp Counter (TSC) model.

Choir records and schedules replays with the CPU's TSC because it is the
cheapest monotone time source available to a busy-polling DPDK thread
(Section 4).  The properties that matter to the replayer — and that this
model captures — are:

* the counter ticks at a fixed nominal frequency (a *constant/invariant*
  TSC, which the paper notes FABRIC nodes provide), so cycle counts
  convert to nanoseconds at that frequency;
* reads are integer cycle counts, so converting a wall-clock replay start
  time into a cycle target quantizes to the cycle period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TSC"]


@dataclass(frozen=True)
class TSC:
    """A per-core time stamp counter.

    Parameters
    ----------
    frequency_hz:
        Nominal tick rate.  FABRIC VM hosts and the local testbed in the
        paper run in the low-GHz range; the default matches a common
        2.4 GHz part.
    """

    frequency_hz: float = 2.4e9

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")

    @property
    def period_ns(self) -> float:
        """Nanoseconds per tick."""
        return 1e9 / self.frequency_hz

    def read(self, true_time_ns):
        """Cycle count at a true time (scalar or array) since counter zero."""
        return self.ns_to_cycles(true_time_ns)

    def cycles_to_ns(self, cycles):
        """Convert cycle counts to nanoseconds at the nominal frequency."""
        return np.multiply(cycles, 1e9 / self.frequency_hz)

    def ns_to_cycles(self, ns):
        """Convert a nanosecond duration to a whole number of cycles."""
        cycles = np.floor(np.multiply(ns, self.frequency_hz / 1e9))
        return cycles.astype(np.int64) if isinstance(cycles, np.ndarray) else np.int64(cycles)

    def quantize_ns(self, ns):
        """Round a time down to the TSC tick grid (scheduling resolution)."""
        return self.cycles_to_ns(self.ns_to_cycles(ns))
