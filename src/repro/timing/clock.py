"""System clock model: offset, frequency error, and wander.

Every node in the simulated testbed owns a :class:`SystemClock` that maps
*true* simulation time to the time that node believes it is.  The three
standard imperfections are modeled:

* a fixed **offset** left over from the last synchronization;
* a **frequency error** (drift) in parts-per-million, as crystal
  oscillators exhibit;
* **wander** — a slow random walk of the frequency error caused by
  temperature and load, realized as an integrated Gaussian process.

PTP (see :mod:`repro.timing.ptp`) disciplines a clock by re-estimating
and cancelling the offset, leaving a residual error characteristic of the
protocol and transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SystemClock"]


@dataclass
class SystemClock:
    """A drifting, wandering system clock.

    Parameters
    ----------
    offset_ns:
        Current clock-minus-true-time offset.
    drift_ppm:
        Fixed frequency error in parts per million.  +10 ppm gains 10 µs
        per second of true time.
    wander_ppm:
        Standard deviation of the random-walk component of the frequency
        error, applied per :attr:`wander_step_ns` of true time.  Zero gives
        a deterministic clock.
    wander_step_ns:
        Resolution of the wander process; one Gaussian increment of the
        frequency random walk is drawn per step.
    rng:
        Random source for the wander process.  Required when
        ``wander_ppm > 0``.
    """

    offset_ns: float = 0.0
    drift_ppm: float = 0.0
    wander_ppm: float = 0.0
    wander_step_ns: float = 1e6  # 1 ms
    rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.wander_step_ns <= 0:
            raise ValueError("wander_step_ns must be positive")
        if self.wander_ppm < 0:
            raise ValueError("wander_ppm must be non-negative")
        if self.wander_ppm > 0 and self.rng is None:
            raise ValueError("wander requires an rng")

    def reading_ns(self, true_ns):
        """Clock reading(s) for true time(s), vectorized.

        For array input the wander realization is drawn once across the
        spanned interval so that readings within one call are mutually
        consistent (the same clock trajectory), which is what per-trial
        timestamping needs.
        """
        t = np.asarray(true_ns, dtype=np.float64)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = t + self.offset_ns + t * (self.drift_ppm * 1e-6)
        if self.wander_ppm > 0 and t.size:
            out = out + self._wander_component(t)
        return float(out[0]) if scalar else out

    def _wander_component(self, t: np.ndarray) -> np.ndarray:
        """Integrated frequency random walk evaluated at times ``t``.

        The frequency error follows a random walk with per-step std
        ``wander_ppm``; integrating it gives the phase error.  The walk is
        realized on a uniform grid covering [min(t), max(t)] and linearly
        interpolated onto ``t``.
        """
        t0, t1 = float(t.min()), float(t.max())
        n_steps = max(2, int(np.ceil((t1 - t0) / self.wander_step_ns)) + 1)
        grid = np.linspace(t0, t1, n_steps)
        dt = (t1 - t0) / (n_steps - 1) if n_steps > 1 else 0.0
        freq_walk = np.cumsum(self.rng.normal(0.0, self.wander_ppm * 1e-6, n_steps))
        phase = np.concatenate([[0.0], np.cumsum(freq_walk[:-1] * dt)])
        return np.interp(t, grid, phase)

    def set_offset(self, offset_ns: float) -> None:
        """Step the clock (what a synchronization protocol does)."""
        self.offset_ns = float(offset_ns)

    def error_at(self, true_ns: float) -> float:
        """Clock-minus-true error at one instant (diagnostics)."""
        return float(self.reading_ns(true_ns)) - float(true_ns)
