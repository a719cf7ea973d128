"""SR-IOV shared-NIC model: virtual functions contending for one port.

Most FABRIC NICs are "100 Gbps SR-IOV Virtual Functions shared NIC"
(Section 9): several tenants' VFs multiplex onto one physical port.  The
consequences the paper measures are:

* under light background load the VF behaves almost like the physical
  port ("the shared NIC could use all the bandwidth of the physical
  hardware", Section 8.1);
* under heavy co-tenant load, foreground frames are delayed by the
  interleaved background frames' wire time, IAT consistency collapses by
  an order of magnitude, and the finite VF queue produces the paper's
  first observed **drops** (Section 7.1).

The model merges foreground and background frame streams by ready time,
serves the merged stream through the physical port's exact FIFO, and
extracts the foreground departures.  Finite VF queueing (for the drop
regime) applies tail drop on the foreground stream only, approximating a
per-VF ring in front of the shared scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pktarray import PacketArray
from .queueing import fifo_departures, fifo_tail_drop
from .units import wire_time_ns

__all__ = ["SharedPort", "SharedPortResult"]


@dataclass(frozen=True)
class SharedPortResult:
    """Foreground outcome of traversing a shared port."""

    batch: PacketArray
    n_dropped: int
    background_load: float


@dataclass(frozen=True)
class SharedPort:
    """One physical port multiplexing a foreground VF with background traffic.

    :meth:`traverse` merges only what the queue reads.  Each stream's wire
    times are computed before the merge; one stable argsort of the
    concatenated ready times orders both streams (the foreground first on
    ties), and only the ready and wire times are gathered.  The merged
    stream is served by :func:`~repro.net.queueing.fifo_departures`, or
    with a finite VF ring by :func:`~repro.net.queueing.fifo_tail_drop`
    (looked up through the name this module imports, so that a tracer or
    a test can replace it here).  The foreground's
    kept tags and sizes and its departure times make one validated
    :class:`PacketArray`; no merged batch is built.

    Parameters
    ----------
    rate_bps:
        Physical port line rate.
    vf_queue_packets:
        Foreground VF ring capacity; ``None`` means effectively infinite
        (the uncontended regimes, where the closed-form FIFO applies).
    overhead_bytes:
        Per-frame wire overhead.
    """

    rate_bps: float
    vf_queue_packets: int | None = None
    overhead_bytes: int = 0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.vf_queue_packets is not None and self.vf_queue_packets < 1:
            raise ValueError("vf_queue_packets must be >= 1 when set")

    def traverse(
        self,
        foreground: PacketArray,
        background: PacketArray | None = None,
    ) -> SharedPortResult:
        """Serve foreground (and optional background) frames through the port.

        Background frames consume wire time but are discarded from the
        output; only the foreground batch's departure times are returned.
        """
        fg_service = self._service(foreground.sizes)
        if background is None or len(background) == 0:
            times = fifo_departures(foreground.times_ns, fg_service)
            return SharedPortResult(foreground.with_times(times), 0, 0.0)

        bg_service = self._service(background.sizes)
        bg_load = self._bg_load(background, bg_service)
        times = np.concatenate([foreground.times_ns, background.times_ns])
        order = np.argsort(times, kind="stable")
        ready = times[order]
        service = np.concatenate([fg_service, bg_service])[order]
        fg_mask = order < len(foreground)

        if self.vf_queue_packets is None:
            done = fifo_departures(ready, service)
            return SharedPortResult(foreground.with_times(done[fg_mask]), 0, bg_load)

        # Finite VF ring: exact tail-drop semantics over the merged stream,
        # but only foreground packets can be dropped — the background
        # tenants have their own rings, modeled as always-accepted load.
        result = fifo_tail_drop(ready, service, self.vf_queue_packets + self._bg_allowance(background))
        kept = result.accepted[fg_mask]
        # Departure times of accepted packets, filtered to foreground.
        fg_done = result.done_ns[fg_mask[result.accepted]]
        out = PacketArray(
            foreground.tags[kept], foreground.sizes[kept], fg_done,
            meta=dict(foreground.meta),
        )
        return SharedPortResult(out, len(foreground) - len(out), bg_load)

    def _service(self, sizes: np.ndarray) -> np.ndarray:
        return wire_time_ns(sizes, self.rate_bps, overhead_bytes=self.overhead_bytes)

    @staticmethod
    def _bg_load(background: PacketArray, bg_service: np.ndarray) -> float:
        if len(background) < 2:
            return 0.0
        span = float(background.times_ns[-1] - background.times_ns[0])
        if span <= 0:
            return np.inf
        return float(bg_service.sum()) / span

    def _bg_allowance(self, background: PacketArray) -> int:
        """Extra queue slots representing the background tenants' rings.

        The shared scheduler's queue holds everyone's in-flight frames;
        granting the background its proportional share keeps the
        foreground's effective ring at ``vf_queue_packets``.
        """
        if len(background) == 0:
            return 0
        return self.vf_queue_packets
