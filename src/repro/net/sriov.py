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

The model merges foreground and background frame streams by ready time
and serves the merged stream through the physical port's exact FIFO;
only the foreground departures are returned.  With a finite VF queue
(the drop regime) the merged stream goes through one tail-drop ring of
``2 × vf_queue_packets`` slots, and that ring can drop frames of either
stream: a dropped background frame takes no wire time.  Only foreground
drops are counted.

Only the foreground is measured, so the port queues only the background
that can reach it (the *window*), and the result is bit-identical to
queueing all of it:

* background frames ordered after the last foreground frame (ready at or
  after it: the foreground wins ties) are left out.  A FIFO arrival never
  changes an earlier arrival's admission or departure, and the prefixes
  of the closed form's ``cumsum`` and ``maximum.accumulate`` do not depend
  on later elements;
* with a finite VF ring, the background before the last arrival, up to
  and including the first foreground frame, that finds the drop-free
  queue empty (:func:`~repro.net.queueing.last_idle_arrival`) is left out
  too.  Drops only lower departures, so the ring is empty at that arrival
  under every drop pattern, and from it on the queue makes the same
  additions in the same order.  The infinite ring keeps that background:
  its unverified closed form rounds according to where its ``cumsum``
  starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pktarray import PacketArray
from .queueing import fifo_departures, fifo_tail_drop, last_idle_arrival
from .units import wire_time_ns

__all__ = ["SharedPort", "SharedPortResult"]


@dataclass(frozen=True)
class SharedPortResult:
    """Foreground outcome of traversing a shared port."""

    batch: PacketArray
    n_dropped: int


@dataclass(frozen=True)
class SharedPort:
    """One physical port multiplexing a foreground VF with background traffic.

    :meth:`traverse` merges only what the queue reads: the background is
    first cut to the window that can reach the foreground (see the module
    docstring).  Each stream's wire times are computed before the merge;
    one stable argsort of the concatenated ready times orders both streams
    (the foreground first on ties), and only the ready and wire times are
    gathered.  The merged stream is served by
    :func:`~repro.net.queueing.fifo_departures`, or with a finite VF ring
    by :func:`~repro.net.queueing.fifo_tail_drop` (looked up through the
    name this module imports, so that a tracer or a test can replace it
    here).  The foreground's kept tags and sizes and its departure times
    make one validated :class:`PacketArray`; no merged batch is built.

    Parameters
    ----------
    rate_bps:
        Physical port line rate.
    vf_queue_packets:
        VF ring capacity; ``None`` means effectively infinite (the
        uncontended regimes, where the closed-form FIFO applies).  With
        background traffic the merged stream shares one ring of twice
        this many slots.
    """

    rate_bps: float
    vf_queue_packets: int | None = None

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

        Accepted background frames take wire time but are left out of the
        output; only the foreground batch's departure times are returned.
        Background that cannot change a foreground frame's admission or
        departure is cut away before any wire time, merge or queue run:
        the frames ready at or after the last foreground frame, and with a
        finite ring those before the last arrival, up to the first
        foreground frame, that finds the drop-free queue empty.  The
        output is bit-identical to queueing the whole background.

        Raises
        ------
        ValueError
            With a non-empty background, if any ready time of either
            stream is non-finite, the cut-away part included.
        """
        fg_service = wire_time_ns(foreground.sizes, self.rate_bps)
        if background is None or len(background) == 0:
            times = fifo_departures(foreground.times_ns, fg_service)
            return SharedPortResult(foreground.with_times(times), 0)

        fg_times, bg_times = foreground.times_ns, background.times_ns
        if not (np.isfinite(fg_times).all() and np.isfinite(bg_times).all()):
            raise ValueError("ready_ns must be finite")
        # The window: drop what comes after the last foreground frame, and
        # with a finite ring what comes before the queue last went idle.
        hi = int(np.searchsorted(bg_times, fg_times[-1])) if len(fg_times) else 0
        bg_service = wire_time_ns(background.sizes[:hi], self.rate_bps)
        lo = 0
        if self.vf_queue_packets is not None and len(fg_times):
            p = int(np.searchsorted(bg_times[:hi], fg_times[0]))
            lo = last_idle_arrival(bg_times[:p], bg_service[:p], fg_times[0])

        times = np.concatenate([fg_times, bg_times[lo:hi]])
        order = np.argsort(times, kind="stable")
        ready = times[order]
        service = np.concatenate([fg_service, bg_service[lo:]])[order]
        fg_mask = order < len(foreground)

        if self.vf_queue_packets is None:
            done = fifo_departures(ready, service)
            return SharedPortResult(foreground.with_times(done[fg_mask]), 0)

        # Finite VF ring: exact tail drop over the merged stream in one
        # ring of 2 × vf_queue_packets slots.  Frames of either stream can
        # be dropped; only the foreground's are counted.
        result = fifo_tail_drop(ready, service, 2 * self.vf_queue_packets)
        kept = result.accepted[fg_mask]
        # Departure times of accepted packets, filtered to foreground.
        fg_done = result.done_ns[fg_mask[result.accepted]]
        out = PacketArray(
            foreground.tags[kept], foreground.sizes[kept], fg_done,
            meta=dict(foreground.meta),
        )
        return SharedPortResult(out, len(foreground) - len(out))
