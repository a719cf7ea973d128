"""The transparent middlebox: Choir's standby/record forwarding path.

Section 4: middleboxes sit on links between nodes and "forward traffic,
unmodified, at line rate"; at the user's instruction they record the
forwarded bursts (without copying) together with per-burst TSC stamps.

The forwarding model composes the substrate pieces:

1. ingress frames arrive on the wire (the feeding link already serialized
   them);
2. the poll loop groups waiting frames into ≤64-packet bursts
   (:mod:`repro.replay.burst`);
3. each burst is re-enqueued to the TX NIC one loop-iteration after its
   last frame arrived (the processing cost), and the TSC is read at the
   doorbell — that read becomes the recording's timestamp;
4. the TX NIC's DMA pull puts the burst on the wire
   (:class:`~repro.net.nicmodel.TxNicModel`).

The evaluation tags packets at the replayer (Section 6: "the packets were
stamped with unique 16-byte tags in the replayer"); tagging is the
caller's job via :func:`repro.net.pktarray.make_tags` so the middlebox
stays payload-transparent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.nicmodel import TxNicModel
from ..net.pktarray import PacketArray
from ..net.queueing import fifo_departures
from ..timing.tsc import TSC
from .burst import PollLoopCost, _poll_loop_bursts
from .recording import MIN_BUFFER_BYTES, Recording

__all__ = ["TransparentMiddlebox", "ForwardResult"]


@dataclass(frozen=True)
class ForwardResult:
    """Output of one forwarding pass."""

    egress: PacketArray
    recording: Recording | None


@dataclass(frozen=True)
class TransparentMiddlebox:
    """A Choir node in standby/record mode.

    Parameters
    ----------
    tx_nic:
        The bridged egress NIC model.
    tsc:
        The node's time stamp counter.
    loop_cost:
        Forwarding-loop cost model driving burstification.
    buffer_bytes:
        Replay buffer RAM budget (recording capacity).
    """

    tx_nic: TxNicModel
    tsc: TSC = field(default_factory=TSC)
    loop_cost: PollLoopCost = field(default_factory=PollLoopCost)
    buffer_bytes: int = MIN_BUFFER_BYTES

    def forward(
        self,
        ingress: PacketArray,
        rng: np.random.Generator,
        *,
        record: bool = False,
        meta: dict | None = None,
    ) -> ForwardResult:
        """Forward an ingress stream; optionally record it for replay.

        Returns the egress wire-time batch and, when recording, the
        :class:`Recording` whose TSC stamps reflect the actual doorbell
        times of this forwarding pass.
        """
        if len(ingress) == 0:
            return ForwardResult(ingress, None)

        starts, sizes = _poll_loop_bursts(ingress.times_ns, self.loop_cost)
        burst_ids = np.repeat(np.arange(starts.shape[0], dtype=np.int64), sizes)
        # A burst's doorbell rings after its processing cost, and the
        # single-threaded loop serializes bursts — the FIFO recurrence.
        cost = (
            self.loop_cost.iteration_ns
            + self.loop_cost.per_packet_ns * sizes
        )
        doorbell = fifo_departures(ingress.times_ns[starts + sizes - 1], cost)
        # Per-packet software enqueue time = its burst's doorbell.
        notify = doorbell[burst_ids]

        wire = self.tx_nic.transmit(notify, ingress.sizes, burst_ids, rng)
        egress = ingress.with_times(wire)

        recording = None
        if record:
            recording = Recording.capture(
                packets=ingress.with_times(notify),
                burst_ids=burst_ids,
                tx_times_ns=notify,
                tsc=self.tsc,
                buffer_bytes=self.buffer_bytes,
                meta=dict(meta or {}),
            )
        return ForwardResult(egress, recording)
