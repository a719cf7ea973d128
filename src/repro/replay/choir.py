"""The Choir node facade: record and replay.

Ties the middlebox (forward/record path), the replay engine, and the
node's clock offset together as the paper describes a node: it forwards
as an invisible transparent middlebox, records on command without
leaving the datapath, and later replays the recording at a scheduled
instant of its own clock.  One :class:`ChoirNode` corresponds to one
replayer VM/host in the evaluation topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.nicmodel import TxNicModel
from ..net.pktarray import PacketArray
from ..timing.tsc import TSC
from .burst import PollLoopCost
from .middlebox import TransparentMiddlebox
from .recording import MIN_BUFFER_BYTES, Recording
from .replayer import Replayer, ReplayOutcome, ReplayTimingModel

__all__ = ["ChoirNode"]


@dataclass
class ChoirNode:
    """One Choir instance: a transparent middlebox that can record & replay.

    Parameters
    ----------
    name:
        Node name in the topology.
    tx_nic:
        Egress NIC model (one of the two bridged interfaces).
    loop_cost:
        Forwarding/replay loop cost model.
    timing:
        Replay-scheduling imperfection model for this node's environment.
    tsc:
        The node's cycle counter.
    buffer_bytes:
        Replay buffer budget (Section 5: ≥ 1 GB).

    :attr:`clock_offset_ns` is the node's clock minus true time, set for
    each run from :meth:`repro.timing.ptp.PTPDomain.synchronize_all`.
    """

    name: str
    tx_nic: TxNicModel
    loop_cost: PollLoopCost = field(default_factory=PollLoopCost)
    #: The replay loop does strictly less work than the forwarding/record
    #: loop (no RX polling, no record bookkeeping — a TSC spin and a TX
    #: enqueue), so it runs well under the recorded inter-burst spacing;
    #: this headroom is what lets the replay track the recorded schedule.
    replay_loop_cost: PollLoopCost | None = None
    timing: ReplayTimingModel = field(default_factory=ReplayTimingModel)
    tsc: TSC = field(default_factory=TSC)
    buffer_bytes: int = MIN_BUFFER_BYTES
    recording: Recording | None = None
    clock_offset_ns: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self._middlebox = TransparentMiddlebox(
            tx_nic=self.tx_nic,
            tsc=self.tsc,
            loop_cost=self.loop_cost,
            buffer_bytes=self.buffer_bytes,
        )
        if self.replay_loop_cost is None:
            # A tuned replay loop: a TSC read, a compare, a tx_burst post.
            # Cheap enough to track 100 Gbps recordings even when the
            # arrival process produced small bursts.
            self.replay_loop_cost = PollLoopCost(iteration_ns=150.0, per_packet_ns=12.0)
        self._replayer = Replayer(
            tx_nic=self.tx_nic, loop_cost=self.replay_loop_cost, timing=self.timing
        )

    # ------------------------------------------------------------------
    def record(
        self, ingress: PacketArray, rng: np.random.Generator
    ) -> tuple[PacketArray, Recording]:
        """Forward *and* record an ingress stream; stores the recording.

        The node remains transparent while recording (Section 4); the
        egress stream is identical in timing to plain forwarding.
        """
        result = self._middlebox.forward(
            ingress, rng, record=True, meta={"node": self.name}
        )
        assert result.recording is not None
        self.recording = result.recording
        return result.egress, result.recording

    def replay(
        self, scheduled_start_ns: float, rng: np.random.Generator
    ) -> ReplayOutcome:
        """Replay the stored recording at a scheduled instant.

        The scheduled instant is interpreted on the node's *own clock*:
        the clock offset (the PTP residual of this sync epoch) shifts the
        achieved start in true time, which is the cross-replayer
        synchronization mechanism the dual-replayer evaluation exercises.
        """
        if self.recording is None:
            raise RuntimeError(f"{self.name}: no recording armed for replay")
        # The node starts when its own clock shows the scheduled value; a
        # clock running clock_offset_ns fast reaches it that much early.
        true_start = float(scheduled_start_ns) - self.clock_offset_ns
        return self._replayer.replay(self.recording, true_start, rng)

    @property
    def sustainable_pps_at_full_burst(self) -> float:
        """Loop throughput ceiling at the 64-packet burst size."""
        return self._replayer.sustainable_pps(64.0)
