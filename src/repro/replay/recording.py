"""In-memory replay recordings.

Section 4: "A recording is made by holding forwarded packets in memory
after their transmission without making a copy. ... the recording also
stores the time of transmission through reading the Time Stamp Counter."

A :class:`Recording` therefore stores, per packet, the frame (tag + size —
the simulator never materializes payloads) and its doorbell burst, and per
burst, the TSC read taken at transmission.  The RAM budget is the only
capacity limit (Section 5): each held packet pins one mbuf, so a recording
is truncated — not spilled to disk — when the buffer fills.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.pktarray import PacketArray
from ..timing.tsc import TSC
from .burst import burst_bounds

__all__ = ["Recording", "MBUF_BYTES", "MIN_BUFFER_BYTES"]

#: DPDK default mbuf size (2 KiB data room + headroom/metadata).
MBUF_BYTES = 2048 + 128
#: Section 5: "the program can run with a minimum of 1 GB".
MIN_BUFFER_BYTES = 1 << 30


@dataclass(frozen=True)
class Recording:
    """A captured burst sequence ready for replay.

    Attributes
    ----------
    packets:
        The recorded frames; ``times_ns`` holds each packet's original
        transmission time on the recording node's clock (diagnostic — the
        replayer schedules off the per-burst TSC stamps, like the real
        tool).
    burst_ids:
        Per-packet doorbell burst index, non-decreasing.
    burst_tsc:
        Per-burst TSC cycle stamp taken at the original transmission.
    tsc:
        The TSC model the stamps were read from; replay needs its
        frequency to convert the schedule delta.
    truncated:
        True when the RAM budget cut the recording short.
    """

    packets: PacketArray
    burst_ids: np.ndarray
    burst_tsc: np.ndarray
    tsc: TSC
    truncated: bool = False
    meta: dict = field(default_factory=dict, compare=False)
    #: Packets per burst, derived once from ``burst_ids`` (read-only).
    _burst_sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bids = np.ascontiguousarray(self.burst_ids, dtype=np.int64)
        btsc = np.ascontiguousarray(self.burst_tsc, dtype=np.int64)
        if bids.shape[0] != len(self.packets):
            raise ValueError("burst_ids must have one entry per packet")
        steps = np.diff(bids)
        if np.any(steps < 0):
            raise ValueError("burst_ids must be non-decreasing")
        # Non-decreasing ids: each new burst starts at one nonzero step.
        if bids.size:
            edges = np.concatenate(([0], np.flatnonzero(steps) + 1, [bids.size]))
            sizes = np.diff(edges).astype(np.int64, copy=False)
        else:
            sizes = np.empty(0, dtype=np.int64)
        sizes.flags.writeable = False
        n_bursts = sizes.size
        if btsc.shape[0] != n_bursts:
            raise ValueError(
                f"burst_tsc has {btsc.shape[0]} stamps for {n_bursts} bursts"
            )
        if btsc.size and np.any(np.diff(btsc) < 0):
            raise ValueError("burst TSC stamps must be non-decreasing")
        object.__setattr__(self, "burst_ids", bids)
        object.__setattr__(self, "burst_tsc", btsc)
        object.__setattr__(self, "_burst_sizes", sizes)

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def n_bursts(self) -> int:
        """Number of recorded doorbell bursts."""
        return int(self.burst_tsc.shape[0])

    @property
    def memory_bytes(self) -> int:
        """RAM pinned by the recording (one mbuf per held packet)."""
        return len(self) * MBUF_BYTES

    @property
    def duration_ns(self) -> float:
        """Span of the recording on the recorder's TSC, in nanoseconds."""
        if self.n_bursts < 2:
            return 0.0
        return float(
            self.tsc.cycles_to_ns(self.burst_tsc[-1] - self.burst_tsc[0])
        )

    def burst_sizes(self) -> np.ndarray:
        """Packets per burst (a read-only array computed at construction)."""
        return self._burst_sizes

    def relative_burst_times_ns(self) -> np.ndarray:
        """Per-burst transmit time relative to the first burst, in ns.

        This is the replay schedule: burst *k* should be handed to the NIC
        ``relative_burst_times_ns()[k]`` after the replay's start.
        """
        if self.n_bursts == 0:
            return np.empty(0, dtype=np.float64)
        return np.asarray(
            self.tsc.cycles_to_ns(self.burst_tsc - self.burst_tsc[0]),
            dtype=np.float64,
        )

    @classmethod
    def capture(
        cls,
        packets: PacketArray,
        burst_ids: np.ndarray,
        tx_times_ns: np.ndarray,
        tsc: TSC,
        buffer_bytes: int = MIN_BUFFER_BYTES,
        meta: dict | None = None,
    ) -> "Recording":
        """Build a recording from a transmission, honoring the RAM budget.

        ``tx_times_ns`` is the per-packet software transmit time; the TSC
        stamp of a burst is the read taken when its doorbell rang (the last
        packet's enqueue time).
        """
        if buffer_bytes < MIN_BUFFER_BYTES:
            raise ValueError(
                f"Choir requires at least {MIN_BUFFER_BYTES} bytes of buffer "
                f"(got {buffer_bytes})"
            )
        capacity = buffer_bytes // MBUF_BYTES
        truncated = len(packets) > capacity
        if truncated:
            # Cut on a burst boundary: a burst is recorded atomically.
            bids = np.asarray(burst_ids)
            cut = int(capacity)
            while 0 < cut < len(bids) and bids[cut - 1] == bids[cut]:
                cut -= 1
            packets = packets.select(slice(0, cut))
            burst_ids = bids[:cut]
            tx_times_ns = np.asarray(tx_times_ns)[:cut]

        bids = np.asarray(burst_ids, dtype=np.int64)
        starts, ends = burst_bounds(bids)
        doorbell_times = np.asarray(tx_times_ns, dtype=np.float64)[ends - 1]
        burst_tsc = np.asarray(tsc.read(doorbell_times), dtype=np.int64)
        # A later doorbell can never carry an earlier stamp; integer TSC
        # quantization of near-simultaneous doorbells could tie.
        burst_tsc = np.maximum.accumulate(burst_tsc)
        return cls(
            packets=packets,
            burst_ids=bids,
            burst_tsc=burst_tsc,
            tsc=tsc,
            truncated=truncated,
            meta=dict(meta or {}),
        )
