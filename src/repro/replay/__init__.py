"""The Choir application model: record/replay transparent middleboxes.

Structure mirrors Section 4-5 of the paper:

* :mod:`~repro.replay.burst` — forwarding-loop burstification (≤64 pkts);
* :mod:`~repro.replay.recording` — in-memory recordings with TSC stamps;
* :mod:`~repro.replay.middlebox` — the transparent forward/record path;
* :mod:`~repro.replay.replayer` — TSC busy-poll replay scheduling;
* :mod:`~repro.replay.choir` — one replayer node: record, then replay
  at a scheduled instant shifted by its clock offset.
"""

from .burst import (
    MAX_BURST,
    PollLoopCost,
    burst_bounds,
    burstify_fixed,
    burstify_poll_loop,
)
from .choir import ChoirNode
from .middlebox import ForwardResult, TransparentMiddlebox
from .recording import MBUF_BYTES, MIN_BUFFER_BYTES, Recording
from .replayer import Replayer, ReplayOutcome, ReplayTimingModel

__all__ = [
    "MAX_BURST",
    "PollLoopCost",
    "burstify_poll_loop",
    "burstify_fixed",
    "burst_bounds",
    "Recording",
    "MBUF_BYTES",
    "MIN_BUFFER_BYTES",
    "TransparentMiddlebox",
    "ForwardResult",
    "Replayer",
    "ReplayOutcome",
    "ReplayTimingModel",
    "ChoirNode",
]
