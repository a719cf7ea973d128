"""Network substrate: packets, links, the TX NIC, switches, shared ports, WAN.

Everything the testbed models compose to turn transmit schedules into
arrival times at the recorder, whose timestamping model lives in
:mod:`repro.timing.hwstamp`.  All bulk operations are vectorized over
structure-of-arrays packet batches (:class:`~repro.net.pktarray.PacketArray`).
"""

from . import units
from .link import Link
from .nicmodel import TxNicModel
from .pktarray import PacketArray, make_tags
from .queueing import TailDropResult, fifo_departures, fifo_tail_drop
from .sriov import SharedPort, SharedPortResult
from .switch import CISCO_5700, TOFINO2, SwitchModel
from .wan import WanSegment

__all__ = [
    "units",
    "PacketArray",
    "make_tags",
    "Link",
    "fifo_departures",
    "fifo_tail_drop",
    "TailDropResult",
    "TxNicModel",
    "SharedPort",
    "SharedPortResult",
    "SwitchModel",
    "TOFINO2",
    "CISCO_5700",
    "WanSegment",
]
