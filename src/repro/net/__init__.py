"""Network substrate: packets, links, NICs, switches, shared ports, WAN.

Everything the testbed models compose to turn transmit schedules into
receive-timestamp sequences.  All bulk operations are vectorized over
structure-of-arrays packet batches (:class:`~repro.net.pktarray.PacketArray`).
"""

from . import units
from .hwcatalog import NIC_CATALOG, SWITCH_CATALOG, NicPart, nic, switch
from .link import Link
from .nicmodel import RxNicModel, TxNicModel, TxResult
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
    "RxNicModel",
    "TxResult",
    "SharedPort",
    "SharedPortResult",
    "SwitchModel",
    "TOFINO2",
    "CISCO_5700",
    "WanSegment",
    "NicPart",
    "NIC_CATALOG",
    "SWITCH_CATALOG",
    "nic",
    "switch",
]
