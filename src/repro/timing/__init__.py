"""Clock substrate: TSC, PTP sync offsets, NIC RX timestamping.

These models supply the time sources the paper's machinery depends on:
Choir schedules replays off the TSC (Section 4), each replayer starts on
its PTP-disciplined clock, whose per-run offset is one residual draw
(Section 2.2), and the recorder's NIC timestamping model shapes the
observed IAT distributions (Section 8.1).
"""

from .hwstamp import RealtimeHWStamper, RxTimestamper, SampledClockStamper
from .ptp import FABRIC_PTP, LOCAL_PTP, PTPDomain, PTPProfile
from .tsc import TSC

__all__ = [
    "TSC",
    "PTPProfile",
    "PTPDomain",
    "LOCAL_PTP",
    "FABRIC_PTP",
    "RxTimestamper",
    "RealtimeHWStamper",
    "SampledClockStamper",
]
