"""Clock substrate: TSC, system clocks, PTP sync, NIC RX timestamping.

These models supply the time sources the paper's machinery depends on:
Choir schedules replays off the TSC (Section 4), nodes compare timestamps
across PTP-disciplined clocks (Section 2.2), and the recorder's NIC
timestamping model shapes the observed IAT distributions (Section 8.1).
"""

from .clock import SystemClock
from .hwstamp import RealtimeHWStamper, RxTimestamper, SampledClockStamper
from .ptp import FABRIC_PTP, LOCAL_PTP, PTPDomain, PTPProfile
from .tsc import TSC

__all__ = [
    "TSC",
    "SystemClock",
    "PTPProfile",
    "PTPDomain",
    "LOCAL_PTP",
    "FABRIC_PTP",
    "RxTimestamper",
    "RealtimeHWStamper",
    "SampledClockStamper",
]
