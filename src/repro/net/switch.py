"""Switch port-forwarding models.

Both testbeds interpose exactly one switch on the measured path: the local
testbed an **AS9516-32D Tofino2** running "a simple ingress to egress port
forwarding program", FABRIC sites **Cisco 5700s** (Section 8.1).  A modern
switch at this role contributes:

* a near-constant pipeline latency (parse → match → deparse);
* a small per-packet jitter from arbitration and cell scheduling;
* egress serialization at the output port's rate (another FIFO), which
  only matters if the port is congested — never the case in the paper's
  single-stream topologies, but modeled so multi-ingress setups (the
  dual-replayer case) contend realistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pktarray import PacketArray
from .queueing import fifo_departures
from .units import wire_time_ns

__all__ = ["SwitchModel", "TOFINO2", "CISCO_5700"]


@dataclass(frozen=True)
class SwitchModel:
    """A store-and-forward switch doing port-to-port forwarding.

    Parameters
    ----------
    name:
        Model label for reports.
    pipeline_latency_ns:
        Fixed forwarding latency through the pipeline.
    jitter_ns:
        Std of per-packet arbitration jitter (one-sided; realized as the
        absolute value of a Gaussian so latency never dips below the
        pipeline minimum).
    egress_rate_bps:
        Output port line rate for egress serialization.
    """

    name: str
    pipeline_latency_ns: float
    jitter_ns: float
    egress_rate_bps: float
    overhead_bytes: int = 0

    def __post_init__(self) -> None:
        if self.pipeline_latency_ns < 0:
            raise ValueError("pipeline_latency_ns must be non-negative")
        if self.jitter_ns < 0:
            raise ValueError("jitter_ns must be non-negative")
        if self.egress_rate_bps <= 0:
            raise ValueError("egress_rate_bps must be positive")

    def forward_merged(
        self, ingress: list[PacketArray], rng: np.random.Generator
    ) -> PacketArray:
        """Forward several ingress streams onto one egress port.

        Streams are merged in arrival order at the crossbar (the
        dual-replayer topology), then the merged stream pays pipeline
        latency + jitter and serializes out the egress port.
        """
        merged, _ = PacketArray.merge([b for b in ingress if len(b)])
        if len(merged) == 0:
            return merged
        t = merged.times_ns + self.pipeline_latency_ns
        if self.jitter_ns > 0:
            t = t + np.abs(rng.normal(0.0, self.jitter_ns, len(merged)))
            # Jitter cannot reorder frames inside one ingress-to-egress
            # queue; restore monotonicity as the egress FIFO would.
            t = np.maximum.accumulate(t)
        service = wire_time_ns(
            merged.sizes, self.egress_rate_bps, overhead_bytes=self.overhead_bytes
        )
        return merged.with_times(fifo_departures(t, service))


#: The local testbed's switch: Tofino2 forwarding pipeline, 400 Gbps-class
#: ports run at 100 Gbps here; sub-microsecond fixed latency, tiny jitter.
TOFINO2 = SwitchModel(
    name="AS9516-32D Tofino2",
    pipeline_latency_ns=450.0,
    jitter_ns=3.0,
    egress_rate_bps=100e9,
)

#: FABRIC's site switch; deeper-buffered chassis switch, slightly larger
#: fixed latency and arbitration jitter than a Tofino pipeline.
CISCO_5700 = SwitchModel(
    name="Cisco 5700",
    pipeline_latency_ns=800.0,
    jitter_ns=8.0,
    egress_rate_bps=100e9,
)
