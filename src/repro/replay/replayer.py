"""The replay engine: TSC busy-poll scheduling of recorded bursts.

Section 4's replay loop: the user command names a future start time; the
replayer converts it to a TSC delta using the CPU frequency; the loop then
spins on TSC reads, handing each recorded burst to the NIC once the read
passes the burst's stored stamp plus the delta.

The model reproduces each accuracy-limiting mechanism the paper names or
that shared infrastructure adds:

* **start latency** — command dispatch, ARM→RUN transition and loop
  warm-up put the actual epoch a little after the scheduled instant; the
  *relative* start latency between two replayers is what reorders the
  dual-replayer merge (Section 6.2);
* **frequency error** — the wall-clock→cycles conversion uses a measured
  CPU frequency; its per-run error stretches the whole schedule linearly,
  producing the slowly-growing latency deltas of Figure 4b;
* **poll granularity** — the loop notices the TSC passed a target only at
  its next read, adding a sub-iteration overshoot per burst;
* **scheduler stalls** — on shared/virtualized hosts the vCPU is
  occasionally preempted mid-spin, displacing whole bursts by
  microseconds (the FABRIC IAT tails);
* **loop serialization** — a late burst delays its successors through the
  burst-processing cost, the same FIFO recurrence as everywhere else;
* **NIC DMA pull** — the Section 2.3 transmit delay, via
  :class:`~repro.net.nicmodel.TxNicModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.nicmodel import TxNicModel
from ..net.pktarray import PacketArray
from ..net.queueing import fifo_departures
from .burst import PollLoopCost
from .recording import Recording

__all__ = ["ReplayTimingModel", "ReplayOutcome", "Replayer"]


@dataclass(frozen=True)
class ReplayTimingModel:
    """Per-environment replay timing imperfections.

    Parameters
    ----------
    poll_granularity_ns:
        Worst-case overshoot of one busy-poll iteration (uniform draw).
    stall_prob:
        Probability any given burst's spin is hit by a scheduler stall.
    stall_scale_ns:
        Mean of the (exponential) stall duration.
    freq_error_ppm:
        Std of the per-run CPU-frequency calibration error.
    start_latency_median_ns:
        Median of the (lognormal) start latency after the scheduled epoch.
    start_latency_sigma:
        Lognormal sigma of the start latency.
    """

    poll_granularity_ns: float = 40.0
    stall_prob: float = 0.0
    stall_scale_ns: float = 0.0
    freq_error_ppm: float = 1.5
    start_latency_median_ns: float = 200_000.0
    start_latency_sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.poll_granularity_ns < 0:
            raise ValueError("poll_granularity_ns must be non-negative")
        if not 0.0 <= self.stall_prob <= 1.0:
            raise ValueError("stall_prob must lie in [0, 1]")
        if self.stall_scale_ns < 0 or self.freq_error_ppm < 0:
            raise ValueError("noise scales must be non-negative")
        if self.start_latency_median_ns < 0 or self.start_latency_sigma < 0:
            raise ValueError("start latency parameters must be non-negative")


@dataclass(frozen=True)
class ReplayOutcome:
    """A completed replay: wire-time batch plus per-run diagnostics."""

    egress: PacketArray
    achieved_start_ns: float
    freq_error_ppm: float
    n_stalls: int

    def __len__(self) -> int:
        return len(self.egress)


@dataclass(frozen=True)
class Replayer:
    """A Choir node in replay mode."""

    tx_nic: TxNicModel
    loop_cost: PollLoopCost = field(default_factory=PollLoopCost)
    timing: ReplayTimingModel = field(default_factory=ReplayTimingModel)

    def replay(
        self,
        recording: Recording,
        scheduled_start_ns: float,
        rng: np.random.Generator,
    ) -> ReplayOutcome:
        """Replay a recording scheduled to begin at ``scheduled_start_ns``.

        All returned times are true simulation time; the per-run clock and
        frequency imperfections are drawn from ``rng`` inside.
        """
        n_bursts = recording.n_bursts
        if n_bursts == 0:
            return ReplayOutcome(
                recording.packets, float(scheduled_start_ns), 0.0, 0
            )
        t = self.timing

        start_latency = (
            t.start_latency_median_ns
            * rng.lognormal(0.0, t.start_latency_sigma)
            if t.start_latency_median_ns > 0
            else 0.0
        )
        epoch = float(scheduled_start_ns) + start_latency

        freq_error_ppm = float(rng.normal(0.0, t.freq_error_ppm))
        stretch = 1.0 + freq_error_ppm * 1e-6

        rel = recording.relative_burst_times_ns()
        targets = epoch + rel * stretch

        overshoot = rng.uniform(0.0, t.poll_granularity_ns, n_bursts)
        n_stalls = 0
        if t.stall_prob > 0 and t.stall_scale_ns > 0:
            stalled = rng.random(n_bursts) < t.stall_prob
            # The first burst fires with the vCPU freshly scheduled (it just
            # processed the arm command and has been spinning on the TSC),
            # so it is not a preemption candidate.  This matters to the L
            # metric: the first packet anchors every relative latency.
            stalled[0] = False
            n_stalls = int(np.count_nonzero(stalled))
            if n_stalls:
                overshoot[stalled] += rng.exponential(
                    t.stall_scale_ns, n_stalls
                )
        ready = targets + overshoot

        # The loop is a single thread: a late burst pushes its successors
        # through the burst-processing cost (the usual FIFO recurrence).
        burst_sizes = recording.burst_sizes()
        cost = (
            self.loop_cost.iteration_ns
            + self.loop_cost.per_packet_ns * burst_sizes
        )
        done = fifo_departures(ready, cost)
        notify_per_burst = done  # doorbell rings when the burst is enqueued

        burst_index = np.repeat(
            np.arange(n_bursts), burst_sizes.astype(np.intp)
        )
        notify = notify_per_burst[burst_index]

        wire = self.tx_nic.transmit(
            notify, recording.packets.sizes, recording.burst_ids, rng
        )
        egress = recording.packets.with_times(wire)
        return ReplayOutcome(egress, epoch, freq_error_ppm, n_stalls)

    def sustainable_pps(self, mean_burst_size: float) -> float:
        """Loop-limited packet rate for a given mean burst size.

        The replay loop spends ``iteration + per_packet*burst`` per burst;
        larger bursts amortize the fixed cost — the Section 5 rationale for
        64-packet bursts ("larger bursts help to achieve line-rate
        performance using fewer hardware resources").
        """
        if mean_burst_size <= 0:
            raise ValueError("mean_burst_size must be positive")
        per_burst = self.loop_cost.iteration_ns + (
            self.loop_cost.per_packet_ns * mean_burst_size
        )
        return mean_burst_size / (per_burst * 1e-9)
