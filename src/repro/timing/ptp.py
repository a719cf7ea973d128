"""Precision Time Protocol (PTP) synchronization model.

Section 2.2: FABRIC hosts receive GPS-disciplined PTP time on a NIC, VMs
synchronize to the host clock through the kernel's ``ptp_kvm`` driver
(claimed sub-microsecond error), and an Ansible-installed service then
disciplines the VM's NICs from the system clock.  On the local testbed the
generator's system clock (NTP stratum-1 conditioned) acts as grandmaster
with in-band PTP to the replay nodes.

What the experiments depend on is the *residual* offset left on each
replayer's clock after synchronization, and how it changes between runs:
Section 6.2 attributes the dual-replayer reordering to per-run offsets
between the two replayers' disciplined clocks.  The model is therefore
one float per replayer per run: a fresh draw from the profile's error
scale plus the fixed path asymmetry.  Nothing else about a clock is
simulated; the replayers' frequency error is
:attr:`~repro.replay.replayer.ReplayTimingModel.freq_error_ppm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PTPProfile", "PTPDomain"]


@dataclass(frozen=True)
class PTPProfile:
    """Error characteristics of one PTP deployment.

    Parameters
    ----------
    residual_ns:
        Standard deviation of the follower's offset right after a sync
        exchange.  The paper's setups: "synchronizes to within 10s of
        nanoseconds" locally; ``ptp_kvm`` claims sub-microsecond on FABRIC.
    sync_interval_ns:
        Time between sync exchanges (log message period).  Part of the
        profile's description and its digest; a run is one sync epoch,
        so the model does not read it.
    path_asymmetry_ns:
        Fixed error from asymmetric network paths, which PTP cannot
        observe; applied as a constant bias per follower.
    """

    residual_ns: float = 30.0
    sync_interval_ns: float = 1e9
    path_asymmetry_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.residual_ns < 0:
            raise ValueError("residual_ns must be non-negative")
        if self.sync_interval_ns <= 0:
            raise ValueError("sync_interval_ns must be positive")


#: Local testbed: stratum-1-conditioned grandmaster, bare-metal followers.
LOCAL_PTP = PTPProfile(residual_ns=30.0)
#: FABRIC: GPS → host NIC → ptp_kvm → VM chain, sub-microsecond per hop.
FABRIC_PTP = PTPProfile(residual_ns=400.0)


@dataclass
class PTPDomain:
    """The replayers' sync domain: one profile, one random source.

    :meth:`synchronize_all` runs one sync epoch and gives each replayer
    its clock offset for the run.
    """

    profile: PTPProfile
    rng: np.random.Generator

    def synchronize_all(self, n_followers: int) -> list[float]:
        """Run one sync epoch; returns each follower's post-sync offset.

        One residual draw per follower, in follower order, plus the fixed
        path asymmetry.  The draw is taken even when ``residual_ns`` is 0,
        so the run's random stream does not depend on the profile's error
        scale.
        """
        return [
            self.rng.normal(0.0, self.profile.residual_ns)
            + self.profile.path_asymmetry_ns
            for _ in range(n_followers)
        ]
