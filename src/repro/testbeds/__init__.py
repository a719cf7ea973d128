"""Testbed environments: the local university testbed and FABRIC.

Nine scenario constructors (one per Table-2 row) plus the machinery to
run them: build a profile, hand it to :class:`~repro.testbeds.base.Testbed`,
call :meth:`~repro.testbeds.base.Testbed.run_series`.
"""

from .base import RunArtifacts, Testbed
from .calibration import ExpectedMetrics, equilibrium_burst_size, expected_metrics
from .fabric import (
    fabric_dedicated_40g,
    fabric_dedicated_40g_retest,
    fabric_dedicated_80g,
    fabric_dedicated_80g_noisy,
    fabric_shared_40g,
    fabric_shared_40g_noisy,
    fabric_shared_80g,
)
from .local import local_dual_replayer, local_multi_replayer, local_single_replayer
from .profiles import BackgroundLoad, ClockStepModel, EnvironmentProfile
from .serialization import (
    canonical_profile_json,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)

__all__ = [
    "ExpectedMetrics",
    "expected_metrics",
    "equilibrium_burst_size",
    "EnvironmentProfile",
    "ClockStepModel",
    "BackgroundLoad",
    "Testbed",
    "RunArtifacts",
    "local_single_replayer",
    "local_dual_replayer",
    "local_multi_replayer",
    "fabric_dedicated_40g",
    "fabric_shared_40g",
    "fabric_dedicated_40g_retest",
    "fabric_dedicated_80g",
    "fabric_shared_80g",
    "fabric_dedicated_80g_noisy",
    "fabric_shared_40g_noisy",
    "profile_to_dict",
    "profile_from_dict",
    "save_profile",
    "load_profile",
    "canonical_profile_json",
]
