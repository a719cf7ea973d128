"""κ-as-a-service: the persistent artifact store and the sweep orchestrator.

The paper's evaluation — and every production replay-consistency workflow
built on it — is a scenario × environment × seed matrix whose cells are
expensive (seconds of simulation each) and perfectly deterministic (the
engine's differential suites prove bit-identity under any fan-out).  This
package exploits that determinism end to end:

* :mod:`~repro.sweep.store` — :class:`ArtifactStore`, a content-addressed
  on-disk cache mapping a canonical digest of (environment profile ×
  seed scheme × series length × analysis version) to the serialized
  trial series and its :class:`~repro.core.report.RunSeriesReport`;
  atomic publishes, sha256-verified reads, corruption degrades to a
  counted recompute — never a crash, never a wrong κ;
* :mod:`~repro.sweep.codec` — exact JSON round-trips for the report
  types (floats via repr, bit-identical back), used only by the store;
* :mod:`~repro.sweep.coordinator` — :func:`run_sweep`, which expands a
  matrix into a work plan, satisfies cache hits, fans misses over the
  persistent worker pool, persists each unit as it completes (so a
  killed sweep resumes), and merges everything into one deterministic
  sweep report plus a telemetry sidecar.

A sweep unit is the one way a series is cached.  Entry points:
``repro sweep`` on the command line, ``REPRO_STORE=<dir>`` (or
:func:`repro.experiments.runner.configure_store`) to let the
Table-2/figure/validation drivers read and feed the same store — the
runner resolves the series it needs as one sweep.  See
``docs/sweeps.md``.
"""

from .coordinator import (
    SWEEP_REPORT_SCHEMA,
    SweepResult,
    SweepUnit,
    plan_from_scenarios,
    plan_unit,
    render_sweep_summary,
    run_sweep,
    write_sweep_report,
)
from .store import (
    ANALYSIS_VERSION,
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    StoredEntry,
    StoreStats,
    compute_digest,
    digest_key_doc,
)

__all__ = [
    "ArtifactStore",
    "StoredEntry",
    "StoreStats",
    "compute_digest",
    "digest_key_doc",
    "STORE_SCHEMA_VERSION",
    "ANALYSIS_VERSION",
    "SweepUnit",
    "SweepResult",
    "plan_unit",
    "plan_from_scenarios",
    "run_sweep",
    "write_sweep_report",
    "render_sweep_summary",
    "SWEEP_REPORT_SCHEMA",
]
