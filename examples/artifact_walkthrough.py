#!/usr/bin/env python3
"""End-to-end walkthrough of the paper's artifact (Appendix A/B).

The published artifact is a Jupyter notebook that (1) provisions a FABRIC
slice with three VMs and two dedicated smart NICs over an L2Bridge,
(2) installs the tools, (3) records and replays traffic, and (4) analyzes
the captures into figures and a metrics text file.  This script walks the
same arc against the simulated testbed — slice reservation included — so
the whole workflow is visible in one place.

Run:  python examples/artifact_walkthrough.py  [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis import render_report, save_series
from repro.core import compare_series
from repro.testbeds import (
    NetworkServiceKind,
    NICKind,
    Slice,
    Testbed,
    fabric_dedicated_40g,
)
from repro.testbeds.slices import NodeRole


def provision_slice() -> Slice:
    """Appendix B step 1: three VMs, two dedicated smart NICs, L2Bridge."""
    sl = Slice("choir-artifact")
    gen = sl.add_node("generator", cores=8, ram_gb=32, role=NodeRole.GENERATOR)
    rep = sl.add_node("replayer", cores=8, ram_gb=32, role=NodeRole.REPLAYER)
    rec = sl.add_node("recorder", cores=8, ram_gb=32, role=NodeRole.RECORDER)
    gen.add_nic("nic0", NICKind.SHARED_VF)
    rep.add_nic("nic0", NICKind.DEDICATED_CX6)      # the two dedicated
    rec.add_nic("nic0", NICKind.DEDICATED_CX6)      # smart NICs
    sl.add_network_service(
        "bridge",
        NetworkServiceKind.L2_BRIDGE,
        [("generator", "nic0"), ("replayer", "nic0"), ("recorder", "nic0")],
    )
    sl.submit()
    return sl


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="choir-artifact-")
    )

    print("== step 1: provision the slice ==")
    sl = provision_slice()
    u = sl.site.utilization()
    print(f"slice {sl.name!r} submitted on site {sl.site.name} "
          f"(site utilization: {u['cores']:.1%} CPU, {u['ram']:.1%} RAM)")
    print(f"PTP available: {sl.ptp_synchronized}; "
          f"shared NICs in the data path: {sl.uses_shared_nics()}\n")

    print("== step 2-3: record a replay buffer and run 5 replays ==")
    profile = fabric_dedicated_40g().at_duration(30e6)
    trials = Testbed(profile, seed=9).run_series(5)
    print(f"captured runs: {[f'{t.label}:{len(t):,}' for t in trials]}\n")

    print("== step 4: save captures and analyze ==")
    save_series(trials, out / "captures")
    report = compare_series(trials, environment=profile.name)
    (out / "metrics.txt").write_text(render_report(report))
    print(render_report(report, histograms=False))
    print(f"full report (with figure histograms): {out / 'metrics.txt'}")

    print("\n== teardown ==")
    sl.delete()
    print(f"slice deleted; site back to "
          f"{sl.site.utilization()['cores']:.1%} CPU allocated")


if __name__ == "__main__":
    main()
