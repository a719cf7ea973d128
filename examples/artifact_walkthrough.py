#!/usr/bin/env python3
"""End-to-end walkthrough of the paper's artifact (Appendix A/B).

The published artifact is a Jupyter notebook that (1) provisions a FABRIC
slice with three VMs and two dedicated smart NICs over an L2Bridge,
(2) installs the tools, (3) records and replays traffic, and (4) analyzes
the captures into figures and a metrics text file.  This script walks
steps 2-4 against the simulated testbed, whose dedicated-NIC profile
stands in for the provisioned slice, so the record/replay/analyze arc is
visible in one place.

Run:  python examples/artifact_walkthrough.py  [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis import render_report, save_series
from repro.core import compare_series
from repro.testbeds import Testbed, fabric_dedicated_40g


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="choir-artifact-")
    )

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


if __name__ == "__main__":
    main()
