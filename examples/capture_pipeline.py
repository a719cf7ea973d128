#!/usr/bin/env python3
"""Artifact-style offline pipeline: save captures, re-analyze from disk.

The paper's artifact saves per-run packet captures and analyzes them in a
separate pass, producing figures plus "the metrics ... in a text file".
This example does the same with the simulator's capture format:

1. run a trial series and save each run as a checksummed ``.cho``
   capture file (``run-000.cho``, ... in run order);
2. reload the directory cold (as a separate analysis session would),
   verifying every capture;
3. run the Section-3 analysis and write the text report.

Run:  python examples/capture_pipeline.py  [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis import analyze_directory, load_series, render_report, save_series
from repro.testbeds import Testbed, fabric_shared_40g


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="choir-"))

    profile = fabric_shared_40g().at_duration(25e6)
    print(f"recording + replaying on {profile.name} ...")
    trials = Testbed(profile, seed=5).run_series(5)

    paths = save_series(trials, out)
    total = sum(p.stat().st_size for p in paths)
    print(f"saved {len(paths)} captures to {out} ({total / 1e6:.1f} MB)")

    # A fresh analysis session: everything below uses only the files.
    reloaded = load_series(out)
    assert all(len(a) == len(b) for a, b in zip(trials, reloaded))

    report = analyze_directory(out, environment=profile.name)
    report_path = out / "metrics.txt"
    report_path.write_text(render_report(report, histograms=True))
    print(f"analysis written to {report_path}")
    print()
    print(render_report(report, histograms=False))


if __name__ == "__main__":
    main()
