"""Offline analysis pipeline: captures, tagging, comparison, rendering.

The simulation-side equivalent of the paper's Jupyter artifact: save per-
run captures, reload them, run the Section-3 analysis, and render the
tables, figures, and text reports.
"""

from .capture import CaptureFormatError, read_capture, write_capture
from .changepoints import LatencyStep, detect_series_steps
from .compare import analyze_directory, load_series, render_report, save_series
from .pcap import MIN_FRAME_BYTES, PcapReadResult, read_pcap, write_pcap
from .pcapng import PcapngReadResult, read_pcapng, write_pcapng
from .stability import (
    EnvironmentStability,
    OutlierScreen,
    StabilityDecision,
    ci_half_width,
    minimal_runs_mean,
    screen_outliers,
    stability_screen,
    stability_seed_plan,
)
from .stats import SeedSweepResult, bootstrap_ci, seed_sweep
from .streamkappa import DegradationEvent, KappaMonitor, StreamKappa, WindowReport
from .tracestats import TraceStats, detect_bursts, trace_stats
from .weights import balanced_scaling, component_ranges
from .tables import render_table1, render_table2, table1_rows, table2_rows
from .tagging import (
    TrailerError,
    join_tags,
    split_tags,
    tag_to_trailer,
    trailer_to_tag,
)
from .textplot import format_si, render_histogram, render_metric_rows, render_series_table

__all__ = [
    "write_capture",
    "read_capture",
    "CaptureFormatError",
    "save_series",
    "load_series",
    "analyze_directory",
    "render_report",
    "split_tags",
    "join_tags",
    "tag_to_trailer",
    "trailer_to_tag",
    "TrailerError",
    "table1_rows",
    "render_table1",
    "table2_rows",
    "render_table2",
    "render_histogram",
    "render_series_table",
    "render_metric_rows",
    "format_si",
    "write_pcap",
    "read_pcap",
    "PcapReadResult",
    "MIN_FRAME_BYTES",
    "write_pcapng",
    "read_pcapng",
    "PcapngReadResult",
    "bootstrap_ci",
    "seed_sweep",
    "SeedSweepResult",
    "screen_outliers",
    "OutlierScreen",
    "minimal_runs_mean",
    "ci_half_width",
    "StabilityDecision",
    "stability_screen",
    "EnvironmentStability",
    "stability_seed_plan",
    "balanced_scaling",
    "component_ranges",
    "StreamKappa",
    "KappaMonitor",
    "WindowReport",
    "DegradationEvent",
    "detect_series_steps",
    "TraceStats",
    "trace_stats",
    "detect_bursts",
    "LatencyStep",
]
