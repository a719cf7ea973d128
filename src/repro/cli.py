"""Command-line interface: ``python -m repro <command>``.

Mirrors the artifact's workflow from a shell:

* ``repro scenarios`` — list the nine registered evaluation environments;
* ``repro simulate <scenario>`` — run a trial series, print the report,
  optionally save captures;
* ``repro analyze <dir>`` — Section-3 analysis of saved captures;
* ``repro monitor <dir>`` — stream the captures through the online κ
  path: exact streaming metrics per run (:mod:`repro.analysis.streamkappa`)
  plus windowed κ with live degradation flagging;
* ``repro table1`` / ``repro table2`` — regenerate the paper's tables;
* ``repro figure <id>`` — regenerate one figure's series (e.g. ``4a``);
* ``repro sweep`` — run a scenario × seed matrix through the persistent
  content-addressed artifact store (:mod:`repro.sweep`): completed units
  are deduplicated and a killed sweep resumes from its last finished
  unit; ``--store``/``REPRO_STORE`` points the other scenario-driven
  commands at the same store so they reuse and feed it;
* ``repro stability`` — the PASTRAMI-style stability screen
  (:mod:`repro.analysis.stability`): per-environment κ *distributions*
  over many seeded sessions with bootstrap intervals, MAD outlier
  flagging and — with ``--eps`` — the sequential minimal-runs stopping
  rule ("add sessions until the κ CI half-width is ≤ ε or ``--max-runs``
  is hit").  ``repro table2 --ci`` and ``repro validate --ci`` surface
  the same interval columns inside the paper-facing drivers.

All commands honor ``--scale`` (capture duration relative to the paper's
0.3 s; default from ``REPRO_SCALE`` or 0.25) and print plain text so
output can be redirected into experiment logs.  ``--trace FILE`` (or
``REPRO_TRACE=FILE``) writes every pipeline stage — parent and worker
processes alike — to a trace file as it finishes, with engine counters
sampled into Chrome ``ph:"C"`` tracks on the way: ``FILE`` is a
Chrome ``trace_event`` array loadable in Perfetto /
``chrome://tracing``.
``--stats`` prints the stage/counter summary to stderr after the
command, and ``--serve-metrics PORT`` exposes ``/metrics`` (Prometheus
text) + ``/healthz`` while the command runs (see :mod:`repro.obs` and
``docs/observability.md``).  Commands that resolve several series, and
``analyze``, honor ``--jobs N`` (default from ``REPRO_JOBS`` or 1),
fanning whole items — sweep units, or capture pairs for ``analyze`` —
across N processes via :mod:`repro.parallel`; each item runs the serial
code, so output is identical at any job count.  Commands that simulate
honor ``--store DIR`` (default from ``REPRO_STORE``), reusing and
feeding the persistent series store.
Every worker draws from one process-global pool, created lazily on the
first parallel stage and torn down when the command exits — including on
error paths (see :mod:`repro.parallel.pool`).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

__all__ = ["main", "build_parser"]


def _int_at_least(low: int):
    """argparse type: an integer >= ``low`` (a bad value is a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}"
            )
        return value

    return parse


#: ``--runs``: a baseline plus at least one repeat run.
_run_count = _int_at_least(2)


def _port(text: str) -> int:
    """argparse type: a TCP port, 0 (pick a free one) through 65535."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number 0-65535, got {text!r}"
        )
    return value


def _seconds(text: str) -> float:
    """argparse type: a duration in seconds, finite and >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds >= 0, got {text!r}"
        )
    return value


def _flag_or_env(parser, value, env: str, kind):
    """``value`` if the flag was given, else ``kind(os.environ[env])``.

    A malformed environment value is a usage error (exit 2), exactly
    like the same text passed as the flag.
    """
    raw = os.environ.get(env, "").strip()
    if value is not None or not raw:
        return value
    try:
        return kind(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"{env} {exc}")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Network Replay and Consistency "
        "Across Testbeds' (Choir).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=_int_at_least(1), default=None, metavar="N",
            help="worker processes for simulation and analysis (default "
            "REPRO_JOBS or 1; output is identical at any N)",
        )

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", default=None, metavar="DIR",
            help="persistent artifact store for simulated series (default "
            "REPRO_STORE if set; results are identical with or without it)",
        )
        add_obs(p)

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", default=None, metavar="FILE",
            help="write a timeline of every stage, with engine counter "
            "tracks, to FILE as the command runs, as a Perfetto-loadable "
            "Chrome trace_event array (default REPRO_TRACE if set)",
        )
        p.add_argument(
            "--serve-metrics", type=_port, default=None, metavar="PORT",
            help="serve /metrics (Prometheus text) and /healthz on "
            "127.0.0.1:PORT while the command runs (0 picks a free "
            "port; default REPRO_METRICS_PORT if set)",
        )
        p.add_argument(
            "--stats", action="store_true",
            help="print stage timings and engine counters (with "
            "p50/p95/p99 histogram quantiles) to stderr",
        )

    add_obs(sub.add_parser(
        "scenarios", help="list registered evaluation environments"
    ))

    p = sub.add_parser("simulate", help="run a scenario's trial series")
    p.add_argument("scenario", nargs="?", default=None,
                   help="scenario key (see `repro scenarios`)")
    p.add_argument("--profile", default=None, metavar="JSON",
                   help="run a custom environment from a profile JSON instead")
    p.add_argument("--runs", type=_run_count, default=5,
                   help="number of runs, at least 2 (default 5)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--scale", type=float, default=None, help="duration scale (default REPRO_SCALE)")
    p.add_argument("-o", "--output", default=None, help="directory to save captures into")
    p.add_argument("--histograms", action="store_true", help="include figure histograms")
    add_store(p)

    p = sub.add_parser("analyze", help="analyze a directory of saved captures")
    p.add_argument("directory")
    p.add_argument("--histograms", action="store_true")
    add_jobs(p)
    add_obs(p)

    p = sub.add_parser(
        "monitor", help="stream saved captures through the online kappa monitor"
    )
    p.add_argument("directory")
    p.add_argument("--window-ms", type=float, default=10.0, metavar="MS",
                   help="monitoring window length (default 10 ms)")
    p.add_argument("--chunk", type=int, default=4096,
                   help="packets per streamed chunk (default 4096; results "
                   "are identical at any chunking)")
    p.add_argument("--kappa-step", type=float, default=0.02, metavar="STEP",
                   help="smallest windowed-kappa drop flagged as degradation")
    p.add_argument("--fail-on-degraded", action="store_true",
                   help="exit 1 if any session degrades")
    add_obs(p)

    p = sub.add_parser("table1", help="regenerate Table 1 (edit-script distances)")
    p.add_argument("--scale", type=float, default=None)
    add_store(p)

    def add_ci(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ci", action="store_true",
            help="report kappa with bootstrap interval columns from a "
            "multi-seed stability screen instead of one point estimate",
        )
        p.add_argument(
            "--ci-seeds", type=int, default=4, metavar="N",
            help="seeded sessions per environment for --ci (default 4)",
        )

    p = sub.add_parser("table2", help="regenerate Table 2 (all environments)")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--no-paper", action="store_true", help="omit the paper's columns")
    add_ci(p)
    add_jobs(p)
    add_store(p)

    p = sub.add_parser("validate", help="grade the reproduction against the paper's Table 2")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--kappa-tol", type=float, default=0.08)
    add_ci(p)
    add_jobs(p)
    add_store(p)

    p = sub.add_parser("report", help="regenerate the full evaluation into a directory")
    p.add_argument("-o", "--output", default="report", help="output directory")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--no-svg", action="store_true", help="skip SVG figure rendering")
    add_jobs(p)
    add_store(p)

    p = sub.add_parser(
        "sweep",
        help="run a scenario x seed matrix through the artifact store",
    )
    p.add_argument(
        "scenario", nargs="*",
        help="scenario keys to sweep (default: all nine environments)",
    )
    p.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="comma-separated seeds applied to every scenario (default: "
        "each scenario's registered seed)",
    )
    p.add_argument("--runs", type=_run_count, default=5,
                   help="runs per unit, at least 2 (default 5)")
    p.add_argument("--scale", type=float, default=None,
                   help="duration scale (default REPRO_SCALE)")
    p.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="reuse completed units from the store (default; --no-resume "
        "recomputes and rewrites every unit)",
    )
    p.add_argument(
        "-o", "--output", default=None, metavar="DIR",
        help="write sweep.json + sweep_telemetry.json into DIR",
    )
    add_jobs(p)
    add_store(p)

    p = sub.add_parser(
        "stability",
        help="PASTRAMI-style multi-seed kappa stability screen with "
        "bootstrap intervals and a minimal-runs stopping rule",
    )
    p.add_argument(
        "scenario", nargs="*",
        help="scenario keys to screen (default: all nine environments)",
    )
    p.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="comma-separated initial seeds applied to every scenario "
        "(default: 4 consecutive seeds from each scenario's registered "
        "seed)",
    )
    p.add_argument(
        "--eps", type=float, default=0.005, metavar="EPS",
        help="target kappa CI half-width: sessions are added until the "
        "95%% bootstrap interval is within +/-EPS (default 0.005); 0 "
        "evaluates exactly the given seeds with no extension",
    )
    p.add_argument(
        "--max-runs", type=int, default=12, metavar="N",
        help="cap on seeded sessions per environment in adaptive mode "
        "(default 12)",
    )
    p.add_argument("--runs", type=_run_count, default=3,
                   help="replay runs per session, at least 2 (default 3)")
    p.add_argument("--scale", type=float, default=None,
                   help="duration scale (default REPRO_SCALE)")
    p.add_argument(
        "-o", "--output", default=None, metavar="DIR",
        help="write stability.json + stability_telemetry.json into DIR",
    )
    add_jobs(p)
    add_store(p)

    p = sub.add_parser("figure", help="regenerate one figure's series")
    p.add_argument("figure_id", help="4a, 4b, 5, 6a..10b")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--svg", default=None, metavar="PATH",
                   help="additionally write the figure as an SVG file")
    add_store(p)

    return parser


def _run_kwargs(args) -> dict:
    """kwargs forwarded to ``run_scenario`` from --scale / --jobs flags.

    A command without ``--jobs`` resolves one series, which never fans
    out, so it runs at ``jobs=1`` whatever ``REPRO_JOBS`` says.
    """
    kwargs = {"jobs": getattr(args, "jobs", 1)}
    if getattr(args, "scale", None) is not None:
        kwargs["duration_scale"] = args.scale
    return kwargs


def _cmd_scenarios(_args) -> int:
    from .experiments import SCENARIOS

    for sc in SCENARIOS:
        figs = ",".join(sc.figures) if sc.figures else "-"
        print(f"{sc.key:28s} figs {figs:10s} {sc.description}")
    return 0


def _cmd_simulate(args) -> int:
    from .analysis import render_report, save_series
    from .experiments import scenario
    from .experiments.runner import persistent_store
    from .sweep import plan_unit, run_sweep

    if (args.scenario is None) == (args.profile is None):
        print("simulate: give exactly one of <scenario> or --profile", file=sys.stderr)
        return 2
    if args.profile:
        from .testbeds import load_profile

        profile = load_profile(args.profile)
        if args.scale is not None:
            profile = profile.at_duration(profile.duration_ns * args.scale)
        seed = 0 if args.seed is None else args.seed
    else:
        sc = scenario(args.scenario)
        profile = sc.profile(args.scale)
        seed = sc.seed if args.seed is None else args.seed
    from .obs import trace

    trace.set_meta("seed", int(seed))
    trace.set_meta("environment", profile.name)
    if args.scale is not None:
        trace.set_meta("scale", args.scale)
    print(f"simulating {profile.name} ({profile.describe()}) seed={seed}", file=sys.stderr)
    # One series is one sweep unit: served from the store when it holds
    # the unit's digest, computed serially and stored otherwise.
    result = run_sweep(
        [plan_unit(profile.name, profile, seed, args.runs)],
        persistent_store(),
        jobs=1,
    )
    [trials], [report] = result.trials, result.series
    if args.output:
        paths = save_series(list(trials), args.output)
        print(f"saved {len(paths)} captures under {args.output}", file=sys.stderr)
    print(render_report(report, histograms=args.histograms))
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze_directory, render_report

    try:
        report = analyze_directory(args.directory, jobs=args.jobs)
    except (FileNotFoundError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    print(render_report(report, histograms=args.histograms))
    return 0


def _cmd_monitor(args) -> int:
    from .analysis import KappaMonitor, StreamKappa, load_series, render_metric_rows

    trials = load_series(args.directory)
    if len(trials) < 2:
        print("monitor: need a baseline plus at least one run", file=sys.stderr)
        return 2
    baseline = trials[0]
    chunk = max(1, args.chunk)
    mon = KappaMonitor(args.window_ms * 1e6, min_kappa_step=args.kappa_step)
    rows = []
    for run in trials[1:]:
        sid = run.label or f"run{len(rows) + 1}"
        sk = StreamKappa(baseline, run_label=sid)
        # Interleave baseline and run chunks, as a live tap would deliver
        # them; the monitor closes each window once both streams pass it.
        for lo in range(0, max(len(baseline), len(run)), chunk):
            if lo < len(baseline):
                mon.feed_baseline(
                    sid, baseline.tags[lo : lo + chunk],
                    baseline.times_ns[lo : lo + chunk],
                )
            if lo < len(run):
                sk.update(run.tags[lo : lo + chunk], run.times_ns[lo : lo + chunk])
                mon.feed_run(
                    sid, run.tags[lo : lo + chunk], run.times_ns[lo : lo + chunk]
                )
        mon.finish(sid)
        vec = sk.result()
        rows.append({
            "run": sid,
            "U": vec.u, "O": vec.o, "I": vec.i, "L": vec.l,
            "kappa": vec.kappa(),
            "windows": mon.window_count(sid),
            "degraded": len(mon.degraded.get(sid, [])),
        })
    print(
        f"baseline run: {baseline.label or 'A'}  "
        f"window: {args.window_ms:g} ms  chunk: {chunk}"
    )
    print("streaming metrics (exact, vs baseline):")
    print(render_metric_rows(
        rows, columns=["run", "U", "O", "I", "L", "kappa", "windows", "degraded"]
    ))
    n_degraded = 0
    for sid, events in mon.degraded.items():
        for e in events:
            n_degraded += 1
            print(
                f"degradation: session {sid} window {e.window} "
                f"kappa {e.kappa_before:.4f} -> {e.kappa_after:.4f}"
            )
    return 1 if (args.fail_on_degraded and n_degraded) else 0


def _cmd_sweep(args) -> int:
    from .experiments.scenarios import default_duration_scale
    from .sweep import (
        ArtifactStore,
        plan_from_scenarios,
        render_sweep_summary,
        run_sweep,
        write_sweep_report,
    )

    seeds = None
    if args.seeds:
        try:
            seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
        except ValueError:
            print(f"sweep: --seeds must be integers, got {args.seeds!r}",
                  file=sys.stderr)
            return 2
    scale = args.scale if args.scale is not None else default_duration_scale()
    try:
        plan = plan_from_scenarios(
            args.scenario or None, seeds=seeds, n_runs=args.runs,
            duration_scale=scale,
        )
    except KeyError as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    store_dir = args.store or os.environ.get("REPRO_STORE") or ".repro-store"
    store = ArtifactStore(store_dir)
    matrix = {
        "scenarios": sorted({u.name for u in plan}),
        "seeds": seeds if seeds else "registered",
        "n_runs": args.runs,
        "duration_scale": scale,
    }
    print(
        f"sweeping {len(plan)} units through {store_dir} "
        f"(resume={'on' if args.resume else 'off'})",
        file=sys.stderr,
    )
    result = run_sweep(
        plan, store, jobs=args.jobs, resume=args.resume, matrix=matrix
    )
    print(render_sweep_summary(result, plan))
    s = store.stats
    print(
        f"store: {s.hits} hits, {s.misses} misses, {s.writes} writes, "
        f"{s.corrupt} corrupt, {s.races} races",
        file=sys.stderr,
    )
    if args.output:
        report_path, telemetry_path = write_sweep_report(result, args.output)
        print(f"wrote {report_path} and {telemetry_path}", file=sys.stderr)
    return 0


def _cmd_table1(args) -> int:
    from .experiments import render_table1_text

    print(render_table1_text(**_run_kwargs(args)))
    return 0


def _cmd_table2(args) -> int:
    from .experiments import render_table2_text

    print(render_table2_text(
        with_paper=not args.no_paper, ci=args.ci, ci_seeds=args.ci_seeds,
        **_run_kwargs(args),
    ))
    return 0


def _cmd_stability(args) -> int:
    import time

    from .analysis.stability import (
        stability_document,
        stability_screen,
        stability_seed_plan,
        write_stability_report,
    )
    from .analysis.textplot import render_metric_rows
    from .experiments.scenarios import (
        SCENARIOS,
        default_duration_scale,
        scenario,
    )
    from .obs import metrics
    from .obs.export import host_context
    from .sweep import ArtifactStore

    seeds = None
    if args.seeds:
        try:
            seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
        except ValueError:
            print(f"stability: --seeds must be integers, got {args.seeds!r}",
                  file=sys.stderr)
            return 2
    scale = args.scale if args.scale is not None else default_duration_scale()
    keys = args.scenario or [sc.key for sc in SCENARIOS]
    try:
        scenarios = [scenario(k) for k in keys]
    except KeyError as exc:
        print(f"stability: {exc.args[0]}", file=sys.stderr)
        return 2
    store_dir = args.store or os.environ.get("REPRO_STORE") or ".repro-store"
    store = ArtifactStore(store_dir)
    print(
        f"screening {len(scenarios)} environments through {store_dir} "
        f"(eps={args.eps:g}, max {args.max_runs} sessions each)",
        file=sys.stderr,
    )
    t_start = time.perf_counter()
    try:
        results = stability_screen(
            [
                (sc.key, sc.profile(scale),
                 seeds if seeds else stability_seed_plan(sc.seed, 4))
                for sc in scenarios
            ],
            n_runs=args.runs,
            jobs=args.jobs,
            store=store,
            eps=args.eps,
            max_seeds=args.max_runs,
        )
    except ValueError as exc:
        print(f"stability: {exc}", file=sys.stderr)
        return 2
    blocks = [(sc.key, st) for sc, st in zip(scenarios, results)]
    rows = []
    for key, st in blocks:
        row = dict(st.row(), scenario=key, n_seeds=len(st.seeds))
        row["stopped"] = (
            ("yes" if st.decision.stopped else "cap") if args.eps > 0
            else "-"
        )
        rows.append(row)
    print(render_metric_rows(rows, columns=[
        "scenario", "n_seeds", "n_eff", "kappa", "kappa_ci_low",
        "kappa_ci_high", "kappa_spread", "outliers", "stopped",
    ]))
    params = {
        "scenarios": [sc.key for sc in scenarios],
        "seeds": seeds if seeds else "derived",
        "eps": args.eps,
        "max_runs": args.max_runs,
        "n_runs": args.runs,
        "duration_scale": scale,
    }
    if args.output:
        doc = stability_document(blocks, params)
        telemetry = {
            "bench": "stability",
            "params": params,
            "host": host_context(),
            "wall_s": time.perf_counter() - t_start,
            "per_stage": {},
            "store": store.stats.as_dict(),
            "metrics": {
                name: value
                for name, value in sorted(
                    metrics.REGISTRY.snapshot()["counters"].items()
                )
                if name.startswith(("stability.", "sweep.", "pool."))
            },
        }
        report_path, telemetry_path = write_stability_report(
            doc, telemetry, args.output
        )
        print(f"wrote {report_path} and {telemetry_path}", file=sys.stderr)
    return 0


def _cmd_figure(args) -> int:
    from .experiments import ALL_FIGURES

    try:
        gen = ALL_FIGURES[args.figure_id]
    except KeyError:
        print(
            f"unknown figure {args.figure_id!r}; available: "
            f"{', '.join(sorted(ALL_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    series = gen(**_run_kwargs(args))
    print(series.render())
    if args.svg:
        series.to_svg(args.svg)
        print(f"wrote {args.svg}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    from .experiments import validate_against_paper

    result = validate_against_paper(
        kappa_abs_tol=args.kappa_tol, ci=args.ci, ci_seeds=args.ci_seeds,
        **_run_kwargs(args),
    )
    print(result.render())
    return 0 if result.passed else 1


def _cmd_report(args) -> int:
    from pathlib import Path

    from .experiments import (
        ALL_FIGURES,
        render_table1_text,
        render_table2_text,
        table2,
    )
    from .viz import kappa_bars

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    kwargs = _run_kwargs(args)

    print("regenerating Table 2 (all nine environments)...", file=sys.stderr)
    table2_text = render_table2_text(**kwargs)
    (out / "table2.txt").write_text(table2_text)
    print("regenerating Table 1...", file=sys.stderr)
    (out / "table1.txt").write_text(render_table1_text(**kwargs))

    if not args.no_svg:
        kappa_bars(
            table2(**kwargs),
            title="kappa per environment (bar: measured, notch: paper)",
        ).save(out / "table2_kappa.svg")

    for fid, gen in ALL_FIGURES.items():
        print(f"regenerating Figure {fid}...", file=sys.stderr)
        series = gen(**kwargs)
        (out / f"fig{fid}.txt").write_text(series.render())
        if not args.no_svg:
            series.to_svg(out / f"fig{fid}.svg")

    print(f"report written to {out}/", file=sys.stderr)
    print(table2_text)
    return 0


_COMMANDS = {
    "scenarios": _cmd_scenarios,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "monitor": _cmd_monitor,
    "sweep": _cmd_sweep,
    "stability": _cmd_stability,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figure": _cmd_figure,
    "report": _cmd_report,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The worker pool (if any stage created one) is torn down before
    returning — on success, error exit codes, and exceptions alike — so a
    CLI invocation can never leak worker processes.  Observability
    teardown is ordered after it so every artifact includes worker
    telemetry from every stage: pool drains, then the trace sink takes its
    final counter sample and closes, then the stats are printed, and the
    metrics server (which only ever reads snapshots) goes down last.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # Imported after parsing: repro.parallel loads numpy, which --help and
    # usage errors never need.
    from .parallel.pool import shutdown_pool

    if getattr(args, "jobs", 0) is None:
        from .parallel.pool import default_jobs

        try:
            args.jobs = default_jobs()
        except ValueError as exc:
            parser.error(str(exc))
    runner = None
    if getattr(args, "store", None) and args.command not in ("sweep", "stability"):
        # The other commands that simulate (simulate, tables, figures,
        # validate, report) read and feed the persistent series store
        # for this command only; the sweep and stability commands manage
        # their own store instances.
        from .experiments import runner

        previous_store = runner._store
        runner.configure_store(args.store)
    trace_path = args.trace or os.environ.get("REPRO_TRACE")
    serve_port = _flag_or_env(
        parser, args.serve_metrics, "REPRO_METRICS_PORT", _port
    )
    hold_s = _flag_or_env(parser, None, "REPRO_METRICS_HOLD_S", _seconds)

    tracing = bool(trace_path or args.stats)
    sink = server = None
    if trace_path:
        from .obs.sink import SpanSink

        try:
            sink = SpanSink(trace_path)
        except OSError as exc:
            parser.error(f"cannot write trace file {trace_path!r}: {exc}")
    if tracing:
        from .obs import trace

        trace.enable(sink)
        trace.set_meta("command", args.command)
    if serve_port is not None:
        from .obs.live import MetricsServer

        server = MetricsServer(serve_port).start()
        print(f"metrics: serving on {server.url}/metrics", file=sys.stderr)
    try:
        if tracing:
            with trace.span("cli." + args.command):
                return _COMMANDS[args.command](args)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    finally:
        if runner is not None:
            runner._store = previous_store
        shutdown_pool()
        if tracing:
            trace.disable()
        if sink is not None:
            sink.close()
            print(f"trace written to {trace_path}", file=sys.stderr)
        if args.stats:
            from .obs.export import stats_table

            try:
                print(stats_table(), file=sys.stderr)
            except BrokenPipeError:  # pragma: no cover - stderr piped and closed
                pass
        if server is not None:
            # Flush before the optional hold: the scrape-then-kill CI
            # pattern SIGTERMs us mid-hold, and block-buffered stdout
            # would lose the command's output.
            for stream in (sys.stdout, sys.stderr):
                try:
                    stream.flush()
                except Exception:
                    pass
            if hold_s:
                import time

                time.sleep(hold_s)
            server.close()
