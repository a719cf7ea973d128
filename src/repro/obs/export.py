"""The ``--stats`` table, trace validation and the host context block.

* :func:`stats_table` — the human ``--stats`` rendering: per-stage wall
  aggregates (from :func:`repro.obs.trace.stage_totals`), counters,
  gauges and log2 histograms, headed by the run metadata accumulated via
  :func:`repro.obs.trace.set_meta` (seed, command, scale).
* :func:`validate_chrome_trace` — the schema check for a ``--trace``
  Chrome file (the CI ``obs-live-smoke`` job runs it);
  ``python -m repro.obs FILE --validate`` exposes it from a shell.  The
  trace files themselves are written by :class:`repro.obs.sink.SpanSink`.
* :func:`host_context` — the measurement-context block every
  performance artifact records.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import trace
from .metrics import REGISTRY, bucket_bounds, histogram_quantile

__all__ = [
    "stats_table",
    "validate_chrome_trace",
    "host_context",
    "usable_cores",
]


def usable_cores() -> int:
    """Cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_context() -> dict:
    """The measurement-context block every performance artifact records.

    One schema for benchmark JSONs (``benchmarks/_emit.py`` delegates
    here) and sweep telemetry (:mod:`repro.sweep.coordinator`): a timing
    or speedup number is meaningless without the usable core count,
    affinity mask and pool start method it was measured under, so perf
    gates can condition on the machine actually measured.
    """
    import multiprocessing

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = list(range(os.cpu_count() or 1))
    try:
        from ..parallel.pool import pool_start_method

        start_method = pool_start_method()
    except Exception:  # pragma: no cover - defensive
        start_method = multiprocessing.get_start_method()
    return {
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": affinity,
        "pool_start_method": start_method,
    }


def stats_table(registry=None, *, meta: dict | None = None) -> str:
    """The human ``--stats`` rendering: stages, counters, histograms."""
    stages, n_pids = trace.stage_totals()
    registry = REGISTRY if registry is None else registry
    snap = registry.snapshot()
    run_meta = dict(trace.get_meta())
    if meta:
        run_meta.update(meta)

    lines: list[str] = ["== repro run stats =="]
    if run_meta:
        lines.append(
            "meta: " + " ".join(f"{k}={v}" for k, v in sorted(run_meta.items()))
        )

    if stages:
        n_spans = sum(row[0] for row in stages.values())
        lines.append(f"\nspans ({n_spans} across {n_pids} processes):")
        lines.append(
            f"  {'stage':<28s} {'count':>6s} {'wall ms':>10s} "
            f"{'mean ms':>9s} {'max ms':>9s} {'cpu ms':>10s}"
        )
        for name in sorted(stages, key=lambda n: -stages[n][1]):
            count, wall, cpu, mx = stages[name]
            lines.append(
                f"  {name:<28s} {count:>6d} {wall / 1e6:>10.3f} "
                f"{wall / count / 1e6:>9.3f} {mx / 1e6:>9.3f} {cpu / 1e6:>10.3f}"
            )

    if snap["counters"]:
        lines.append("\ncounters:")
        for name in sorted(snap["counters"]):
            lines.append(f"  {name:<32s} {snap['counters'][name]:>14d}")
    if snap["gauges"]:
        lines.append("\ngauges:")
        for name in sorted(snap["gauges"]):
            lines.append(f"  {name:<32s} {snap['gauges'][name]:>14g}")
    if snap["histograms"]:
        lines.append("\nhistograms (log2 ns buckets):")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            if not h["count"]:
                continue
            mean = h["total"] / h["count"]
            lines.append(
                f"  {name:<32s} count={h['count']} mean={mean / 1e6:.3f}ms "
                f"min={h['min'] / 1e6:.3f}ms max={h['max'] / 1e6:.3f}ms"
            )
            # Derived quantiles (log2-bucket interpolated estimates) so
            # the tail — the warm-pool first-task latency story for
            # pool.queue_wait_ns — is readable without a trace viewer.
            p50, p95, p99 = (
                histogram_quantile(h, q) for q in (0.50, 0.95, 0.99)
            )
            lines.append(
                f"    p50={p50 / 1e6:.3f}ms p95={p95 / 1e6:.3f}ms "
                f"p99={p99 / 1e6:.3f}ms (log2-bucket estimate)"
            )
            peaks = sorted(
                (i for i, c in enumerate(h["counts"]) if c),
                key=lambda i: -h["counts"][i],
            )[:3]
            for i in sorted(peaks):
                lo, hi = bucket_bounds(i)
                lines.append(
                    f"    [{lo / 1e6:>10.3f}ms, {hi / 1e6:>10.3f}ms) "
                    f"{h['counts'][i]:>8d}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Validation (the CI obs-live-smoke check).
# ----------------------------------------------------------------------

def _is_number(value) -> bool:
    """JSON numbers only: ``true``/``false`` are not timestamps or values."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_chrome_trace(
    source,
    *,
    min_worker_pids: int = 0,
    require_spans: tuple[str, ...] = (),
    require_counters: tuple[str, ...] = (),
    min_counter_events: int = 0,
) -> dict:
    """Check a ``--trace`` Chrome file (or its parsed events) for schema.

    The file is the ``trace_event`` **JSON Array Format** a
    :class:`~repro.obs.sink.SpanSink` writes: a bare event array whose
    run metadata rides in the trailing ``trace_meta`` instant event.

    Raises :class:`ValueError` on any violation; returns a summary dict
    on success.  Checks, beyond per-event schema:

    * ``require_spans`` — span names that must appear;
    * ``min_worker_pids`` — least distinct non-parent pids (the
      acceptance check that a fan-out trace covers the workers);
    * counter (``ph:"C"``) events carry numeric non-negative ``ts`` and
      an ``args`` object of numeric values, and each ``(pid, name)``
      counter track's ``ts`` is non-decreasing;
    * ``require_counters`` / ``min_counter_events`` — counter-track
      coverage for live-telemetry smoke checks.

    The summary surfaces the sink's own drop accounting
    (``dropped_spans``, from its ``sink_dropped`` meta), so a trace
    that lost events to a write error is detected, never silently
    partial.
    """
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    else:
        doc = source
    if not isinstance(doc, list):
        raise ValueError(
            "not a trace_event JSON array (an object with traceEvents is "
            "the Object Format, which repro does not write)"
        )
    events = doc
    meta = {}
    for ev in reversed(events):
        if isinstance(ev, dict) and ev.get("name") == "trace_meta":
            meta = dict(ev.get("args") or {})
            break
    names: set[str] = set()
    counter_names: set[str] = set()
    pids: set[int] = set()
    n_complete = 0
    n_counter = 0
    last_counter_ts: dict[tuple, float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} missing required key {key!r}")
        if ev["ph"] == "X":
            for key in ("ts", "dur"):
                if key not in ev or not _is_number(ev[key]):
                    raise ValueError(f"complete event {i} missing numeric {key!r}")
            if ev["dur"] < 0 or ev["ts"] < 0:
                raise ValueError(f"complete event {i} has negative ts/dur")
            n_complete += 1
            names.add(ev["name"])
            pids.add(ev["pid"])
        elif ev["ph"] == "C":
            if "ts" not in ev or not _is_number(ev["ts"]):
                raise ValueError(f"counter event {i} missing numeric 'ts'")
            if ev["ts"] < 0:
                raise ValueError(f"counter event {i} has negative ts")
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"counter event {i} needs a non-empty args object")
            for k, v in args.items():
                if not _is_number(v):
                    raise ValueError(
                        f"counter event {i} arg {k!r} is not numeric"
                    )
            track = (ev["pid"], ev["name"])
            if ev["ts"] < last_counter_ts.get(track, float("-inf")):
                raise ValueError(
                    f"counter event {i} ts goes backwards on track {track}"
                )
            last_counter_ts[track] = ev["ts"]
            n_counter += 1
            counter_names.add(ev["name"])
        elif ev["ph"] not in ("M", "B", "E", "i"):
            raise ValueError(f"event {i} has unsupported phase {ev['ph']!r}")
    if n_complete == 0:
        raise ValueError("trace contains no complete (ph=X) span events")
    parent_pid = meta.get("parent_pid")
    worker_pids = pids - ({parent_pid} if parent_pid is not None else set())
    missing = [n for n in require_spans if n not in names]
    if missing:
        raise ValueError(f"trace is missing required span names: {missing}")
    missing_counters = [n for n in require_counters if n not in counter_names]
    if missing_counters:
        raise ValueError(
            f"trace is missing required counter tracks: {missing_counters}"
        )
    if n_counter < min_counter_events:
        raise ValueError(
            f"trace has {n_counter} counter events, "
            f"expected >= {min_counter_events}"
        )
    if len(worker_pids) < min_worker_pids:
        raise ValueError(
            f"trace covers {len(worker_pids)} worker pids, "
            f"expected >= {min_worker_pids}"
        )
    return {
        "n_events": len(events),
        "n_spans": n_complete,
        "n_counter_events": n_counter,
        "span_names": sorted(names),
        "counter_names": sorted(counter_names),
        "parent_pid": parent_pid,
        "worker_pids": sorted(worker_pids),
        "dropped_spans": meta.get("sink_dropped"),
        "meta": meta,
    }


def _main(argv=None) -> int:
    """``python -m repro.obs.export --validate FILE`` — the CI hook."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.export", description="Validate a repro trace_event file."
    )
    parser.add_argument("trace", help="path to a --trace output file")
    parser.add_argument("--validate", action="store_true",
                        help="accepted for readability; validation always runs")
    parser.add_argument("--min-worker-pids", type=int, default=0)
    parser.add_argument("--require", nargs="*", default=[],
                        metavar="SPAN", help="span names that must be present")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="counter track names that must be present")
    parser.add_argument("--min-counter-events", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        summary = validate_chrome_trace(
            args.trace,
            min_worker_pids=args.min_worker_pids,
            require_spans=tuple(args.require),
            require_counters=tuple(args.require_counter),
            min_counter_events=args.min_counter_events,
        )
    except ValueError as e:
        print(f"INVALID: {e}")
        return 1
    dropped = summary["dropped_spans"]
    drop_note = f", {dropped} dropped" if dropped else ""
    print(
        f"OK: {summary['n_spans']} spans, "
        f"{summary['n_counter_events']} counter events, "
        f"{len(summary['worker_pids'])} worker pids{drop_note}, "
        f"stages: {', '.join(summary['span_names'])}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(_main())
