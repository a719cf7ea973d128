#!/usr/bin/env python3
"""Diff benchmark artifacts across runs/PRs.

Two document schemas are understood.

``benchmarks/out/*.json`` (see ``benchmarks/_emit.py``):
``{bench, params, host, wall_s, per_stage}``.  Two of them are diffed as
a *baseline* against a *candidate*:

* refuses to compare different benchmarks, and warns when ``params`` or
  the measurement host differ (a wall-time delta measured on different
  core counts is noise, not signal);
* reports ``wall_s`` and every shared ``per_stage`` entry as absolute
  and percent deltas, plus stages that appear/disappear;
* flags regressions past a threshold (``--threshold-pct``, default 10%)
  and exits 1 when ``--fail-on-regression`` is set — the CI wiring.

Root-level ``BENCH_<workload>.json`` (the repository benchmark's
trajectory, one file per ``perfbench`` workload)::

    {
      "workload": "contended",
      "command": "python3 perfbench/run.py --workload contended ...",
      "commit": "<the parent commit the change was measured against>",
      "change": "<what the change did>",
      "seeds": [201, 202, ...],
      "end_to_end": {
        "pkts_per_s": {"unit": "1/s", "better": "higher",
                       "parent": {"median": ..., "q1": ..., "q3": ...,
                                  "runs": [...]},
                       "change": {...}},
        ...
      },
      "traced": {"seed": 1, "seconds": 8,
                 "layers": {"core.patience_ms": {"unit": "ms",
                            "better": "lower", "parent": ..., "change": ...},
                            ...}}
    }

One such file is diffed parent against change; two are diffed as the
trajectory, the baseline's ``change`` side against the candidate's.
Every end-to-end median and traced layer is a row, and a move past the
threshold in the metric's worse direction (``better``) is a regression.

Usage::

    python scripts/compare_bench_json.py old/streaming_kappa.json \
        new/streaming_kappa.json --threshold-pct 15 --fail-on-regression
    python scripts/compare_bench_json.py BENCH_contended.json
    python scripts/compare_bench_json.py old/BENCH_reorder.json BENCH_reorder.json

Stdlib only.  Output is plain text, one line per compared quantity.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_bench(path) -> dict:
    """Load and shape-check one benchmark JSON document."""
    doc = json.loads(Path(path).read_text())
    for key in ("bench", "params", "wall_s", "per_stage"):
        if key not in doc:
            raise ValueError(f"{path}: not a bench document (missing {key!r})")
    if not isinstance(doc["per_stage"], dict):
        raise ValueError(f"{path}: per_stage must be an object")
    return doc


def load_doc(path) -> dict:
    """Load either schema; trajectory documents are shape-checked here."""
    doc = json.loads(Path(path).read_text())
    if "bench" in doc:
        return load_bench(path)
    for key in ("workload", "end_to_end", "traced"):
        if key not in doc:
            raise ValueError(
                f"{path}: neither a bench nor a BENCH_<workload> document "
                f"(missing {key!r})"
            )
    return doc


def is_trajectory(doc: dict) -> bool:
    """Whether ``doc`` is a root-level ``BENCH_<workload>.json`` document."""
    return "workload" in doc


def _pct(old: float, new: float) -> float | None:
    """Percent change new vs old; None when old is ~zero (undefined)."""
    if old <= 1e-12:
        return None
    return (new - old) / old * 100.0


def compare_bench(
    baseline: dict, candidate: dict, *, threshold_pct: float = 10.0
) -> dict:
    """Structured comparison of two bench documents.

    Returns ``{bench, comparable, warnings, rows, regressions}`` where
    each row is ``{name, base_s, cand_s, delta_s, delta_pct, flag}`` and
    ``flag`` is ``"REGRESSION"`` / ``"improved"`` / ``""``.  Rows for
    stages present on only one side get ``None`` for the missing value.
    """
    warnings: list[str] = []
    if baseline["bench"] != candidate["bench"]:
        raise ValueError(
            f"refusing to compare different benchmarks: "
            f"{baseline['bench']!r} vs {candidate['bench']!r}"
        )
    if baseline["params"] != candidate["params"]:
        warnings.append(
            "params differ: "
            f"baseline {baseline['params']} vs candidate {candidate['params']}"
        )
    hb, hc = baseline.get("host", {}), candidate.get("host", {})
    for key in ("usable_cores", "pool_start_method"):
        if hb.get(key) != hc.get(key):
            warnings.append(
                f"host {key} differs: {hb.get(key)!r} vs {hc.get(key)!r} "
                "(wall-time deltas may be host noise)"
            )

    rows = []
    regressions = []

    def add_row(name: str, old, new) -> None:
        if old is None or new is None:
            rows.append({
                "name": name, "base_s": old, "cand_s": new,
                "delta_s": None, "delta_pct": None,
                "flag": "added" if old is None else "removed",
            })
            return
        pct = _pct(old, new)
        flag = ""
        if pct is not None and pct > threshold_pct:
            flag = "REGRESSION"
            regressions.append(name)
        elif pct is not None and pct < -threshold_pct:
            flag = "improved"
        rows.append({
            "name": name, "base_s": old, "cand_s": new,
            "delta_s": new - old, "delta_pct": pct, "flag": flag,
        })

    add_row("wall_s", float(baseline["wall_s"]), float(candidate["wall_s"]))
    stages = sorted(
        set(baseline["per_stage"]) | set(candidate["per_stage"])
    )
    for name in stages:
        add_row(
            f"per_stage.{name}",
            baseline["per_stage"].get(name),
            candidate["per_stage"].get(name),
        )
    return {
        "bench": baseline["bench"],
        "comparable": not warnings,
        "warnings": warnings,
        "rows": rows,
        "regressions": regressions,
    }


def _side(metrics: dict, name: str, which: str, median: bool):
    """One side's value of a trajectory metric (its median end to end)."""
    entry = metrics.get(name)
    if entry is None:
        return None
    return entry[which]["median"] if median else entry[which]


def compare_trajectory(
    baseline: dict, candidate: dict, *, threshold_pct: float = 10.0,
    base_side: str = "change",
) -> dict:
    """Structured comparison of two ``BENCH_<workload>`` documents.

    Compares ``baseline[...][base_side]`` with ``candidate[...]["change"]``
    (pass one document twice with ``base_side="parent"`` for the diff a
    single file records).  Returns ``{bench, comparable, warnings, rows,
    regressions}`` where each row is ``{name, unit, base, cand, delta_pct,
    flag}``; end-to-end rows compare medians.
    """
    if baseline["workload"] != candidate["workload"]:
        raise ValueError(
            f"refusing to compare different workloads: "
            f"{baseline['workload']!r} vs {candidate['workload']!r}"
        )
    warnings: list[str] = []
    for key in ("command", "host"):
        if baseline.get(key) != candidate.get(key):
            warnings.append(
                f"{key} differs: {baseline.get(key)!r} vs {candidate.get(key)!r}"
            )
    rows = []
    regressions = []
    sections = (
        ("end_to_end", baseline["end_to_end"], candidate["end_to_end"]),
        ("layers", baseline["traced"]["layers"], candidate["traced"]["layers"]),
    )
    for section, base, cand in sections:
        for name in sorted(set(base) | set(cand)):
            metric = cand.get(name) or base[name]
            median = section == "end_to_end"
            old = _side(base, name, base_side, median)
            new = _side(cand, name, "change", median)
            pct = None if old is None or new is None else _pct(old, new)
            flag = "added" if old is None else "removed" if new is None else ""
            if pct is not None:
                worse = pct if metric.get("better", "lower") == "lower" else -pct
                if worse > threshold_pct:
                    flag = "REGRESSION"
                    regressions.append(f"{section}.{name}")
                elif worse < -threshold_pct:
                    flag = "improved"
            rows.append({"name": f"{section}.{name}", "unit": metric.get("unit", ""),
                         "base": old, "cand": new, "delta_pct": pct, "flag": flag})
    return {
        "bench": f"BENCH_{baseline['workload']} ({base_side} -> change)",
        "comparable": not warnings,
        "warnings": warnings,
        "rows": rows,
        "regressions": regressions,
    }


def _fmt(value, unit: str) -> str:
    return "-" if value is None else f"{value:.4g} {unit}".rstrip()


def render(result: dict) -> str:
    """The human rendering of :func:`compare_bench` or :func:`compare_trajectory`."""
    lines = [f"== bench diff: {result['bench']} =="]
    for w in result["warnings"]:
        lines.append(f"warning: {w}")
    lines.append(
        f"  {'quantity':<32s} {'baseline':>12s} {'candidate':>12s} "
        f"{'delta':>12s} {'%':>8s}"
    )
    for row in result["rows"]:
        if "unit" in row:
            base, cand = _fmt(row["base"], row["unit"]), _fmt(row["cand"], row["unit"])
            delta = "-" if row["base"] is None or row["cand"] is None else (
                f"{row['cand'] - row['base']:+.4g}")
        else:
            base = f"{row['base_s']:.4f}s" if row["base_s"] is not None else "-"
            cand = f"{row['cand_s']:.4f}s" if row["cand_s"] is not None else "-"
            delta = (
                f"{row['delta_s']:+.4f}s" if row["delta_s"] is not None else "-"
            )
        pct = (
            f"{row['delta_pct']:+.1f}%" if row["delta_pct"] is not None else "-"
        )
        flag = f"  {row['flag']}" if row["flag"] else ""
        lines.append(
            f"  {row['name']:<32s} {base:>12s} {cand:>12s} "
            f"{delta:>12s} {pct:>8s}{flag}"
        )
    if result["regressions"]:
        lines.append(
            f"{len(result['regressions'])} regression(s): "
            + ", ".join(result["regressions"])
        )
    else:
        lines.append("no regressions past threshold")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two benchmarks/out/*.json artifacts, two "
        "BENCH_<workload>.json files, or one BENCH file's parent and change."
    )
    parser.add_argument("baseline", help="the older bench JSON")
    parser.add_argument(
        "candidate", nargs="?",
        help="the newer bench JSON (omit to diff one BENCH file's parent "
        "against its change)",
    )
    parser.add_argument(
        "--threshold-pct", type=float, default=10.0, metavar="PCT",
        help="flag quantities more than PCT%% slower as regressions "
        "(default 10)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any quantity regresses past the threshold",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_doc(args.baseline)
        if args.candidate is None:
            if not is_trajectory(baseline):
                raise ValueError("one file diffs only a BENCH_<workload> document")
            result = compare_trajectory(
                baseline, baseline, threshold_pct=args.threshold_pct,
                base_side="parent",
            )
        else:
            candidate = load_doc(args.candidate)
            if is_trajectory(baseline) != is_trajectory(candidate):
                raise ValueError("cannot diff a bench document against a BENCH one")
            compare = compare_trajectory if is_trajectory(baseline) else compare_bench
            result = compare(baseline, candidate, threshold_pct=args.threshold_pct)
    except ValueError as exc:
        print(f"compare_bench_json: {exc}", file=sys.stderr)
        return 2
    print(render(result))
    if args.fail_on_regression and result["regressions"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
