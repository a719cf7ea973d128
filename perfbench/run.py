"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contended --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs every item twice, plain and with the per-layer timing
wrappers of :mod:`perfbench.tracer`, checks that both outputs are
byte-identical, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's provenance.  ``perfbench/README.md`` describes the workloads, the
metrics and what each layer metric is predicted to move.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import platform
import shutil
import statistics
import sys
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: at least ``N_SETUPS``, and more while they have taken
#: less than ``SETUP_S`` seconds in all, up to ``MAX_SETUPS``; ``setup_s``
#: is their median.  A cold workload sets up in 0.1 to 0.2 s, and five
#: such set-ups gave ``setup_s`` a quartile spread of 18% over ten seeds.
N_SETUPS = 5
SETUP_S = 2.0
MAX_SETUPS = 15
#: A tail percentile is reported only with at least this many ops beyond it.
_MIN_TAIL_OPS = 10
#: Time of the reference job (:func:`_reference_ns`) at the reference CPU
#: speed, about its best time on an idle core of a 2-core x86 VM.
#:
#: On a shared host, other tenants' load changes the speed of a CPU by up
#: to a third, for seconds to minutes, and a benchmark run cannot wait it
#: out.  So every timing that reaches a metric is scaled to the reference
#: speed: ``t * REF_NS / r``, where ``r`` is the mean time of the reference
#: job run just before and just after ``t`` was taken.  Over 30 runs of one
#: ``reorder`` seed in a busy period, scaling by the job's time before each
#: item cut the quartile spread of ``pkts_per_s`` from 11.6% to 6.5% of its
#: median; over five ``contended`` seeds, timing the job on both sides cut
#: it from 10.0% to 3.5%.  Adding the patience pass to the job cut it
#: further, over ten ``stream`` seeds from 7.1% to 4.7% and over eight
#: ``contended`` seeds from 5.7% to 2.5% (``warm``: 4.2% and 5.1%, within
#: the noise of eight runs).  Raw timings stay in the provenance line.
REF_NS = 5_000_000
#: The percentile of an entry's repeats that the metrics take.  With many
#: repeats the least one is the repeat whose reference job happened to run
#: slowest, not the fastest item: over five 20 s ``warm`` runs the quartile
#: spread of ``pkts_per_s`` was 15% with the least repeat, 4.2% with the
#: 10th percentile and 5.8% with the median.
REPEAT_PERCENTILE = 10
_REF_LOOP = 30_000
_REF_SORT = 100_000
_REF_PILES = 9_000


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@functools.cache
def _reference_data():
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 30, _REF_PILES)
    return rng.integers(0, 1 << 30, _REF_SORT), values.tolist(), np.empty_like(values)


def _reference_ns() -> int:
    """Best of two timings of a fixed job: an interpreted loop, a sort and
    a patience pass.

    The program spends its time in the interpreter, in NumPy and in
    list-and-bisect loops such as the patience fill of the ordering metric,
    so the job does some of each.  Other tenants' load slows the last kind
    most (it reaches for Python objects all over the heap), and the
    ordering-heavy ``stream`` ops with it.
    """
    array, values, prev = _reference_data()
    times = []
    for _ in range(2):
        t0 = perf_counter_ns()
        acc = 0
        for i in range(_REF_LOOP):
            acc += i * i
        array.copy().sort()
        tails: list[int] = []
        tails_at: list[int] = []
        for i, v in enumerate(values):
            k = bisect_left(tails, v)
            if k == len(tails):
                tails.append(v)
                tails_at.append(i)
            else:
                tails[k] = v
                tails_at[k] = i
            prev[i] = tails_at[k - 1] if k else -1
        times.append(perf_counter_ns() - t0)
    return min(times)


def _set_up_again(times: list[float], traced: bool) -> bool:
    """Whether a run sets up once more, given its set-up times so far.

    A traced run reports no ``setup_s`` and sets up once.
    """
    if not times or traced:
        return not times
    if len(times) < N_SETUPS:
        return True
    return sum(times) < SETUP_S and len(times) < MAX_SETUPS


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0 if there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _low_repeat(values) -> float:
    """The :data:`REPEAT_PERCENTILE` of one entry's repeats (below eleven
    repeats, their least)."""
    ordered = sorted(values)
    return ordered[int(REPEAT_PERCENTILE / 100 * (len(ordered) - 1))]


@dataclass
class _Measured:
    """What a run measured, with every repeat of each plan entry.

    Items cycle over the plan, so each entry (a unit, a series or a warm
    pass) runs several times.  Host load slows some repeats down, so per
    entry the metrics take a low percentile of its busy times and of its
    summed op latencies, all at reference speed (see :data:`REF_NS`).
    """

    raw_op_ns: list[int] = field(default_factory=list)
    #: Every timing of the reference job, in order.
    ref_ns: list[int] = field(default_factory=list)
    #: Entry key -> [(busy ns, [op ns, ...]), ...] at reference speed.
    repeats: dict = field(default_factory=dict)
    pkts: dict = field(default_factory=dict)
    busy_ns: int = 0
    plain_busy_ns: int = 0
    attempted: int = 0
    failed: int = 0
    items: int = 0

    def add(self, key, pkts: int, busy_ns: float, op_ns: list[float]) -> None:
        """Record one item's busy time and op latencies at reference speed."""
        self.items += 1
        self.pkts[key] = pkts
        self.repeats.setdefault(key, []).append((busy_ns, op_ns))

    def pkts_per_s(self) -> float:
        busy = sum(_low_repeat([b for b, _ in reps]) for reps in self.repeats.values())
        return sum(self.pkts.values()) / (busy / 1e9) if busy else 0.0

    def op_mean_ns(self) -> float:
        """The plan's op time over its op count (0 if there are none).

        An entry's op time is the low percentile of its repeats' summed op
        latencies, as its busy time is for :meth:`pkts_per_s`.  Not a
        median: op latency is bimodal (a ``stream`` chunk of a run the
        switch reordered costs about twice one of an in-order run, and unit
        seeds split into two cost groups), so a median jumps between the
        modes as the mix shifts.  Not a low percentile per op either: each
        ``stream`` op is about a millisecond, and taking each one's luckiest
        repeat on its own tracked host load worse (over ten seeds in a busy
        period, a quartile spread of 25% against 17% for ``pkts_per_s``).
        """
        n_ops = sum(len(reps[0][1]) for reps in self.repeats.values())
        if not n_ops:
            return 0.0
        op_ns = sum(_low_repeat([sum(ops) for _, ops in reps]) for reps in self.repeats.values())
        return op_ns / n_ops


def _drive(wl, seconds: float, tracer=None) -> _Measured:
    """Issue items until the measured busy time passes ``seconds``.

    With a tracer, each item first runs plain, then wrapped, and both
    outputs must be byte-identical; the busy time of both counts, so a
    traced run takes about as long as an untraced one.  A raising op or a failed output check
    counts every op of its item (at least one) as failed and ends the run:
    the result is then incorrect whatever follows.
    """
    from perfbench.workloads import Recorder

    rec = Recorder(tracer=tracer)
    plain = Recorder()
    m = _Measured()
    deadline_ns = int(seconds * 1e9)
    ref_before = _reference_ns()
    m.ref_ns.append(ref_before)
    for key, item in wl.items():
        if rec.busy_ns + plain.busy_ns >= deadline_ns:
            break
        n_ops, busy, plain_busy = len(rec.op_ns), rec.busy_ns, plain.busy_ns
        try:
            if tracer is None:
                out = wl.run_item(item, rec)
                ok = wl.check(item, out)
            else:
                out = wl.run_item(item, plain)
                with tracer:
                    wrapped = wl.run_item(item, rec)
                ok = wl.check(item, out) and wrapped["output"] == out["output"]
        except Exception as exc:  # a raising op is a failed op, not a crash
            print(f"perfbench: op raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        item_ops = rec.op_ns[n_ops:]
        m.attempted += max(len(item_ops), 1)
        if not ok:
            m.failed += max(len(item_ops), 1)
            break
        ref_after = _reference_ns()
        m.ref_ns.append(ref_after)
        speed = 2 * REF_NS / (ref_before + ref_after)
        ref_before = ref_after
        m.add(key, out["pkts"], (rec.busy_ns - busy) * speed,
              [ns * speed for ns in item_ops])
        m.raw_op_ns.extend(item_ops)
        m.busy_ns += rec.busy_ns - busy
        m.plain_busy_ns += plain.busy_ns - plain_busy
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    from repro.obs import trace as repro_trace
    from repro.obs.export import host_context

    from perfbench.tracer import Tracer, layer_metric_names
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if repro_trace.is_enabled():
        raise SystemExit("perfbench: the program's own tracing must be off")

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    wl = None
    try:
        _factory, scale, why = WORKLOADS[args.workload]
        wl = make_workload(args.workload, args.seed, scale, workdir)
        setup_times, raw_setup_times = [], []
        ref_before = _reference_ns()
        while _set_up_again(raw_setup_times, args.trace):
            t0 = perf_counter()
            wl.setup()
            raw_setup_times.append(perf_counter() - t0)
            ref_after = _reference_ns()
            setup_times.append(raw_setup_times[-1] * 2 * REF_NS / (ref_before + ref_after))
            ref_before = ref_after
        gc.collect()
        rss_reset = _reset_peak_rss()

        tracer = Tracer() if args.trace else None
        m = _drive(wl, args.seconds, tracer)
        peak_rss = _peak_rss_mb()
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if tracer is not None:
        layer = tracer.report(m.plain_busy_ns / 1e9, m.busy_ns / 1e9)
        units = layer_metric_names()
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        missing = tracer.missing
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pkts_per_s": {"value": m.pkts_per_s(), "unit": "1/s"},
            "op_mean_ms": {"value": m.op_mean_ns() / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
        missing = []

    provenance = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "duration_scale": scale,
        "jobs": 1,
        "plan": wl.describe(),
        "ops_measured": len(m.raw_op_ns),
        "items_measured": m.items,
        "plan_entries_measured": len(m.repeats),
        "busy_s": m.busy_ns / 1e9,
        "reference_ms_median": statistics.median(m.ref_ns) / 1e6,
        "raw_setup_s_each": raw_setup_times,
        "peak_rss_reset": rss_reset,
        "untraced_layers": missing,
        "host": host_context(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }
    if tracer is None:
        provenance["raw_op_p50_ms"] = _percentile(m.raw_op_ns, 50) / 1e6
        # Only a workload with enough ops has a tail worth a number (stream).
        if len(m.raw_op_ns) * 0.01 >= _MIN_TAIL_OPS:
            provenance["raw_op_p99_ms"] = _percentile(m.raw_op_ns, 99) / 1e6
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    correct = m.failed == 0 and m.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
