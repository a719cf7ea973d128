"""The four closed-loop workloads of the repository benchmark.

Every workload is driven by one caller at ``jobs=1``: the next op is
issued only when the previous one returns.  A workload is split into
*items* (a plan entry and the ops that serve it), yielded as ``(key,
item)`` pairs that cycle over the plan, so that a run can compare each
entry's repeats and a traced run can replay each item with and without the
timing wrappers and compare the two outputs byte for byte.

``contended``  one cold ``run_sweep`` of a ``fabric-shared-40g-noisy``
               unit into a fresh store per op (shared port, tail drop,
               TCP background).
``reorder``    the same on ``local-dual`` (two replayers merging at the
               switch: reordering, no tail-drop queue).
``stream``     ``StreamKappa`` fed runs B..E of ``local-dual`` series in
               fixed-size chunks; each ``update`` is one op.
``warm``       repeated ``run_sweep`` passes over a store filled during
               set-up, every unit a hit; each pass is one op.

Inputs come from the workload seed alone: it draws the unit seeds, and the
program only ever sees the resulting plan.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from time import perf_counter_ns

__all__ = ["WORKLOADS", "Recorder", "make_workload", "unit_seeds"]

#: Distinct unit seeds (trial series for ``stream``) per plan.  Items
#: cycle over them, so every seed repeats: its ``sweep.json`` bytes are
#: compared across repeats, and a run reports a low percentile of them.
#: The cost of one seed's unit is bimodal (at scale 0.02, seeds 100..111
#: split between about 130 and 205 ms on ``fabric-shared-40g-noisy`` and
#: between 75 and 115 ms on ``local-dual``), so a plan needs many seeds
#: before its mean cost stops depending on the workload seed.
PLAN_UNITS = 32
#: Units of the ``warm`` store.  A read costs about the same for every
#: seed, so fewer units do, and each set-up fills the store anew.
WARM_UNITS = 8
#: Runs per trial series (A is the baseline, B..E the repeats).
N_RUNS = 5
#: Packets per ``StreamKappa.update`` call.
STREAM_CHUNK = 2048


def unit_seeds(seed: int) -> tuple[list[int], int]:
    """The plan's unit seeds and one warm-up seed outside the plan."""
    rng = random.Random(int(seed))
    draws = rng.sample(range(1, 1 << 30), PLAN_UNITS + 1)
    return draws[:PLAN_UNITS], draws[PLAN_UNITS]


@dataclass
class Recorder:
    """Op latencies and busy time of one caller; optionally traced.

    Busy time is the sum of the timed segments: every op plus the timed
    work between ops that is not itself an op (``StreamKappa`` set-up and
    ``result()`` in ``stream``).
    """

    tracer: object | None = None
    op_ns: list[int] = field(default_factory=list)
    busy_ns: int = 0

    def op(self, fn, *args, **kwargs):
        """Run one op and record its latency."""
        if self.tracer is not None:
            self.tracer.begin_op()
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            if self.tracer is not None:
                self.tracer.end_op()
            self.op_ns.append(dt)
            self.busy_ns += dt

    def timed(self, fn, *args):
        """Run timed work that is not an op."""
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.busy_ns += perf_counter_ns() - t0


def _sweep_json(result, outdir: Path) -> bytes:
    """The ``sweep.json`` bytes the program writes for ``result``."""
    from repro.sweep.coordinator import write_sweep_report

    report_path, _ = write_sweep_report(result, outdir)
    return report_path.read_bytes()


def _encoded(report) -> bytes:
    from repro.sweep.codec import series_report_to_dict

    return json.dumps(series_report_to_dict(report), sort_keys=True).encode()


class ColdSweep:
    """One cold single-unit sweep into a fresh store per op."""

    def __init__(self, scenario: str, seed: int, scale: float, workdir: Path) -> None:
        self.scenario = scenario
        self.seed = int(seed)
        self.scale = float(scale)
        self.workdir = workdir
        self.plan: list = []
        #: sweep.json bytes of each unit seed's first run.
        self._first: dict[int, bytes] = {}

    def describe(self) -> dict:
        seeds, warm = unit_seeds(self.seed)
        return {"scenario": self.scenario, "unit_seeds": seeds,
                "warmup_seed": warm, "n_runs": N_RUNS}

    def setup(self) -> None:
        from repro.sweep.coordinator import plan_from_scenarios

        seeds, warm = unit_seeds(self.seed)
        self.plan = plan_from_scenarios(
            [self.scenario], seeds=seeds, n_runs=N_RUNS, duration_scale=self.scale
        )
        warmup = plan_from_scenarios(
            [self.scenario], seeds=[warm], n_runs=N_RUNS, duration_scale=self.scale
        )
        if not self.check(warmup[0], self.run_item(warmup[0], Recorder())):
            raise RuntimeError("warm-up unit failed its output check")

    def items(self):
        return cycle(enumerate(self.plan))

    def run_item(self, unit, rec: Recorder) -> dict:
        from repro.sweep.coordinator import run_sweep
        from repro.sweep.store import ArtifactStore

        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            result = rec.op(run_sweep, [unit], ArtifactStore(store_dir), jobs=1)
            sweep_json = _sweep_json(result, store_dir / "out")
            entry = ArtifactStore(store_dir).get(unit.digest)
            stored_ok = (
                entry is not None
                and entry.report is not None
                and _encoded(entry.report) == _encoded(result.series[0])
            )
            pkts = sum(len(t) for t in entry.trials) if entry is not None else 0
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return {"output": sweep_json, "stored_ok": stored_ok, "pkts": pkts,
                "outcomes": result.outcomes}

    def check(self, unit, item: dict) -> bool:
        """The entry decodes to the report; repeats of a seed match."""
        first = self._first.setdefault(unit.seed, item["output"])
        return (
            item["stored_ok"]
            and item["outcomes"] == ("miss",)
            and item["output"] == first
        )

    def close(self) -> None:
        pass


class WarmSweep:
    """Repeated all-hit ``run_sweep`` passes over a store filled in set-up."""

    scenario = "local-dual"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.workdir = workdir
        self.store_dir: Path | None = None
        self.plan: list = []
        self.cold_json = b""
        self.pkts = 0

    def describe(self) -> dict:
        seeds, _ = unit_seeds(self.seed)
        return {"scenario": self.scenario, "unit_seeds": seeds[:WARM_UNITS],
                "n_runs": N_RUNS}

    def setup(self) -> None:
        from repro.sweep.coordinator import plan_from_scenarios, run_sweep
        from repro.sweep.store import ArtifactStore

        self.close()
        seeds, _ = unit_seeds(self.seed)
        self.plan = plan_from_scenarios(
            [self.scenario], seeds=seeds[:WARM_UNITS], n_runs=N_RUNS,
            duration_scale=self.scale,
        )
        self.store_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=self.workdir))
        cold = run_sweep(self.plan, ArtifactStore(self.store_dir), jobs=1)
        self.cold_json = _sweep_json(cold, self.workdir / "warm-cold")
        store = ArtifactStore(self.store_dir)
        self.pkts = sum(
            len(t) for unit in self.plan for t in store.get(unit.digest).trials
        )
        # One untimed warm pass pays the read path's first-call costs.
        if not self.check(None, self.run_item(None, Recorder())):
            raise RuntimeError("warm pass after set-up did not reproduce the cold sweep")

    def items(self):
        return cycle([(0, None)])

    def run_item(self, _item, rec: Recorder) -> dict:
        from repro.sweep.coordinator import run_sweep
        from repro.sweep.store import ArtifactStore

        store = ArtifactStore(self.store_dir)
        result = rec.op(run_sweep, self.plan, store, jobs=1)
        return {
            "output": _sweep_json(result, self.workdir / "warm-out"),
            "pkts": self.pkts,
            "misses": store.stats.misses,
            "writes": store.stats.writes,
            "outcomes": result.outcomes,
        }

    def check(self, _item, item: dict) -> bool:
        """Byte-identical to the cold sweep, all hits, nothing written."""
        return (
            item["output"] == self.cold_json
            and item["misses"] == 0
            and item["writes"] == 0
            and all(o == "hit" for o in item["outcomes"])
        )

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


class Stream:
    """``StreamKappa`` fed B..E of ``local-dual`` series, chunk by chunk."""

    scenario = "local-dual"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        #: (baseline A, runs B..E) of each plan seed.
        self.series: list[tuple] = []
        #: Batch ``compare_trials`` bytes by ``id`` of a series in
        #: :attr:`series`, computed on first use.
        self._expected: dict[int, bytes] = {}

    def describe(self) -> dict:
        seeds, warm = unit_seeds(self.seed)
        return {"scenario": self.scenario, "series_seeds": seeds, "warmup_seed": warm,
                "n_runs": N_RUNS, "chunk_pkts": STREAM_CHUNK}

    def _simulate(self, seed: int) -> tuple:
        from repro.experiments.scenarios import scenario
        from repro.testbeds.base import Testbed

        profile = scenario(self.scenario).profile(self.scale)
        trials = Testbed(profile, seed=seed).run_series(N_RUNS, jobs=1)
        return trials[0], trials[1:]

    def setup(self) -> None:
        seeds, warm = unit_seeds(self.seed)
        self.series = [self._simulate(s) for s in seeds]
        self._expected = {}
        # One untimed series outside the plan pays the first-call costs.
        warmup = self._simulate(warm)
        if self.run_item(warmup, Recorder())["output"] != self._batch_bytes(warmup):
            raise RuntimeError("warm-up series failed its output check")

    def items(self):
        return cycle(enumerate(self.series))

    def _feed(self, rec: Recorder, baseline, run) -> bytes:
        from repro.analysis.streamkappa import StreamKappa

        sk = rec.timed(StreamKappa, baseline)
        tags, times = run.tags, run.times_ns
        for lo in range(0, len(run), STREAM_CHUNK):
            rec.op(sk.update, tags[lo : lo + STREAM_CHUNK], times[lo : lo + STREAM_CHUNK])
        return _vector_bytes(rec.timed(sk.result))

    def run_item(self, series, rec: Recorder) -> dict:
        baseline, runs = series
        output = b"".join(self._feed(rec, baseline, run) for run in runs)
        return {"output": output, "pkts": sum(len(r) for r in runs)}

    @staticmethod
    def _batch_bytes(series) -> bytes:
        from repro.core.report import compare_trials

        baseline, runs = series
        return b"".join(
            _vector_bytes(compare_trials(baseline, run).metrics) for run in runs
        )

    def check(self, series, item: dict) -> bool:
        """The final ``result()`` of every run equals batch ``compare_trials``."""
        key = id(series)
        if key not in self._expected:
            self._expected[key] = self._batch_bytes(series)
        return item["output"] == self._expected[key]

    def close(self) -> None:
        pass


def _vector_bytes(v) -> bytes:
    """Exact bytes of a metric vector: every float by ``repr``."""
    return repr((v.u, v.o, v.l, v.i)).encode()


#: Workload name -> (factory, duration scale, one-line rationale).  A scale
#: of 1.0 is the paper's 0.3 s capture.  ``contended`` runs at 0.01: there a
#: unit costs the same for every seed (75 to 81 ms over seeds 100..111, with
#: tail drop still the largest layer), while at 0.02 it doubles and its
#: cost varies more between seeds; ``local-dual`` series vary less between
#: seeds at 0.02 than at 0.01.
WORKLOADS = {
    "contended": (
        lambda seed, scale, wd: ColdSweep("fabric-shared-40g-noisy", seed, scale, wd),
        0.01,
        "cold fabric-shared-40g-noisy units: the only shared-port tail-drop "
        "path with TCP background, so queueing/replay/generator work dominates",
    ),
    "reorder": (
        lambda seed, scale, wd: ColdSweep("local-dual", seed, scale, wd),
        0.02,
        "cold local-dual units: two replayers reorder at the switch, analysis "
        "(match/order) dominates and no tail-drop queue runs",
    ),
    "stream": (
        Stream,
        0.02,
        "StreamKappa fed B..E of local-dual series in fixed chunks: the "
        "incremental ordering path, with enough ops for a p99",
    ),
    "warm": (
        WarmSweep,
        0.02,
        "all-hit run_sweep passes over a filled store: the read path "
        "(sha256 verify, decode, merge) with no simulation or analysis",
    ),
}


def make_workload(name: str, seed: int, scale: float, workdir: Path):
    """Instantiate the named workload at ``scale`` (``KeyError`` for an
    unknown name)."""
    factory, _scale, _why = WORKLOADS[name]
    return factory(seed, scale, workdir)
