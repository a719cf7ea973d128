"""The testbed runner: record once, replay N times, capture each run.

This is the simulation equivalent of the paper's evaluation protocol
(Sections 6-7):

1. the generator produces the CBR stream (split across replayers in the
   Figure-1 parallel topologies);
2. each Choir node forwards and records its substream once;
3. for every run, the PTP domain re-synchronizes, every node replays its
   recording toward one common scheduled instant, the substreams merge at
   the switch, traverse the (possibly shared) recorder port, and the
   recorder's timestamping hardware produces the capture;
4. captures are aligned to the run's scheduled start and returned as
   :class:`~repro.core.trial.Trial` objects for the Section-3 analysis.

Each run draws fresh per-run imperfections (start latency, frequency
error, stalls, clock steps, background realization) from a seeded
generator, so a series is exactly reproducible from its seed.

Seed discipline (pinned by ``tests/test_sim_seed_scheme.py``): the series
seed is a :class:`numpy.random.SeedSequence` root; each ``run_series``
call spawns one *series* child, which spawns one child for the shared
record phase plus one **per run**.  Every run therefore owns a private,
independent random stream keyed only by ``(seed, series index, run
index)`` — a run's packets do not depend on how many runs precede it, in
which order runs execute, or whether they execute in this process at all.
:meth:`Testbed.run_series` replays them in a plain loop; fan-out happens
one level up, across whole series (:mod:`repro.sweep.coordinator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.trial import Trial
from ..generators.cbr import CBRGenerator
from ..generators.splitter import split_by_port
from ..obs import metrics, trace
from ..net.link import Link
from ..net.pktarray import PacketArray
from ..net.sriov import SharedPort
from ..replay.choir import ChoirNode
from ..replay.recording import Recording
from ..timing.hwstamp import RealtimeHWStamper
from ..timing.ptp import PTPDomain
from .profiles import EnvironmentProfile

__all__ = [
    "Testbed",
    "RunArtifacts",
    "SeriesSeedPlan",
    "series_seed_plan",
    "build_nodes",
    "simulate_run",
]

#: Scheduled replay start used for every run; runs are simulated
#: independently, so a common virtual epoch keeps alignment trivial.
REPLAY_EPOCH_NS = 1e9


@dataclass(frozen=True)
class RunArtifacts:
    """Diagnostics of one simulated run (beyond the Trial itself)."""

    trial: Trial
    n_dropped: int
    n_stalls: int
    freq_errors_ppm: tuple[float, ...]
    start_offsets_ns: tuple[float, ...]
    #: Spawn key of the run's :class:`~numpy.random.SeedSequence`, set by
    #: :func:`simulate_run`.  Together with the testbed seed it identifies
    #: the run's random stream exactly — the provenance the differential
    #: suite pins.
    seed_key: tuple[int, ...] = ()


@dataclass(frozen=True)
class SeriesSeedPlan:
    """The seed derivation of one trial series — the reproducibility key.

    Derivation (do not change without updating the pinned regression
    test): ``SeedSequence(seed).spawn(series_index + 1)[series_index]``
    is the series sequence; its first child seeds the record phase, and
    child ``1 + i`` seeds run ``i``.  Run streams are therefore mutually
    independent by :meth:`numpy.random.SeedSequence.spawn` construction.
    """

    entropy: int
    record: np.random.SeedSequence
    runs: tuple[np.random.SeedSequence, ...]


def series_seed_plan(seed: int, n_runs: int, series_index: int = 0) -> SeriesSeedPlan:
    """Derive the record-phase and per-run seed sequences of one series."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if series_index < 0:
        raise ValueError("series_index must be >= 0")
    root = np.random.SeedSequence(int(seed))
    series = root.spawn(series_index + 1)[series_index]
    children = series.spawn(n_runs + 1)
    return SeriesSeedPlan(int(seed), children[0], tuple(children[1:]))


def build_nodes(profile: EnvironmentProfile) -> list[ChoirNode]:
    """The environment's replay nodes, fresh and without recordings.

    Node construction is deterministic given the profile, so every run
    rebuilds identical nodes and only the recordings carry over.
    """
    return [
        ChoirNode(
            name=f"replayer-{k}",
            tx_nic=profile.tx_nic,
            loop_cost=profile.loop_cost,
            replay_loop_cost=profile.replay_loop_cost,
            timing=profile.replay_timing,
            buffer_bytes=profile.buffer_bytes,
        )
        for k in range(profile.n_replayers)
    ]


def simulate_run(
    profile: EnvironmentProfile,
    recordings: list[Recording],
    run_seq: np.random.SeedSequence,
    label: str = "",
) -> RunArtifacts:
    """Simulate one replay run from its seed sequence.

    Rebuilds fresh nodes, arms them with the (immutable) recordings, and
    replays with a private generator seeded from ``run_seq``; a run's
    output depends only on ``(profile, recordings, run_seq, label)``,
    never on sibling runs.
    """
    nodes = build_nodes(profile)
    if len(recordings) != len(nodes):
        raise ValueError(
            f"profile has {len(nodes)} replayers but {len(recordings)} "
            "recordings were supplied"
        )
    for node, recording in zip(nodes, recordings):
        node.recording = recording

    rng = np.random.default_rng(run_seq)
    artifacts = _replay_once(profile, nodes, rng, label)
    return replace(
        artifacts, seed_key=tuple(int(k) for k in run_seq.spawn_key)
    )


def _replay_once(
    profile: EnvironmentProfile,
    nodes: list[ChoirNode],
    rng: np.random.Generator,
    label: str = "",
) -> RunArtifacts:
    """Phase 3-4 for a single run: replay through every layer to the capture."""
    p = profile
    ptp = PTPDomain(profile=p.ptp, rng=rng)
    for node, offset in zip(nodes, ptp.synchronize_all(len(nodes))):
        node.clock_offset_ns = offset

    outcomes = [node.replay(REPLAY_EPOCH_NS, rng) for node in nodes]

    if p.switch is not None:
        merged = p.switch.forward_merged([o.egress for o in outcomes], rng)
    else:
        merged, _ = PacketArray.merge([o.egress for o in outcomes])

    if p.wan is not None:
        merged = p.wan.traverse(merged, rng)

    n_dropped = 0
    if p.background is not None:
        bg_gen = p.background.generator
        # Background spans the replay window with margin on both sides.
        t0 = float(merged.times_ns[0]) - 1e6
        span = float(merged.times_ns[-1]) - t0 + 2e6
        background = bg_gen.generate(span, rng, start_ns=t0)
        port = SharedPort(
            rate_bps=p.shared_port_rate_bps,
            vf_queue_packets=p.background.vf_queue_packets,
        )
        result = port.traverse(merged, background)
        delivered = result.batch
        n_dropped = result.n_dropped
    else:
        recorder_link = Link(rate_bps=p.shared_port_rate_bps, propagation_ns=500.0)
        delivered = recorder_link.traverse(merged)

    stamper = p.rx_stamper if p.rx_stamper is not None else RealtimeHWStamper()
    stamped = stamper.stamp(delivered.times_ns, rng)
    stamped = p.clock_steps.apply(stamped, p.duration_ns, rng)

    # The recorder's own clock phase (PTP residual of this epoch).
    recorder_offset = float(rng.normal(0.0, p.ptp.residual_ns))
    stamped = stamped + recorder_offset

    trial = Trial.from_arrival_events(
        delivered.tags,
        stamped - REPLAY_EPOCH_NS,
        label=label,
        meta={"environment": p.name, "n_dropped": n_dropped},
    )
    return RunArtifacts(
        trial=trial,
        n_dropped=n_dropped,
        n_stalls=sum(o.n_stalls for o in outcomes),
        freq_errors_ppm=tuple(o.freq_error_ppm for o in outcomes),
        start_offsets_ns=tuple(
            o.achieved_start_ns - REPLAY_EPOCH_NS for o in outcomes
        ),
    )


@dataclass
class Testbed:
    """One environment, instantiated and ready to run trial series."""

    # Not a pytest test class despite the name (it gets imported into
    # test modules); no annotation, so dataclass ignores it.
    __test__ = False

    profile: EnvironmentProfile
    seed: int = 0
    #: Series spawned so far; successive run_series calls on one testbed
    #: derive distinct (but reproducible) seed plans.
    _series_count: int = field(init=False, default=0, repr=False)

    # ------------------------------------------------------------------
    def _record_all(
        self, nodes: list[ChoirNode], rng: np.random.Generator
    ) -> None:
        """Generate the stream and record it on every node (phase 1-2)."""
        p = self.profile
        generator = p.workload if p.workload is not None else CBRGenerator(
            rate_bps=p.rate_bps, packet_bytes=p.packet_bytes
        )
        stream = generator.generate(p.duration_ns, rng)
        substreams = split_by_port(stream, p.n_replayers)
        ingress_link = Link(rate_bps=p.tx_nic.rate_bps, propagation_ns=500.0)
        for node, sub in zip(nodes, substreams):
            node.record(ingress_link.traverse(sub), rng)

    # ------------------------------------------------------------------
    def run_series(
        self, n_runs: int = 5, *, labels: list[str] | None = None,
        collect_artifacts: bool = False, jobs: int = 1,
    ):
        """Record once, replay ``n_runs`` times; return the trials.

        With ``collect_artifacts=True`` returns ``(trials, artifacts)``.
        Labels default to the paper's A, B, C, ... convention.

        The replays run in-process, one after another.  ``jobs`` accepts
        only 1: a series is never split across workers — whole series fan
        out as sweep units (:func:`repro.sweep.coordinator.run_sweep`).
        """
        if jobs != 1:
            raise ValueError(
                f"run_series runs serially (jobs must be 1, got {jobs!r}); "
                "fan out whole series with repro.sweep.run_sweep"
            )
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        plan = series_seed_plan(self.seed, n_runs, series_index=self._series_count)
        self._series_count += 1

        nodes = build_nodes(self.profile)
        with trace.span(
            "testbed.record", environment=self.profile.name, n_runs=n_runs
        ):
            self._record_all(nodes, np.random.default_rng(plan.record))
        recordings = [node.recording for node in nodes]
        metrics.counter("testbed.series_recorded").add()

        if labels is None:
            labels = [chr(ord("A") + i) if i < 26 else f"run{i}" for i in range(n_runs)]
        if len(labels) != n_runs:
            raise ValueError("labels must match n_runs in length")

        metrics.counter("sim.runs").add(n_runs)
        artifacts = []
        with trace.span("sim.series", n_runs=n_runs):
            for i, (run_seq, label) in enumerate(zip(plan.runs, labels)):
                with trace.span("sim.run", run=i):
                    artifacts.append(
                        simulate_run(self.profile, recordings, run_seq, label)
                    )
        trials = [a.trial for a in artifacts]
        if collect_artifacts:
            return trials, artifacts
        return trials
