"""Simulation fan-out: independent replay runs across the worker pool.

A trial series is "record once, replay N times" — and once every run owns
a private :class:`~numpy.random.SeedSequence` (see
:func:`repro.testbeds.base.series_seed_plan`), the N replays are pure
functions of ``(profile, recordings, run seed)`` with no shared mutable
state.  :class:`SimFarm` exploits exactly that: it ships the recordings
into shared memory once, dispatches one :func:`~repro.testbeds.base.
simulate_run` per worker task on the persistent pool
(:mod:`repro.parallel.pool`), and reassembles results **by run index**, so
the series is bit-identical to serial no matter the job count, the
completion order, or even the submission order.

Transport follows the package's rules (:mod:`~.shm`): packet
arrays never pickle.  Inputs — each recording's tag/size/time arrays and
burst metadata — travel as :class:`~.shm.ArraySpec` handles; outputs come
back through per-run shared buffers pre-sized to the recorded packet count
(replay can drop packets but never mint them), with only scalars crossing
the pickle boundary.

At ``jobs=1`` the farm calls :func:`simulate_run` in-process — the same
function the workers run — so the serial path is not a second
implementation but the identical code minus the transport.
"""

from __future__ import annotations

import numpy as np

from ..core.trial import Trial
from ..net.pktarray import PacketArray
from ..obs import metrics
from ..obs.trace import span
from ..replay.recording import Recording
from ..testbeds.base import RunArtifacts, Testbed, simulate_run
from ..testbeds.profiles import EnvironmentProfile
from .pool import default_jobs, gather, get_pool, submit_task
from .shm import ShmArena, attach_view, detach_all

__all__ = ["SimFarm", "run_series_parallel"]


# ----------------------------------------------------------------------
# Worker task body (module level: picklable by the process pool).
# ----------------------------------------------------------------------

def _rebuild_recording(spec: dict, attachments: dict) -> Recording:
    """Worker-side: a Recording whose arrays are views into shared memory."""
    packets = PacketArray(
        attach_view(spec["tags"], attachments),
        attach_view(spec["sizes"], attachments),
        attach_view(spec["times_ns"], attachments),
        meta=dict(spec["pkt_meta"]),
    )
    return Recording(
        packets=packets,
        burst_ids=attach_view(spec["burst_ids"], attachments),
        burst_tsc=attach_view(spec["burst_tsc"], attachments),
        tsc=spec["tsc"],
        truncated=spec["truncated"],
        meta=dict(spec["meta"]),
    )


def _simulate_run_worker(task: dict):
    """Run one replay and write its trial into the shared output buffers.

    Returns only scalars; the parent rebuilds the Trial from its own view
    of the output segments, so packet arrays cross no pickle boundary in
    either direction.
    """
    attachments: dict = {}
    try:
        recordings = [
            _rebuild_recording(spec, attachments) for spec in task["recordings"]
        ]
        art = simulate_run(
            task["profile"], recordings, task["run_seq"], task["label"]
        )
        out_tags = attach_view(task["out_tags"], attachments)
        out_times = attach_view(task["out_times"], attachments)
        n = len(art.trial)
        out_tags[:n] = art.trial.tags
        out_times[:n] = art.trial.times_ns
        return {
            "n": n,
            "meta": dict(art.trial.meta),
            "n_dropped": art.n_dropped,
            "n_stalls": art.n_stalls,
            "freq_errors_ppm": art.freq_errors_ppm,
            "start_offsets_ns": art.start_offsets_ns,
            "seed_key": art.seed_key,
        }
    finally:
        detach_all(attachments)


# ----------------------------------------------------------------------
# The farm
# ----------------------------------------------------------------------

class SimFarm:
    """Dispatch a series' independent replay runs across the global pool.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` reads ``REPRO_JOBS`` (default 1).
        ``jobs=1`` runs every replay in-process through the identical
        :func:`~repro.testbeds.base.simulate_run`; ``jobs>1`` draws on the
        persistent pool from :func:`repro.parallel.pool.get_pool` — the
        farm never creates (or shuts down) an executor of its own.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = default_jobs() if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    # ------------------------------------------------------------------
    def run_series(
        self,
        profile: EnvironmentProfile,
        recordings: list[Recording],
        run_seqs,
        labels: list[str] | None = None,
        *,
        submit_order: list[int] | None = None,
    ) -> list[RunArtifacts]:
        """Simulate one run per seed sequence; results in run order.

        ``submit_order`` permutes only the order tasks are handed to the
        pool (the seed-independence property test sweeps it); the returned
        list is always indexed by run, and every element is bit-identical
        regardless of that order.
        """
        run_seqs = list(run_seqs)
        n_runs = len(run_seqs)
        if n_runs == 0:
            return []
        if labels is None:
            labels = ["" for _ in range(n_runs)]
        if len(labels) != n_runs:
            raise ValueError("labels must match run_seqs in length")
        if submit_order is None:
            submit_order = list(range(n_runs))
        if sorted(submit_order) != list(range(n_runs)):
            raise ValueError("submit_order must be a permutation of the runs")

        metrics.counter("sim.runs").add(n_runs)
        if self.jobs == 1:
            out: list[RunArtifacts | None] = [None] * n_runs
            with span("sim.series", n_runs=n_runs, jobs=1):
                for i in submit_order:
                    with span("sim.run", run=i):
                        out[i] = simulate_run(
                            profile, recordings, run_seqs[i], labels[i]
                        )
            return out  # type: ignore[return-value]

        pool = get_pool(self.jobs)
        # Replay drops packets but never creates them, so the recorded
        # packet count bounds every run's trial size.
        capacity = sum(len(rec) for rec in recordings)
        with span("sim.series", n_runs=n_runs, jobs=self.jobs), \
                ShmArena() as arena:
            rec_specs = [self._share_recording(arena, rec) for rec in recordings]
            futures: list = [None] * n_runs
            out_bufs: list = [None] * n_runs
            for i in submit_order:
                out_tags, tags_buf = arena.allocate(capacity, np.int64)
                out_times, times_buf = arena.allocate(capacity, np.float64)
                out_bufs[i] = (tags_buf, times_buf)
                task = {
                    "profile": profile,
                    "recordings": rec_specs,
                    "run_seq": run_seqs[i],
                    "label": labels[i],
                    "out_tags": out_tags,
                    "out_times": out_times,
                }
                futures[i] = submit_task(
                    pool, _simulate_run_worker, task, name="sim.run", run=i
                )
            scalars = gather(futures)

            artifacts = []
            for i, s in enumerate(scalars):
                tags_buf, times_buf = out_bufs[i]
                n = s["n"]
                trial = Trial(
                    tags_buf[:n].copy(),
                    times_buf[:n].copy(),
                    label=labels[i],
                    meta=s["meta"],
                )
                artifacts.append(
                    RunArtifacts(
                        trial=trial,
                        n_dropped=s["n_dropped"],
                        n_stalls=s["n_stalls"],
                        freq_errors_ppm=s["freq_errors_ppm"],
                        start_offsets_ns=s["start_offsets_ns"],
                        seed_key=s["seed_key"],
                    )
                )
        return artifacts

    # ------------------------------------------------------------------
    @staticmethod
    def _share_recording(arena: ShmArena, rec: Recording) -> dict:
        """Copy one recording's arrays into the arena; pickle only handles.

        The TSC model, truncation flag and meta dicts are tiny and ride
        the pickle; the five per-packet/per-burst arrays go through shared
        memory.
        """
        return {
            "tags": arena.share(rec.packets.tags),
            "sizes": arena.share(rec.packets.sizes),
            "times_ns": arena.share(rec.packets.times_ns),
            "pkt_meta": dict(rec.packets.meta),
            "burst_ids": arena.share(rec.burst_ids),
            "burst_tsc": arena.share(rec.burst_tsc),
            "tsc": rec.tsc,
            "truncated": rec.truncated,
            "meta": dict(rec.meta),
        }


def run_series_parallel(
    testbed: Testbed,
    n_runs: int = 5,
    *,
    labels: list[str] | None = None,
    jobs: int | None = None,
):
    """Convenience wrapper: ``testbed.run_series(..., jobs=jobs)``."""
    return testbed.run_series(n_runs, labels=labels, jobs=jobs)
