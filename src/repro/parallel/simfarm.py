"""Simulation fan-out: independent replay runs across the worker pool.

A trial series is "record once, replay N times" — and once every run owns
a private :class:`~numpy.random.SeedSequence` (see
:func:`repro.testbeds.base.series_seed_plan`), the N replays are pure
functions of ``(profile, recordings, run seed)`` with no shared mutable
state.  :class:`SimFarm` exploits exactly that: it dispatches one
:func:`~repro.testbeds.base.simulate_run` per task through
:func:`repro.parallel.pool.fan_out` and places results **by run index**,
so the series is bit-identical to serial no matter the job count or the
completion order.

Transport is plain pickle: a task is ``(profile, recordings, run_seq,
label)`` and its result is the run's
:class:`~repro.testbeds.base.RunArtifacts`.  Measured on a 2-core host,
pickling replay runs was as fast as or faster than sharing them through
``multiprocessing.shared_memory`` (``docs/parallel.md``).

At ``jobs=1`` the farm calls :func:`simulate_run` in-process — the same
function the workers run — so the serial path is not a second
implementation but the identical code minus the transport.
"""

from __future__ import annotations

from ..obs import metrics
from ..obs.trace import span
from ..replay.recording import Recording
from ..testbeds.base import RunArtifacts, simulate_run
from ..testbeds.profiles import EnvironmentProfile
from .pool import default_jobs, fan_out

__all__ = ["SimFarm"]


def _simulate_run_task(task: tuple) -> RunArtifacts:
    """Worker-side: one replay, ``task = (profile, recordings, run_seq, label)``."""
    return simulate_run(*task)


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

    def run_series(
        self,
        profile: EnvironmentProfile,
        recordings: list[Recording],
        run_seqs,
        labels: list[str] | None = None,
    ) -> list[RunArtifacts]:
        """Simulate one run per seed sequence; results in run order."""
        run_seqs = list(run_seqs)
        n_runs = len(run_seqs)
        if n_runs == 0:
            return []
        if labels is None:
            labels = ["" for _ in range(n_runs)]
        if len(labels) != n_runs:
            raise ValueError("labels must match run_seqs in length")

        metrics.counter("sim.runs").add(n_runs)
        out: list[RunArtifacts | None] = [None] * n_runs
        with span("sim.series", n_runs=n_runs, jobs=self.jobs):
            if self.jobs == 1:
                for i in range(n_runs):
                    with span("sim.run", run=i):
                        out[i] = simulate_run(
                            profile, recordings, run_seqs[i], labels[i]
                        )
            else:
                tasks = [
                    (profile, recordings, run_seqs[i], labels[i])
                    for i in range(n_runs)
                ]
                for i, art in fan_out(
                    self.jobs, _simulate_run_task, tasks, name="sim.run",
                    attrs=[{"run": i} for i in range(n_runs)],
                ):
                    out[i] = art
        return out  # type: ignore[return-value]
