"""Experiment execution: run scenarios, cache series reports per process.

Several figures and both tables draw on the same underlying trial series
(e.g. Table 2 needs all nine environments; Figures 4a and 4b share the
local-single series).  ``run_scenario`` memoizes by (scenario, scale,
n_runs, seed) so a full benchmark session simulates each environment once.

Fan-out: ``run_scenario(..., jobs=N)`` (or ``REPRO_JOBS=N`` in the
environment) parallelizes **both** stages on the shared worker pool — the
simulation through :class:`repro.parallel.SimFarm` (one replay run per
task) and the comparison through
:func:`repro.parallel.compare_series_parallel` (one whole trial pair per
task) — and both run the unmodified serial code per item, so figure and
table reproductions are byte-stable under any job count.  The series cache is therefore keyed
*without* the job count: trials simulated at any ``jobs`` are
interchangeable bit-for-bit.

Persistence: the in-process cache dies with the process; ``--store DIR``
(or ``REPRO_STORE=DIR``, or :func:`configure_store`) backs it with the
content-addressed artifact store of :mod:`repro.sweep.store`, so a
Table-2 / figure / validation driver reuses any series ever simulated
for the same content digest — including entries written by ``repro
sweep`` — and feeds its own misses back in.  The digest is jobs-free and
start-method-free, like the in-process key.
"""

from __future__ import annotations

import os

from ..core.report import RunSeriesReport
from ..core.trial import Trial
from ..obs import metrics
from ..obs.trace import span
from ..testbeds import EnvironmentProfile, Testbed
from .scenarios import scenario

__all__ = [
    "run_trials",
    "run_scenario",
    "run_scenario_trials",
    "analyze_trials",
    "configure_store",
    "persistent_store",
]


def analyze_trials(
    trials: list[Trial], environment: str = "", jobs: int | None = None
) -> RunSeriesReport:
    """Compare a trial series, fanning analysis across ``jobs`` processes.

    ``jobs=None`` honors ``REPRO_JOBS`` (default 1 — the serial path);
    any value produces the identical report.
    """
    from ..parallel import compare_series_parallel, default_jobs

    jobs = default_jobs() if jobs is None else int(jobs)
    with span(
        "experiment.analyze",
        environment=environment,
        n_trials=len(trials),
        jobs=jobs,
    ):
        return compare_series_parallel(trials, environment=environment, jobs=jobs)


def run_trials(
    profile: EnvironmentProfile,
    n_runs: int = 5,
    seed: int = 0,
    jobs: int | None = None,
) -> list[Trial]:
    """Run a trial series on an ad-hoc profile (the quickstart entry point).

    ``jobs`` fans the independent replays across the shared worker pool;
    the trials are bit-identical at any value.
    """
    return Testbed(profile, seed=seed).run_series(n_runs, jobs=jobs)


#: Memoized series per (scenario, scale, n_runs, seed).  A plain dict, not
#: ``lru_cache``: the job count must NOT be part of the key (output is
#: jobs-invariant, and a jobs-keyed cache would re-simulate — and break the
#: identity guarantee tests rely on — when a caller switches job counts).
_series_cache: dict = {}
_SERIES_CACHE_MAX = 32

#: The persistent artifact store behind the in-process cache:
#: ``configure_store`` (or ``--store`` / ``REPRO_STORE``) makes scenario
#: series durable across invocations.  ``False`` = not yet resolved.
_store = False


def configure_store(store) -> None:
    """Install the persistent series store used on in-process cache misses.

    ``store`` is an :class:`repro.sweep.ArtifactStore`, a directory path
    to create one over, or ``None`` to disable persistence (which also
    stops ``REPRO_STORE`` from being consulted this process).  The store
    is keyed by content digest — scenario profile × seed scheme × series
    length — never by job count or pool start method, so any invocation
    shape shares entries (see :mod:`repro.sweep.store`).
    """
    global _store
    if store is None or hasattr(store, "get"):
        _store = store
    else:
        from ..sweep.store import ArtifactStore

        _store = ArtifactStore(store)


def _persistent_store():
    """The configured store, resolving ``REPRO_STORE`` lazily once."""
    global _store
    if _store is False:
        path = os.environ.get("REPRO_STORE")
        configure_store(path if path else None)
    return _store


def persistent_store():
    """The live persistent series store, or ``None``.

    The public face of the ``--store`` / ``REPRO_STORE`` resolution: other
    drivers that fan work out through the sweep coordinator (e.g. the
    stability screen behind ``table2(ci=True)``) call this so their units
    land in — and are satisfied from — the same store as the scenario
    runner's.
    """
    return _persistent_store()


def _cached_series(
    key: str,
    duration_scale: float,
    n_runs: int,
    seed_override: int | None,
    jobs: int | None = None,
) -> tuple[tuple[Trial, ...], str]:
    cache_key = (key, duration_scale, n_runs, seed_override)
    hit = _series_cache.get(cache_key)
    if hit is not None:
        metrics.counter("runner.cache_hits").add()
        return hit
    metrics.counter("runner.cache_misses").add()
    sc = scenario(key)
    profile = sc.profile(duration_scale)
    seed = sc.seed if seed_override is None else seed_override

    store = _persistent_store()
    digest = None
    if store is not None:
        from ..sweep.store import compute_digest

        digest = compute_digest(profile, seed, n_runs)
        entry = store.get(digest)
        if entry is not None:
            metrics.counter("runner.store_hits").add()
            result = (entry.trials, profile.name)
            if len(_series_cache) >= _SERIES_CACHE_MAX:
                _series_cache.pop(next(iter(_series_cache)))
            _series_cache[cache_key] = result
            return result
        metrics.counter("runner.store_misses").add()

    with span(
        "experiment.scenario", key=key, seed=seed, n_runs=n_runs
    ):
        trials = Testbed(profile, seed=seed).run_series(n_runs, jobs=jobs)
    result = (tuple(trials), profile.name)
    if digest is not None:
        from ..sweep.store import digest_key_doc

        store.put(
            digest, result[0], key=digest_key_doc(profile, seed, n_runs)
        )
    if len(_series_cache) >= _SERIES_CACHE_MAX:
        _series_cache.pop(next(iter(_series_cache)))
    _series_cache[cache_key] = result
    return result


def run_scenario_trials(
    key: str,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> list[Trial]:
    """The raw trials of a registered scenario (memoized per process).

    ``jobs`` only affects how a cache *miss* is simulated (serially or on
    the pool); hits return the identical cached tuple either way.
    """
    sc = scenario(key)  # validate the key before touching the cache
    scale = duration_scale if duration_scale is not None else _default_scale()
    trials, _ = _cached_series(sc.key, scale, n_runs, seed, jobs)
    return list(trials)


def run_scenario(
    key: str,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> RunSeriesReport:
    """Run (or reuse) a scenario's series and return its analysis report.

    ``jobs`` fans both the simulation (on a cache miss) and the Section-3
    analysis out across the shared pool (default: ``REPRO_JOBS`` or
    serial); the report is identical either way.
    """
    sc = scenario(key)
    scale = duration_scale if duration_scale is not None else _default_scale()
    trials, env_name = _cached_series(sc.key, scale, n_runs, seed, jobs)
    return analyze_trials(list(trials), environment=env_name, jobs=jobs)


def _default_scale() -> float:
    from .scenarios import default_duration_scale

    return default_duration_scale()
