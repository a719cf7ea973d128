"""Experiment execution: run scenarios, cache series reports per process.

Several figures and both tables draw on the same underlying trial series
(e.g. Table 2 needs all nine environments; Figures 4a and 4b share the
local-single series).  ``run_scenarios`` memoizes ``(trials, report)`` by
(scenario, scale, n_runs, seed), so a full benchmark session simulates
and analyzes each environment once.

All memo misses of one ``run_scenarios`` call resolve as one sweep
(:func:`repro.sweep.coordinator.run_sweep`): store probe, then simulate
and analyze, then publish full entries.  There is no second cache path,
and :func:`run_scenario` is the one-key case.

Fan-out: ``jobs=N`` (or ``REPRO_JOBS=N``) fans the missing series out as
whole sweep units on the shared worker pool, each computed by the
unmodified serial code, so figure and table reproductions are
byte-stable under any job count.  A single series never fans out, so
Table 2 resolves its nine series in one call.  The memo is keyed
*without* the job count.

Persistence: the memo dies with the process; ``--store DIR`` (or
``REPRO_STORE=DIR``, or :func:`configure_store`) hands the sweep the
content-addressed artifact store of :mod:`repro.sweep.store`, so a
Table-2 / figure / validation driver reuses any series ever computed for
the same content digest — including entries written by ``repro sweep`` —
and feeds its own misses back in.  The digest is jobs-free and
start-method-free, like the memo key.
"""

from __future__ import annotations

import os

from ..core.report import RunSeriesReport
from ..core.trial import Trial
from ..obs import metrics
from ..testbeds import EnvironmentProfile, Testbed
from .scenarios import scenario

__all__ = [
    "run_trials",
    "run_scenario",
    "run_scenarios",
    "run_scenario_trials",
    "screen_scenarios",
    "configure_store",
    "persistent_store",
]


def run_trials(
    profile: EnvironmentProfile,
    n_runs: int = 5,
    seed: int = 0,
) -> list[Trial]:
    """Run a trial series on an ad-hoc profile (the quickstart entry point)."""
    return Testbed(profile, seed=seed).run_series(n_runs)


#: Memoized ``(trials, report)`` per (scenario, scale, n_runs, seed).  A
#: plain dict, not ``lru_cache``: the job count must NOT be part of the key
#: (output is jobs-invariant, and a jobs-keyed cache would re-simulate — and
#: break the identity guarantee tests rely on — when a caller switches job
#: counts).
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


def persistent_store():
    """The live persistent series store, or ``None``.

    The ``--store`` / ``REPRO_STORE`` resolution (the variable is read
    lazily, once).  Other drivers that fan work out through the sweep
    coordinator (e.g. the stability screen behind ``table2(ci=True)``)
    call this so their units land in — and are satisfied from — the same
    store as the scenario runner's.
    """
    if _store is False:
        path = os.environ.get("REPRO_STORE")
        configure_store(path if path else None)
    return _store


def _cached_series(
    keys: list[str],
    duration_scale: float,
    n_runs: int,
    seed_override: int | None,
    jobs: int | None = None,
) -> list[tuple[tuple[Trial, ...], RunSeriesReport]]:
    """``(trials, report)`` per key; all memo misses resolve in one sweep."""
    cache_keys = [(key, duration_scale, n_runs, seed_override) for key in keys]
    resolved = {ck: _series_cache[ck] for ck in cache_keys if ck in _series_cache}
    misses = [ck for ck in dict.fromkeys(cache_keys) if ck not in resolved]
    metrics.counter("runner.cache_hits").add(len(cache_keys) - len(misses))
    metrics.counter("runner.cache_misses").add(len(misses))
    if misses:
        from ..sweep.coordinator import plan_unit, run_sweep

        plan = []
        for key, *_ in misses:
            sc = scenario(key)
            seed = sc.seed if seed_override is None else seed_override
            plan.append(plan_unit(key, sc.profile(duration_scale), seed, n_runs))
        store = persistent_store()
        result = run_sweep(plan, store, jobs=jobs)
        for ck, trials, report, outcome in zip(
            misses, result.trials, result.series, result.outcomes
        ):
            if store is not None:
                outcome = "hits" if outcome == "hit" else "misses"
                metrics.counter(f"runner.store_{outcome}").add()
            if len(_series_cache) >= _SERIES_CACHE_MAX:
                _series_cache.pop(next(iter(_series_cache)))
            _series_cache[ck] = resolved[ck] = (trials, report)
    return [resolved[ck] for ck in cache_keys]


def run_scenario_trials(
    key: str,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> list[Trial]:
    """The raw trials of a registered scenario (memoized per process).

    A single series computes serially at any ``jobs``; hits return the
    identical cached tuple.
    """
    sc = scenario(key)  # validate the key before touching the cache
    scale = duration_scale if duration_scale is not None else _default_scale()
    [(trials, _)] = _cached_series([sc.key], scale, n_runs, seed, jobs)
    return list(trials)


def run_scenarios(
    keys: list[str],
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> list[RunSeriesReport]:
    """Run (or reuse) several scenarios' series; reports in ``keys`` order.

    The series missing from the memo resolve as one sweep, fanned out as
    whole units across ``jobs`` workers (default: ``REPRO_JOBS`` or
    serial); the reports are identical at any ``jobs``, and computed
    once per process.
    """
    keys = [scenario(key).key for key in keys]
    scale = duration_scale if duration_scale is not None else _default_scale()
    return [
        report for _, report in _cached_series(keys, scale, n_runs, seed, jobs)
    ]


def run_scenario(key: str, **run_kwargs) -> RunSeriesReport:
    """One scenario's analysis report: :func:`run_scenarios` of one key."""
    return run_scenarios([key], **run_kwargs)[0]


def screen_scenarios(
    keys: list[str],
    ci_seeds: int,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    jobs: int | None = None,
) -> list:
    """``ci_seeds``-session stability screens of several scenarios.

    Seed k of a screen is the scenario's seed + k, so seed 0 is the
    series the point-estimate drivers consume.  Every session of every
    screen resolves as one sweep through the persistent store
    (:func:`repro.analysis.stability.stability_screen`); results come
    back in ``keys`` order.
    """
    from ..analysis.stability import stability_screen, stability_seed_plan

    scale = duration_scale if duration_scale is not None else _default_scale()
    return stability_screen(
        [
            (sc.key, sc.profile(scale), stability_seed_plan(sc.seed, ci_seeds))
            for sc in map(scenario, keys)
        ],
        n_runs=n_runs,
        jobs=jobs,
        store=persistent_store(),
    )


def _default_scale() -> float:
    from .scenarios import default_duration_scale

    return default_duration_scale()
