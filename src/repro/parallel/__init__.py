"""Fan-out of whole, independent work items across one process pool.

The rule this package keeps: **fan out whole items and reassemble them by
index; never split an item and merge partials.**  A command has one
fan-out grain, dispatched through :func:`~repro.parallel.pool.fan_out`
on the one persistent pool (:mod:`~repro.parallel.pool`):

* sweep units — :func:`repro.sweep.coordinator.run_sweep`, for every
  command that simulates; a unit itself always runs serially;
* whole capture pairs — :func:`repro.analysis.compare.analyze_directory`,
  one serial ``compare_trials`` per task over two capture paths, for
  ``repro analyze``.

Each task runs the unmodified serial code, so output is bit-identical at
any job count.  Tasks and results cross the pool by pickle; a pair task
carries only its two file paths.  See ``docs/parallel.md`` for the
measured costs, and ``tests/test_parallel_differential.py`` /
``tests/test_sweep_differential.py`` for the differential harnesses that
prove parallel == serial.
"""

from .pool import (
    PoolStats,
    default_jobs,
    fan_out,
    get_pool,
    pool_scope,
    pool_stats,
    shutdown_pool,
)

__all__ = [
    "fan_out",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
    "pool_scope",
    "PoolStats",
    "default_jobs",
]
