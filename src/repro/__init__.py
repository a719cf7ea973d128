"""repro — reproduction of "Network Replay and Consistency Across Testbeds".

The package reproduces, in pure scientific Python, the SC Workshops '25
Choir paper: the Section-3 consistency metrics (``U``, ``O``, ``L``, ``I``
and the compound score ``κ``), a faithful model of the Choir DPDK
record/replay middlebox, the traffic-generation and testbed substrates the
evaluation depends on, and drivers that regenerate every table and figure
of the paper's evaluation.

Quickstart::

    import repro

    env = repro.testbeds.local_single_replayer()
    trials = repro.experiments.run_trials(env, n_runs=5, seed=7)
    report = repro.compare_series(trials, environment=env.name)
    print(report.mean_row())

See ``README.md`` for the architecture overview and ``EXPERIMENTS.md`` for
the paper-vs-measured record.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "Trial",
    "MetricVector",
    "KappaScaling",
    "SymlogBins",
    "DeltaHistogram",
    "PairReport",
    "RunSeriesReport",
    "compare_trials",
    "compare_series",
    "uniqueness_variation",
    "ordering_variation",
    "latency_variation",
    "iat_variation",
    "kappa_from_vector",
    "__version__",
]


#: Subpackages served on first touch by :func:`__getattr__`.
_SUBPACKAGES = frozenset({
    "core",
    "net",
    "timing",
    "replay",
    "generators",
    "testbeds",
    "analysis",
    "experiments",
    "parallel",
    "viz",
})


def __getattr__(name):
    """Lazily expose the subpackages and the :mod:`repro.core` names.

    Keeps ``import repro`` free of numpy, so ``repro --help`` stays fast,
    while ``repro.testbeds``, ``repro.Trial`` etc. resolve on first touch.
    """
    import importlib

    if name in _SUBPACKAGES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in __all__:
        value = getattr(importlib.import_module(".core", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
