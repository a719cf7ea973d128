"""Performance benchmarks of the analysis layer itself.

The artifact appendix budgets "no more than 5 minutes" per trial for
analysis; these benchmarks pin where this implementation actually spends
its time at paper scale: tag matching, the ordering metric ``O`` on a
permuted capture, and the longest-increasing-subsequence walk under it.
The streaming κ path has its own benchmark, ``bench_streaming_kappa.py``.
Unlike the figure/table benches (one deterministic round), these run
multiple pytest-benchmark rounds — they measure code, not simulations.
"""

import numpy as np

from repro.core import (
    Trial,
    longest_increasing_subsequence,
    match_trials,
    ordering_variation,
)

N = 1_055_648  # the paper's Section-6.1 capture size


def _aligned_pair(seed=0, n=N):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.exponential(284.0, n))
    tags = np.arange(n, dtype=np.int64)
    b = np.maximum.accumulate(base + rng.normal(0, 8.0, n))
    return Trial(tags, base, label="A"), Trial(tags, b, label="B")


def test_matching_throughput(benchmark, bench_params):
    """Tag matching at 1.05M packets: one searchsorted into A's baseline
    index (sorted in the first round, then memoized on A) and one scatter."""
    bench_params(seed=0, n_packets=N)
    a, b = _aligned_pair()
    m = benchmark(match_trials, a, b)
    assert m.n_common == N


def test_ordering_metrics_on_permuted_capture(benchmark, bench_params):
    """LIS-based O on a 200k-packet interleave."""
    bench_params(seed=1, n_packets=200_000)
    rng = np.random.default_rng(1)
    n = 200_000
    # An interleave-like permutation: two ordered halves merged randomly.
    take = np.sort(rng.choice(n, n // 2, replace=False))
    perm = np.empty(n, dtype=np.int64)
    perm[take] = np.arange(n // 2)
    rest = np.setdiff1d(np.arange(n), take)
    perm[rest] = np.arange(n // 2, n)
    t = np.arange(n, dtype=np.float64) * 284.0
    a = Trial(np.arange(n), t, label="A")
    b = Trial(perm, t, label="B")

    o = benchmark(ordering_variation, a, b)
    assert 0.0 <= o <= 1.0


def test_lis_scaling(benchmark, bench_params):
    """The one O(n log n) Python loop, at paper scale."""
    bench_params(seed=2, n_packets=N)
    rng = np.random.default_rng(2)
    perm = rng.permutation(N)
    idx = benchmark(longest_increasing_subsequence, perm)
    assert idx.shape[0] > 1000  # E[LIS] ~ 2*sqrt(N)

