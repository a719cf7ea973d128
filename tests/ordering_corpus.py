"""Adversarial permutation corpus for the ordering metric's LIS.

A data module, not a test module: :mod:`tests.test_ordering`,
:mod:`tests.test_fusedpass` and :mod:`tests.test_streaming_differential`
draw their worst-case sequences from :data:`CORPUS`.

The entries stress the patience loop from every side: fully sorted (every
element appends), reversed and valley shapes (every element lands on pile
0), rotations and block swaps (long runs interrupted once), organ-pipe and
interleaved runs (values straddling earlier ones), a single far-moved
packet, two streams merged in bursts with a block swap (short runs and
long runs in one input), and duplicate-heavy streams that stress the ``bisect_left``
tie-break the canonical mask is defined by.  Sizes are small enough for
the ``O(n·m)`` DP cross-check.  ``REPRO_TEST_SEED`` drives the randomized
duplicate streams.
"""

from __future__ import annotations

import numpy as np

from .conftest import suite_rng

__all__ = ["CORPUS", "chunk_sizes"]


def _organ_pipe(n: int) -> np.ndarray:
    up = np.arange((n + 1) // 2)
    return np.concatenate([up, up[::-1][: n - up.shape[0]]])


def _interleaved_runs(n: int) -> np.ndarray:
    """Two value-disjoint increasing runs interleaved element-wise:
    ``[0, m, 1, m+1, 2, ...]``."""
    m = (n + 1) // 2
    out = np.empty(n, dtype=np.int64)
    out[0::2] = np.arange(m)[: out[0::2].shape[0]]
    out[1::2] = np.arange(m, 2 * m)[: out[1::2].shape[0]]
    return out


def _burst_shuffle(per_stream: int = 160, block: int = 60) -> np.ndarray:
    """Two increasing streams merged in bursts, then one block swap.

    The shape of ``local-dual``'s A-ranks in B order (two replayers merged
    at the switch): A interleaves the streams in bursts of 16, B in bursts
    of 17, so short ascending runs alternate between the streams.  The
    last ``block`` packets of stream 1 then arrive before those of stream
    0: two long runs, the second bisecting into the tails the first left.
    """
    a_ranks = np.arange(2 * per_stream).reshape(-1, 16)
    streams = [a_ranks[0::2].ravel(), a_ranks[1::2].ravel()]
    head = per_stream - block
    bursts = [
        s[lo : min(lo + 17, head)] for lo in range(0, head, 17) for s in streams
    ]
    tail = [streams[1][head:], streams[0][head:]]
    return np.concatenate(bursts + tail).astype(np.int64)


def _dup_stream(n: int, alphabet: int, salt: int) -> np.ndarray:
    return suite_rng(salt).integers(0, alphabet, size=n).astype(np.int64)


#: Pinned worst cases, by name.
CORPUS: dict[str, np.ndarray] = {
    "sorted": np.arange(144, dtype=np.int64),
    "reversed": np.arange(144, dtype=np.int64)[::-1].copy(),
    "organ-pipe": _organ_pipe(143).astype(np.int64),
    "valley": _organ_pipe(143)[::-1].copy().astype(np.int64),
    "block-rotation": np.roll(np.arange(150, dtype=np.int64), 50),
    "block-swap": np.concatenate(
        [np.arange(70, 140), np.arange(0, 70)]
    ).astype(np.int64),
    "interleaved-runs": _interleaved_runs(141),
    "far-moved-packet": np.concatenate(
        [[137], np.arange(137), [138, 139]]
    ).astype(np.int64),
    "duplicate-heavy": _dup_stream(140, 7, salt=101),
    "binary-tags": _dup_stream(150, 2, salt=102),
    "all-equal": np.zeros(130, dtype=np.int64),
    "burst_shuffle": _burst_shuffle(),
}


def chunk_sizes(n: int) -> list[int]:
    """The chunking grid: 1, 2, a prime, n−1 and n."""
    return sorted({1, 2, 13, max(1, n - 1), max(1, n)})
