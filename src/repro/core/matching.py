"""Packet matching between two trials (the ``A ∩ B`` of Section 3).

Two packets are "the same" when they are identical in all regions the
evaluator determines define a packet — here, the per-packet tag.  Tags may
repeat (identical payloads); following the paper, repeated tags are
disambiguated by *occurrence rank*: the first packet with a given tag in a
trial matches the first packet with that tag in the other trial, the second
the second, and so on.  This makes every trial a sequence of unique
``(tag, occurrence)`` keys, which is what lets the ordering metric treat
trials as permutations.

Everything here is vectorized, built on one stable argsort per side: the
sorted tag arrays expose each tag's occurrence group as a contiguous run,
matched tags are found with one :func:`numpy.searchsorted`, and pairing the
first ``min(count_A, count_B)`` occurrences of every matched tag is a
grouped ``arange``.  (An earlier version packed ``(tag id, occurrence)``
into 64-bit keys and ran :func:`numpy.intersect1d` — two extra sorts and a
key-space overflow guard for the identical pair set.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics
from .trial import Trial

__all__ = ["Matching", "occurrence_ranks", "match_tag_arrays", "match_trials"]


def occurrence_ranks(tags: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element among equal values, in input order.

    ``occurrence_ranks([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]``.

    Runs in O(n log n) with no Python-level loop.
    """
    tags = np.asarray(tags)
    n = tags.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(tags, kind="stable")
    sorted_tags = tags[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_tags[1:], sorted_tags[:-1], out=new_group[1:])
    group_start = np.flatnonzero(new_group)
    # Position within the sorted array minus the start of the packet's
    # group gives the rank; stable sort preserves input order within groups.
    counts = np.diff(np.append(group_start, n))
    ranks_sorted = np.arange(n, dtype=np.int64) - np.repeat(group_start, counts)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


@dataclass(frozen=True)
class Matching:
    """The aligned common packets of two trials.

    ``idx_a[i]`` and ``idx_b[i]`` are the positions (in arrival order) of
    the *same* packet ``p_i`` in trials A and B.  Rows are sorted by
    ``idx_a``, i.e. common packets are listed in A's arrival order.

    Attributes
    ----------
    idx_a, idx_b:
        intp arrays of equal length ``n_common``.
    len_a, len_b:
        The full trial sizes ``|A|`` and ``|B|``.
    """

    idx_a: np.ndarray
    idx_b: np.ndarray
    len_a: int
    len_b: int
    #: Lazily cached stable argsort of ``idx_b`` — ``b_order`` and
    #: ``a_ranks_in_b_order`` both need it; memoizing on the (frozen,
    #: immutable-by-contract) matching makes it one argsort
    #: per pair (``match.b_order_argsorts`` counts the computes).
    _order_b_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_common(self) -> int:
        """``|A ∩ B|``."""
        return int(self.idx_a.shape[0])

    @property
    def is_permutation(self) -> bool:
        """True when A and B contain exactly the same packets."""
        return self.n_common == self.len_a == self.len_b

    def _order_b(self) -> np.ndarray:
        """The stable argsort of ``idx_b``, computed once per matching."""
        cached = self._order_b_cache
        if cached is None:
            metrics.counter("match.b_order_argsorts").add()
            cached = np.argsort(self.idx_b, kind="stable")
            object.__setattr__(self, "_order_b_cache", cached)
        return cached

    def b_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The aligned index pairs re-sorted by position in B."""
        order = self._order_b()
        return self.idx_a[order], self.idx_b[order]

    def a_ranks_in_b_order(self) -> np.ndarray:
        """A-side common-packet ranks listed in B's arrival order.

        This is the integer sequence whose Longest Increasing Subsequence
        is the LCS of the two trials (Section 3, citing Schensted): rows of
        the matching are already ranked 0..n_common-1 by A position, so
        re-listing those ranks in B order yields a permutation of
        ``0..n_common-1``.
        """
        # Rows are sorted by idx_a, so the row index *is* the A-side rank;
        # listing row indices in B order therefore lists A ranks in B order.
        return self._order_b().astype(np.int64, copy=False)


def match_tag_arrays(
    tags_a: np.ndarray, tags_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aligned ``(tag, occurrence)`` index pairs of two tag sequences.

    The computational core of :func:`match_trials`, on bare tag arrays:
    occurrence ranks are computed among equal tags only, so restricting
    both sequences to any set of tag values yields exactly the rows of the
    full matching whose tags fall in that set.

    One stable argsort per side is the whole cost model.  The stable sort
    groups equal tags into contiguous runs *in input order*, so the k-th
    element of tag t's run is the k-th occurrence of t — pairing the first
    ``min(count_A, count_B)`` run elements of every tag present on both
    sides yields exactly the ``(tag, occurrence)`` pair set the Section-3
    matching defines, with no key packing and no overflow regime.

    Returns ``(ia, ib)``: intp position arrays sorted by ``ia``.
    """
    na, nb = tags_a.shape[0], tags_b.shape[0]
    if na == 0 or nb == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty

    sa = np.argsort(tags_a, kind="stable")
    sb = np.argsort(tags_b, kind="stable")
    sorted_a = tags_a[sa]
    sorted_b = tags_b[sb]

    # Group boundaries of equal-tag runs in each sorted array.
    new_a = np.empty(na, dtype=bool)
    new_a[0] = True
    np.not_equal(sorted_a[1:], sorted_a[:-1], out=new_a[1:])
    starts_a = np.flatnonzero(new_a)
    vals_a = sorted_a[starts_a]
    counts_a = np.diff(np.append(starts_a, na))

    new_b = np.empty(nb, dtype=bool)
    new_b[0] = True
    np.not_equal(sorted_b[1:], sorted_b[:-1], out=new_b[1:])
    starts_b = np.flatnonzero(new_b)
    vals_b = sorted_b[starts_b]
    counts_b = np.diff(np.append(starts_b, nb))

    # Tags present on both sides: for each B group, the A group holding
    # the same value (if any).
    pos = np.searchsorted(vals_a, vals_b)
    in_range = np.flatnonzero(pos < vals_a.size)
    bsel = in_range[vals_a[pos[in_range]] == vals_b[in_range]]
    asel = pos[bsel]

    # Occurrence pairing: the first min(count_A, count_B) elements of each
    # matched run, generated with one grouped arange across all tags.
    take = np.minimum(counts_a[asel], counts_b[bsel])
    total = int(take.sum())
    group = np.repeat(np.arange(take.size), take)
    occ = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(take) - take, take)
    ia = sa[starts_a[asel][group] + occ]
    ib = sb[starts_b[bsel][group] + occ]

    order = np.argsort(ia, kind="stable")
    return (
        ia[order].astype(np.intp, copy=False),
        ib[order].astype(np.intp, copy=False),
    )


def match_trials(a: Trial, b: Trial) -> Matching:
    """Compute the aligned common packets of two trials.

    Packets are keyed by ``(tag, occurrence rank)``.  The result lists
    common packets in A's arrival order.
    """
    ia, ib = match_tag_arrays(a.tags, b.tags)
    return Matching(ia, ib, len(a), len(b))
