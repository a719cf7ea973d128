"""Packet matching between two trials (the ``A ∩ B`` of Section 3).

Two packets are "the same" when they are identical in all regions the
evaluator determines define a packet — here, the per-packet tag.  Tags may
repeat (identical payloads); following the paper, repeated tags are
disambiguated by *occurrence rank*: the k-th packet with a given tag in one
trial matches the k-th packet with that tag in the other.  This makes every
trial a sequence of unique ``(tag, occurrence)`` keys, which is what lets
the ordering metric treat trials as permutations.

Every comparison is against one fixed baseline A, so A is the only side
ever sorted: a :class:`BaselineIndex`, memoized on the baseline trial.
Choir tags are ``(replayer id << 48) | sequence``, so A's sorted distinct
tags fall into a few runs of consecutive integers (two in ``local-dual``),
and the index records where each run starts.  A run tag is found by one
:func:`numpy.searchsorted` into the run-start tags and its offset into its
run, in wrapping int64 (exact for every present tag; any other candidate
is clipped into range and fails the equality check).  With no runs —
random distinct tags — the run starts are every tag and the lookup is a
binary search over A plus a few elementwise passes.  The hits are
scattered into an A-length inverse map; the common rows in A order are
the map's set entries, and the A-ranks in B order one ``cumsum`` of the
hit mask.  Repeated tags — in A, or two B packets hitting one A slot — take
an occurrence step (counted by ``match.occurrence_path``).
:class:`~repro.analysis.streamkappa.StreamKappa` matches its chunks through
the same index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics
from .trial import Trial

__all__ = ["BaselineIndex", "Matching", "occurrence_ranks", "match_trials"]


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
    #: Row indices listed in B order — the A-side ranks in B order.  The
    #: matcher fills it in from its inverse map; a hand-built matching
    #: derives it on first use by one scatter over B.
    _ranks_b: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_inverse(cls, inv: np.ndarray, slots: np.ndarray, len_b: int) -> "Matching":
        """The matching in ``inv`` (A position → B position or -1), whose
        matched A positions in B order are ``slots``."""
        hit = inv >= 0
        idx_a = np.flatnonzero(hit)
        # A matched position's rank counts the matched positions before it.
        ranks_b = np.cumsum(hit, dtype=np.int64)[slots] - 1
        return cls(idx_a, inv[idx_a], inv.shape[0], len_b, ranks_b)

    @property
    def n_common(self) -> int:
        """``|A ∩ B|``."""
        return int(self.idx_a.shape[0])

    @property
    def is_permutation(self) -> bool:
        """True when A and B contain exactly the same packets."""
        return self.n_common == self.len_a == self.len_b

    def b_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The aligned index pairs re-sorted by position in B."""
        order = self.a_ranks_in_b_order()
        return self.idx_a[order], self.idx_b[order]

    def a_ranks_in_b_order(self) -> np.ndarray:
        """A-side common-packet ranks listed in B's arrival order.

        This is the integer sequence whose Longest Increasing Subsequence
        is the LCS of the two trials (Section 3, citing Schensted): rows of
        the matching are already ranked 0..n_common-1 by A position, so
        re-listing those ranks in B order yields a permutation of
        ``0..n_common-1``.
        """
        ranks = self._ranks_b
        if ranks is None:
            row = np.full(self.len_b, -1, dtype=np.int64)
            row[self.idx_b] = np.arange(self.n_common, dtype=np.int64)
            ranks = row[row >= 0]
            object.__setattr__(self, "_ranks_b", ranks)
        return ranks


class BaselineIndex:
    """Baseline A's tags sorted once, to match any number of runs against.

    ``order`` is the stable argsort of A's tags, so each tag's occurrences
    form one contiguous group of ``sorted_tags`` in A order.  A's distinct
    tags are also cut into runs of consecutive integers: a tag's index
    among the distinct tags is its offset into its run plus the run's
    first index, so a lookup searches the run starts, not every tag.
    """

    __slots__ = ("order", "sorted_tags", "has_duplicates", "_distinct",
                 "_bounds", "_run_tags", "_run_shift")

    def __init__(self, tags: np.ndarray) -> None:
        self.order = np.argsort(tags, kind="stable")
        self.sorted_tags = sorted_tags = tags[self.order]
        n = sorted_tags.shape[0]
        new_group = np.ones(n, dtype=bool)
        np.not_equal(sorted_tags[1:], sorted_tags[:-1], out=new_group[1:])
        self.has_duplicates = not bool(new_group.all())
        if self.has_duplicates:
            starts = np.flatnonzero(new_group)
            self._distinct = sorted_tags[starts]
            #: Group k of ``sorted_tags`` is ``_bounds[k]:_bounds[k + 1]``.
            self._bounds = np.append(starts, n)
        else:
            self._distinct = sorted_tags
            self._bounds = None
        # Distinct tags differ by exactly 1 only inside a run; the int64
        # difference wraps, but never to 1 between sorted distinct values.
        run_start = np.ones(self._distinct.shape[0], dtype=bool)
        np.not_equal(np.diff(self._distinct), 1, out=run_start[1:])
        first = np.flatnonzero(run_start)
        self._run_tags = self._distinct[first]
        # Index of tag t in run r is t + (first[r] - run_tags[r]) in
        # wrapping int64.  Slot 0 serves tags below the first run: they
        # are absent, so any shift will do.
        self._run_shift = np.concatenate(([0], first - self._run_tags))

    @classmethod
    def of(cls, trial: Trial) -> "BaselineIndex":
        """The index of ``trial``, built on first use and memoized on it."""
        index = trial._match_index
        if index is None:
            index = cls(trial.tags)
            object.__setattr__(trial, "_match_index", index)
        return index

    def _find(self, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offsets into ``tags`` of the tags present in A, and each one's
        index among A's distinct tags."""
        k = self._run_shift[np.searchsorted(self._run_tags, tags, side="right")]
        # A present tag's offset lies in [0, run length), so its index is
        # exact; any other candidate only needs to land in range and miss.
        k += tags
        np.clip(k, 0, self._distinct.shape[0] - 1, out=k)
        jb = np.flatnonzero(self._distinct[k] == tags)
        return jb, k[jb]

    def groups(self, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Offsets into ``tags`` of the tags present in A, and the start and
        end of each one's group in ``sorted_tags``."""
        if self._distinct.shape[0] == 0 or tags.shape[0] == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, empty
        jb, k = self._find(tags)
        if self._bounds is None:
            return jb, k, k + 1
        return jb, self._bounds[k], self._bounds[k + 1]

    def claim(self, tags: np.ndarray, inv: np.ndarray, base: int = 0,
              seen: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Match run packets ``base, base + 1, ...`` with tags ``tags``.

        ``inv`` maps A positions to the run positions matched so far (-1
        while unmatched) and is updated in place.  When A repeats tags, a
        streaming caller keeps ``seen``: the run's count of each tag so
        far, at the tag's group start.  Returns the newly matched A
        positions and their offsets into ``tags``, in arrival order.
        """
        if self.order.shape[0] == 0 or tags.shape[0] == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        if self.has_duplicates:
            # The k-th occurrence of a tag claims slot k of its group.
            metrics.counter("match.occurrence_path").add()
            jb, pos, end = self.groups(tags)
            occ = occurrence_ranks(pos)
            if seen is not None:
                occ += seen[pos]
                groups, counts = np.unique(pos, return_counts=True)
                seen[groups] += counts
            keep = occ < end - pos
            slots, jb = self.order[pos[keep] + occ[keep]], jb[keep]
            inv[slots] = jb + base
            return slots, jb
        jb, pos = self._find(tags)
        slots = self.order[pos]
        if base:
            # A slot claimed by an earlier chunk is a repeat in the run.
            fresh = inv[slots] < 0
            slots, jb = slots[fresh], jb[fresh]
        jb_run = jb + base
        inv[slots] = jb_run
        if not np.array_equal(inv[slots], jb_run):
            # Two packets of this chunk share a tag: the first one matches.
            metrics.counter("match.occurrence_path").add()
            first = occurrence_ranks(slots) == 0
            slots, jb = slots[first], jb[first]
            inv[slots] = jb + base
        return slots, jb


def match_trials(a: Trial, b: Trial) -> Matching:
    """Compute the aligned common packets of two trials.

    Packets are keyed by ``(tag, occurrence rank)``.  The result lists
    common packets in A's arrival order.  A's index is built once per
    baseline trial and reused by every later run matched against it.
    """
    inv = np.full(len(a), -1, dtype=np.intp)
    slots, _ = BaselineIndex.of(a).claim(b.tags, inv)
    return Matching.from_inverse(inv, slots, len(b))
