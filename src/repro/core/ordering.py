"""The ordering-variation metric ``O`` (Equation 2) and its machinery.

Section 3 defines ``O`` through the minimum edit script transforming trial
B into trial A.  Because occurrence-tagging makes every packet unique (see
:mod:`repro.core.matching`), each trial is a permutation of the common
packets, so:

* the Longest Common Subsequence of A and B equals the Longest Increasing
  Subsequence of A-side ranks listed in B order (Schensted), computable in
  ``O(n log n)`` with patience sorting;
* the minimum edit script keeps the LCS in place and moves every other
  common packet; the move distance ``d_i`` of a moved packet is the
  absolute difference between its deletion index (its rank among common
  packets in B) and its reinsertion index (its rank among common packets
  in A).

The normalizer is the reversal worst case,
``sum_{n=0}^{|A∩B|} n = m(m+1)/2``.

Table 1 of the paper reports distributional statistics of the *signed*
move distances (their minima are negative); :func:`move_distance_stats`
reproduces those columns with the convention ``signed d = rank_A − rank_B``
(positive means the packet sits later in A than in B).

When several maximal-length LCSs exist the edit script is not unique; we
deterministically pick the patience-sorting LIS (predecessor chaining),
which is a standard canonical choice.  ``O`` computed with swapped
arguments uses the transposed permutation whose LIS set corresponds
one-to-one, so the metric is symmetric up to LCS tie-breaking; the test
suite checks exact symmetry on permutations with unique LCS and bounded
asymmetry otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .matching import Matching, match_trials
from .trial import Trial

__all__ = [
    "longest_increasing_subsequence",
    "lis_membership",
    "patience_fill",
    "lis_indices_from_state",
    "b_order_ranks",
    "EditScript",
    "edit_script",
    "edit_script_from_matching",
    "edit_script_from_keep",
    "move_distance_stats",
    "MoveDistanceStats",
    "ordering_from_matching",
    "ordering_variation",
    "naive_lcs_length",
]


def patience_fill(
    values: list,
    tails_vals: list,
    tails_idx: list[int],
    prev_slice,
    offset: int = 0,
) -> None:
    """Run the patience loop over ``values``, mutating the pile state.

    This is *the* canonical update step.  The batch driver runs it once
    over the whole sequence; :class:`repro.analysis.streamkappa.StreamKappa`
    resumes it on each chunk from the live pile state, which leaves the
    state of one serial pass over the prefix — so "stream equals batch"
    is the serial loop itself, not a merge argument.

    ``values`` are the elements to process (Python scalars — ``tolist()``
    beats an ndarray loop ~3x); ``tails_vals``/``tails_idx`` are the pile
    state mutated in place (``tails_idx`` holds *global* element indices,
    i.e. ``offset + i``); ``prev_slice[i]`` receives the global predecessor
    index of element ``offset + i``, and keeps its prior value (the ``-1``
    sentinel) for elements landing on pile 0.

    The ``v > last`` branch is a pure fast path, not a second algorithm:
    the tails array is sorted, so ``v > tails_vals[-1]`` holds exactly when
    ``bisect_left`` would return ``len(tails_vals)`` — the append case with
    predecessor ``tails_idx[-1]``.  In the near-sorted permutations the
    paper's regime produces (light jitter, rare reorders) ~90% of elements
    take it, skipping the bisect entirely.
    """
    append_val = tails_vals.append
    append_idx = tails_idx.append
    last = tails_vals[-1] if tails_vals else None
    for i, v in enumerate(values):
        if last is not None and v > last:
            prev_slice[i] = tails_idx[-1]
            append_val(v)
            append_idx(offset + i)
            last = v
            continue
        pos = bisect_left(tails_vals, v)
        if pos > 0:
            prev_slice[i] = tails_idx[pos - 1]
        if pos == len(tails_vals):
            append_val(v)
            append_idx(offset + i)
            last = v
        else:
            tails_vals[pos] = v
            tails_idx[pos] = offset + i
            if pos == len(tails_vals) - 1:
                last = v


#: Below this LIS length the scalar predecessor walk beats the pointer-
#: doubling setup (one ndarray copy of the links plus log2(L) gathers).
_DOUBLING_MIN_LENGTH = 4096


def _lis_indices_doubling(tails_idx, prev: np.ndarray, length: int) -> np.ndarray:
    """The predecessor walk as pointer doubling (binary lifting).

    ``chain[j]`` is the j-step predecessor of the LIS tail.  Each round
    extends the known chain with one gather through the current m-step
    link table (``up``), then squares ``up`` to 2m steps; ``-1`` sentinels
    map to an absorbing slot past the end so squaring never reads out of
    range.  Every link followed is exactly the link the scalar walk
    follows, so the indices are identical — only the traversal order of
    the *reads* changes, never a value.
    """
    n = prev.shape[0]
    up = np.empty(n + 1, dtype=np.int64)
    up[:n] = prev
    up[n] = n
    up[up < 0] = n
    chain = np.empty(length, dtype=np.int64)
    chain[0] = tails_idx[-1]
    done = 1
    while done < length:
        take = min(done, length - done)
        chain[done : done + take] = up[chain[:take]]
        done += take
        if done < length:
            up = up[up]
    out = np.empty(length, dtype=np.intp)
    out[:] = chain[::-1]
    return out


def lis_indices_from_state(tails_idx: list[int], prev: np.ndarray) -> np.ndarray:
    """Walk predecessor links back from the tail of the longest pile.

    Long walks (the paper-scale regime: LIS length close to the row
    count) run as pointer doubling — O(log L) vectorized gathers instead
    of an O(L) Python loop — following the identical predecessor links;
    short walks keep the scalar loop, which wins below the setup cost.
    """
    length = len(tails_idx)
    out = np.empty(length, dtype=np.intp)
    if length == 0:
        return out
    if length >= _DOUBLING_MIN_LENGTH and isinstance(prev, np.ndarray):
        return _lis_indices_doubling(tails_idx, prev, length)
    prev_list = prev.tolist() if isinstance(prev, np.ndarray) else prev
    k = tails_idx[-1]
    for j in range(length - 1, -1, -1):
        out[j] = k
        k = prev_list[k]
    return out


def longest_increasing_subsequence(seq: np.ndarray) -> np.ndarray:
    """Indices of one longest strictly-increasing subsequence of ``seq``.

    Patience sorting with predecessor chaining: ``O(n log n)`` time,
    ``O(n)`` space.  Returns indices in increasing order.  For equal-length
    candidates the algorithm returns the LIS whose members' values are
    piecewise smallest (the classic tails-array construction).
    """
    seq = np.asarray(seq)
    n = seq.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    tails_vals: list = []  # smallest tail value of an inc. run of each length
    tails_idx: list[int] = []  # index of that tail element in seq
    prev = np.full(n, -1, dtype=np.intp)  # predecessor links
    patience_fill(seq.tolist(), tails_vals, tails_idx, prev)
    return lis_indices_from_state(tails_idx, prev)


def lis_membership(seq: np.ndarray) -> np.ndarray:
    """Boolean mask over ``seq`` marking one canonical LIS's members."""
    mask = np.zeros(np.asarray(seq).shape[0], dtype=bool)
    mask[longest_increasing_subsequence(seq)] = True
    return mask


def naive_lcs_length(a: np.ndarray, b: np.ndarray) -> int:
    """Textbook ``O(n*m)`` dynamic-programming LCS length.

    Reference implementation used to cross-validate the LIS shortcut in
    tests and benchmarks; unusable at paper scale by design.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    # Row-rolling DP, vectorized over b with a scan per element of a.
    m = b.shape[0]
    curr = np.zeros(m + 1, dtype=np.int64)
    for x in a.tolist():
        prev_row = curr.copy()
        match = prev_row[:-1] + (b == x)
        # curr[j+1] = max(prev[j] + match, prev[j+1], curr[j]); the last term
        # is a running max that needs a cumulative pass.
        curr[1:] = np.maximum(match, prev_row[1:])
        curr = np.maximum.accumulate(curr)
    return int(curr[-1])


@dataclass(frozen=True)
class EditScript:
    """The minimum edit script transforming trial B into trial A.

    Attributes
    ----------
    matching:
        The underlying packet alignment.
    lcs_mask_b_order:
        Boolean mask over common packets **in B order**: True for packets
        kept in place (LCS members), False for moved packets.
    signed_distances:
        Signed move distances (``rank_A − rank_B``) for *all* common
        packets in B order; LCS members have 0 by definition of the script.
    deletions_b:
        Positions in B of packets absent from A (pure deletions; their
        ``d_i`` is 0 per the paper).
    insertions_a:
        Positions in A of packets absent from B (pure insertions).
    """

    matching: Matching
    lcs_mask_b_order: np.ndarray
    signed_distances: np.ndarray
    deletions_b: np.ndarray
    insertions_a: np.ndarray

    @property
    def lcs_length(self) -> int:
        """Length of the longest common subsequence."""
        return int(np.count_nonzero(self.lcs_mask_b_order))

    @property
    def n_moved(self) -> int:
        """Number of common packets the script moves."""
        return self.matching.n_common - self.lcs_length

    @property
    def moved_distances(self) -> np.ndarray:
        """Signed distances of moved packets only (Table 1 population)."""
        return self.signed_distances[~self.lcs_mask_b_order]

    def total_distance(self) -> float:
        """``Σ d_i`` — the numerator of Equation 2."""
        return float(np.abs(self.signed_distances).sum())


def edit_script(a: Trial, b: Trial, matching: Matching | None = None) -> EditScript:
    """Derive the minimum edit script turning trial B into trial A."""
    m = matching if matching is not None else match_trials(a, b)
    return edit_script_from_matching(m)


def b_order_ranks(m: Matching) -> np.ndarray:
    """A-side ranks of the common packets listed in B order.

    The permutation whose LIS is the LCS (Schensted); the input the
    patience sort runs on.  Routed through the matching's cached argsort,
    so a pair that also sorts by B position elsewhere (``b_order``) pays
    for one argsort total.
    """
    return m.a_ranks_in_b_order()


def edit_script_from_keep(
    m: Matching, a_ranks_in_b: np.ndarray, keep: np.ndarray
) -> EditScript:
    """Assemble the edit script from the canonical LIS mask.

    Pure vectorized assembly — every arithmetic op downstream of the mask
    lives here, so any path that reproduces ``keep`` exactly (the batch
    patience sort or the streamed one) gets bit-identical
    ``signed_distances``, ``moved_distances`` and ``O``.
    """
    n = m.n_common
    b_ranks = np.arange(n, dtype=np.int64)
    signed = np.where(keep, 0, a_ranks_in_b - b_ranks).astype(np.float64)

    all_b = np.ones(m.len_b, dtype=bool)
    all_b[m.idx_b] = False
    deletions_b = np.flatnonzero(all_b)
    all_a = np.ones(m.len_a, dtype=bool)
    all_a[m.idx_a] = False
    insertions_a = np.flatnonzero(all_a)

    return EditScript(
        matching=m,
        lcs_mask_b_order=keep,
        signed_distances=signed,
        deletions_b=deletions_b,
        insertions_a=insertions_a,
    )


def edit_script_from_matching(m: Matching) -> EditScript:
    """The minimum edit script from a precomputed matching alone.

    The script is a pure function of the matching (positions and trial
    lengths); trials are not needed.
    """
    a_ranks_in_b = b_order_ranks(m)
    return edit_script_from_keep(m, a_ranks_in_b, lis_membership(a_ranks_in_b))


@dataclass(frozen=True)
class MoveDistanceStats:
    """Distributional statistics of signed move distances (Table 1 columns)."""

    n_moved: int
    mean: float
    std: float
    abs_mean: float
    abs_std: float
    min: float
    max: float

    @classmethod
    def from_distances(cls, distances: np.ndarray) -> "MoveDistanceStats":
        """Summarize a (possibly empty) array of signed move distances."""
        d = np.asarray(distances, dtype=np.float64)
        if d.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ad = np.abs(d)
        return cls(
            n_moved=int(d.size),
            mean=float(d.mean()),
            std=float(d.std()),
            abs_mean=float(ad.mean()),
            abs_std=float(ad.std()),
            min=float(d.min()),
            max=float(d.max()),
        )


def move_distance_stats(a: Trial, b: Trial) -> MoveDistanceStats:
    """Table 1: statistics of the distances packets moved in the edit script."""
    return MoveDistanceStats.from_distances(edit_script(a, b).moved_distances)


def ordering_from_matching(m: Matching, script: EditScript) -> float:
    """Equation 2 from a precomputed matching and edit script."""
    n = m.n_common
    if n <= 1:
        return 0.0
    denom = n * (n + 1) / 2.0  # sum_{k=0}^{n} k at the reversal worst case
    return script.total_distance() / denom


def ordering_variation(a: Trial, b: Trial) -> float:
    """Equation 2: normalized variation in packet ordering between trials."""
    m = match_trials(a, b)
    return ordering_from_matching(m, edit_script(a, b, matching=m))
