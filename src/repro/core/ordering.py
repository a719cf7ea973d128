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

The patience sort (:func:`patience_fill`) is exact against the textbook
element-at-a-time loop, but solves most inputs in vectorized passes: a
strictly ascending input (the identity, every FIFO scenario) in closed
form, a shuffle of two ascending sequences (two replayers, each FIFO:
``local-dual``) in a few rounds of a two-chain recurrence, and anything
else run by run.

When several maximal-length LCSs exist the edit script is not unique; we
deterministically pick the patience-sorting LIS (predecessor chaining),
which is a standard canonical choice.  ``O`` computed with swapped
arguments uses the transposed permutation whose LIS set corresponds
one-to-one, so the metric is symmetric up to LCS tie-breaking; the test
suite checks exact symmetry on permutations with unique LCS and bounded
asymmetry otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .matching import Matching, match_trials
from .trial import Trial

__all__ = [
    "longest_increasing_subsequence",
    "lis_membership",
    "PileState",
    "patience_fill",
    "lis_indices_from_state",
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


class PileState:
    """The live state of a patience sort: pile tails and predecessor links.

    Three ndarray buffers that grow by doubling, with their lengths:

    * ``tails_vals[p]`` is the smallest value ending an increasing
      subsequence of length ``p + 1`` (sorted, strictly increasing);
    * ``tails_idx[p]`` is the index of that element among all elements fed
      so far;
    * ``prev[i]`` is the predecessor link of element ``i`` (the index of
      the element below it in the LIS it ends), ``-1`` on pile 0.

    ``tails_idx`` is stored one slot to the right of a ``-1`` sentinel, so
    ``_idx[p]`` is the predecessor of an element landing on pile ``p`` —
    one gather for a whole run, the sentinel included.  ``len(piles)`` is
    the number of piles and ``piles[k]`` indexes ``tails_vals``.
    """

    __slots__ = ("_vals", "_idx", "_prev", "length", "n")

    def __init__(self, dtype=np.int64, capacity: int = 16) -> None:
        capacity = max(int(capacity), 1)
        self._vals = np.empty(capacity, dtype=dtype)
        self._idx = np.empty(capacity + 1, dtype=np.intp)
        self._idx[0] = -1
        self._prev = np.empty(capacity, dtype=np.intp)
        #: Number of piles (the LIS length so far).
        self.length = 0
        #: Number of elements fed so far.
        self.n = 0

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key):
        return self.tails_vals[key]

    @property
    def tails_vals(self) -> np.ndarray:
        return self._vals[: self.length]

    @property
    def tails_idx(self) -> np.ndarray:
        return self._idx[1 : self.length + 1]

    @property
    def prev(self) -> np.ndarray:
        return self._prev[: self.n]

    @property
    def nbytes(self) -> int:
        """Bytes held by the three buffers (capacity, not length)."""
        return int(self._vals.nbytes + self._idx.nbytes + self._prev.nbytes)

    def _reserve(self, m: int) -> None:
        """Make room for ``m`` more elements (and up to ``m`` more piles)."""
        need = self.n + m
        if need > self._prev.shape[0]:
            self._prev = _grown(self._prev, self.n, need)
        need = self.length + m
        if need > self._vals.shape[0]:
            self._vals = _grown(self._vals, self.length, need)
            self._idx = _grown(self._idx, self.length + 1, need + 1)


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    out = np.empty(max(need, 2 * buf.shape[0]), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


#: Ascending runs at least this long are solved in closed form; shorter
#: ones take the scalar step.  Measured on the ``fabric-shared-40g-noisy``
#: and ``local-dual`` patience inputs and on random runs of fixed length
#: (see docs/performance.md, "Exact run-wise patience").
_LONG_RUN = 32
#: The same for non-increasing runs.  One always sits between ascending
#: runs of two or more elements, so its closed form usually comes with a
#: short stretch on each side; measured on blocks of descending values,
#: it pays from about 110 elements.
_LONG_DESCENT = 128
#: Rounds the two-chain solve may take on one block before the rest of
#: the call goes run by run.  Every captured ``local-dual`` block, whole
#: pairs and 2048-element stream chunks alike, converges in 1 or 2; a
#: block that needs more pays its set-up and every round for nothing
#: (see docs/performance.md, "Two-chain patience").
_TWO_CHAIN_ROUNDS = 4
#: Elements per two-chain block: a miss wastes one block's rounds, and a
#: block's arrays stay in cache (the captured whole pairs run faster in
#: blocks of 4096 than in one piece).
_TWO_CHAIN_BLOCK = 4096


def patience_fill(values: np.ndarray, piles: PileState) -> None:
    """Feed ``values`` through the patience sort, mutating ``piles``.

    This is *the* canonical update step.  The batch driver runs it once
    over the whole sequence; :class:`repro.analysis.streamkappa.StreamKappa`
    resumes it on each chunk from the live pile state.  Either way the
    state equals that of the textbook loop — ``bisect_left`` into the
    tails, write the element there, link it to the tail one pile below —
    run element by element over the concatenated input, so "stream equals
    batch" is the serial loop itself, not a merge argument.

    A strictly ascending input is one run in closed form
    (:func:`_ascending_run`), checked first so the identity pays nothing
    more.  Any other input goes in blocks of ``_TWO_CHAIN_BLOCK``
    elements, each against the state the blocks before it left: a
    strictly ascending block is one closed-form run, and a shuffle of two
    strictly ascending sequences is solved in a few vectorized rounds
    (:func:`_two_chains`).  From the first block that is neither, or that
    needs more than ``_TWO_CHAIN_ROUNDS`` rounds, the rest of the input
    goes run by run.

    Run by run, the input is split into maximal strictly ascending runs
    (a tie ends a run, which keeps the ``bisect_left`` tie-break); a
    stretch of one-element runs between them is a non-increasing run.  An
    ascending run of ``_LONG_RUN`` or more elements, and a non-increasing
    one of ``_LONG_DESCENT`` or more, is solved in closed form against
    the tails before it (:func:`_ascending_run`, :func:`_descending_run`).

    Consecutive shorter runs form a stretch that takes the scalar step on
    Python lists holding only the tails suffix from
    ``lo = searchsorted(T, min(stretch))``: every element of the stretch
    is above ``T[lo - 1]``, so no bisect lands below ``lo`` and the piles
    under it are never read or written — except the link to pile
    ``lo - 1``, which the window carries in its first slot.

    Floating-point NaN has no place in an increasing order (every
    comparison with it is false), so it raises ``ValueError``; ``±inf``
    is ordered and allowed.
    """
    values = np.asarray(values)
    m = values.shape[0]
    if m == 0:
        return
    if values.dtype.kind == "f" and np.isnan(values).any():
        raise ValueError("patience_fill: NaN values have no increasing order")
    piles._reserve(m)
    if not (values[1:] <= values[:-1]).any():
        _ascending_run(values, piles)
        return
    for lo in range(0, m, _TWO_CHAIN_BLOCK):
        block = values[lo : lo + _TWO_CHAIN_BLOCK]
        if not (block[1:] <= block[:-1]).any():
            _ascending_run(block, piles)
        elif not _two_chains(block, piles):
            _run_wise(values[lo:], piles)
            return


def _run_wise(values: np.ndarray, piles: PileState) -> None:
    """Closed forms for the long runs, scalar steps for the stretches."""
    m = values.shape[0]
    done = 0
    for a, b, down in _long_runs(values):
        if a > done:
            _short_stretch(values[done:a], piles)
        if down:
            _descending_run(values[a:b], piles)
        else:
            _ascending_run(values[a:b], piles)
        done = b
    if done < m:
        _short_stretch(values[done:], piles)


def _long_runs(values: np.ndarray) -> list[tuple[int, int, bool]]:
    """``(start, end, non-increasing)`` of each run a closed form takes."""
    descents = values[1:] <= values[:-1]
    # Runs start where the direction flips; a peak ends the ascending run.
    flips = np.flatnonzero(descents[1:] != descents[:-1]) + 1
    bounds = np.concatenate(([0], flips + descents[flips], [values.shape[0]]))
    runs = np.flatnonzero(np.diff(bounds) >= _LONG_RUN)
    out = []
    for a, b in zip(bounds[runs].tolist(), bounds[runs + 1].tolist()):
        down = bool(descents[a])
        if not down or b - a >= _LONG_DESCENT:
            out.append((a, b, down))
    return out


def _ascending_run(run: np.ndarray, piles: PileState) -> None:
    """Feed one strictly ascending run in closed form.

    With ``s = searchsorted(T, r)`` on the tails ``T`` before the run,
    element ``j`` lands on pile ``pos_j = max(pos_{j-1} + 1, s_j)``, i.e.
    ``pos = j + maximum.accumulate(s - j)``: every pile up to
    ``pos_{j-1}`` then holds a value below ``r_j`` (an earlier element of
    the run, or a tail below an earlier ``s``) and every pile above it
    still holds ``T``.  Positions are strictly increasing, so each pile is
    written once and the predecessor of ``r_j`` is the tail one pile below
    ``pos_j`` *after* the run is scattered in (``r_{j-1}`` when
    ``pos_j = pos_{j-1} + 1``, an untouched pre-run tail otherwise).
    """
    k = run.shape[0]
    first = piles.n
    length = piles.length
    j = np.arange(first, first + k)
    if not length or run[0] > piles._vals[length - 1]:
        # Every element appends: the common case of an unreordered stream.
        end = length + k
        piles._vals[length:end] = run
        piles._idx[length + 1 : end + 1] = j
        piles._prev[first : first + k] = piles._idx[length:end]
        piles.length = end
    else:
        pos = np.searchsorted(piles.tails_vals, run) - j
        np.maximum.accumulate(pos, out=pos)
        pos += j
        piles._vals[pos] = run
        piles._idx[pos + 1] = j
        piles._prev[first : first + k] = piles._idx[pos]
        piles.length = max(length, int(pos[-1]) + 1)
    piles.n = first + k


def _descending_run(run: np.ndarray, piles: PileState) -> None:
    """Feed one non-increasing run in closed form.

    Element ``j`` lands on pile ``s_j = searchsorted(T, d_j)`` of the tails
    ``T`` before the run: the piles written so far are ``s_0 >= … >=
    s_{j-1} >= s_j`` and hold values ``>= d_j``, so the tails below ``s_j``
    are still the ``T`` values under ``d_j``.  The predecessor of ``d_j``,
    the tail of pile ``s_j - 1``, is below every pile written so far: a
    pre-run tail, read in one gather before the scatter.  A pile hit
    several times keeps the last element that landed on it.
    """
    k = run.shape[0]
    first = piles.n
    pos = np.searchsorted(piles.tails_vals, run)
    piles._prev[first : first + k] = piles._idx[pos]
    last = np.empty(k, dtype=bool)
    last[:-1] = pos[1:] != pos[:-1]
    last[-1] = True
    j = np.flatnonzero(last)
    pos = pos[j]
    piles._vals[pos] = run[j]
    piles._idx[pos + 1] = j + first
    piles.length = max(piles.length, int(pos[0]) + 1)
    piles.n = first + k


def _two_chains(values: np.ndarray, piles: PileState) -> int:
    """Feed a shuffle of two strictly ascending sequences in a few rounds.

    X is the strict prefix maxima of ``values`` (the first element among
    them), Y the rest; ``values`` is not strictly ascending, so Y is not
    empty.  Unless Y is strictly ascending the input is not two chains,
    and this returns 0 with ``piles`` untouched.

    With ``s = searchsorted(T, v)`` on the tails ``T`` before the call,
    element ``i`` lands on pile

        pos_i = max(s_i, 1 + max{pos_j : j < i, v_j < v_i})

    (``bisect_left``, ties included).  Positions increase along each
    chain, so the same-chain term is the chain's previous element, and the
    other-chain term is one element: for ``x``, the last ``y`` before it
    (an ``x`` exceeds everything before it); for ``y``, the last ``x``
    below it (an ``x`` below ``y`` always comes before it).  Given
    Y's positions, X's follow in closed form —
    ``pos = j + maximum.accumulate(max(s, cross + 1) − j)`` as in
    :func:`_ascending_run` — and the same for Y given X's.  Starting from
    Y alone, the rounds alternate the two until Y's positions repeat: then
    both satisfy the recurrence, whose solution is unique because each
    position depends only on earlier ones.  A call that has not converged
    after ``_TWO_CHAIN_ROUNDS`` rounds returns 0, ``piles`` untouched.

    The predecessor of an element on pile ``p`` is the later of the X and
    Y elements on pile ``p − 1`` that precede it — only its chain's
    previous element and the cross element above can — else the pre-call
    link.  Each chain lands on a pile at most once, and a later ``x``
    lands above every earlier ``y``, so where the chains share a pile
    the ``y`` came last: X is scattered in first, then Y.

    Returns the number of rounds taken.
    """
    m = values.shape[0]
    is_x = np.empty(m, dtype=bool)
    is_x[0] = True
    np.greater(values[1:], np.maximum.accumulate(values[:-1]), out=is_x[1:])
    iy = np.flatnonzero(~is_x)
    yv = values[iy]
    if not (yv[1:] > yv[:-1]).all():
        return 0
    ix = np.flatnonzero(is_x)
    xv = values[ix]
    jx = np.arange(ix.shape[0])
    jy = np.arange(iy.shape[0])
    # Positions are kept shifted, pos - j (j the index in the chain), in
    # arrays whose slot 0 stands for "no element" and slot k for the
    # chain's k-th element, 1-based.  The cross element of x_j is Y slot
    # d = ix - jx, the count of y before it; that of y_k is X slot c, the
    # count of x below it.  Its term pos + 1 - j is shifted[slot] + slot - j.
    tails = piles.tails_vals
    sx = np.searchsorted(tails, xv) - jx
    sy = np.searchsorted(tails, yv) - jy
    d = ix - jx
    c = np.searchsorted(xv, yv)
    dx = d - jx
    cy = c - jy
    px = np.empty(ix.shape[0] + 1, dtype=np.intp)
    py = np.empty(iy.shape[0] + 1, dtype=np.intp)
    px[0] = py[0] = -2 * m - 2  # below every shifted position: no term
    np.maximum.accumulate(sy, out=py[1:])
    t = np.empty(iy.shape[0], dtype=np.intp)
    for rounds in range(1, _TWO_CHAIN_ROUNDS + 1):
        u = py[d]
        u += dx
        np.maximum(u, sx, out=u)
        np.maximum.accumulate(u, out=px[1:])
        np.take(px, c, out=t)
        t += cy
        np.maximum(t, sy, out=t)
        np.maximum.accumulate(t, out=t)
        if np.array_equal(t, py[1:]):
            break
        py[1:] = t
    else:
        return 0

    px[1:] += jx
    py[1:] += jy
    first = piles.n
    # Global indices, with the same leading slot (-1: no element).
    gx = np.empty_like(px)
    gy = np.empty_like(py)
    gx[0] = gy[0] = -1
    np.add(ix, first, out=gx[1:])
    np.add(iy, first, out=gy[1:])
    # Every element of the call comes after every pre-call one, so the
    # later of the candidates is the largest index, the pre-call link
    # included.  A pile above the pre-call ones always has a candidate;
    # the top pre-call link stands in for its (unset) link.
    prev = piles._prev[first : first + m]
    length = piles.length
    for pos, g, idx, other, g_other, cross in (
        (px, gx, ix, py, gy, d), (py, gy, iy, px, gx, c)
    ):
        at = pos[1:]
        below = at - 1
        pred = piles._idx[np.minimum(at, length)]
        np.maximum(pred, g_other[cross], out=pred, where=other[cross] == below)
        np.maximum(pred[1:], g[1:-1], out=pred[1:], where=pos[1:-1] == below[1:])
        prev[idx] = pred
    tails_idx = piles._idx[1:]
    for pos, g, v in ((px, gx, xv), (py, gy, yv)):
        piles._vals[pos[1:]] = v
        tails_idx[pos[1:]] = g[1:]
    piles.length = max(length, int(px[-1]) + 1, int(py[-1]) + 1)
    piles.n = first + m
    return rounds


def _short_stretch(values: np.ndarray, piles: PileState) -> None:
    """Feed ``values`` element by element on a list window of the tails."""
    if not piles.length:
        # Nothing to bisect into: the first element opens pile 0, even
        # -inf, which the empty window's -inf sentinel below would send
        # to a bisect.
        _ascending_run(values[:1], piles)
        values = values[1:]
        if not values.shape[0]:
            return
    first = piles.n
    length = piles.length
    lo = int(np.searchsorted(piles.tails_vals, values.min()))
    tails = piles._vals[lo:length].tolist()
    # links[p] is the predecessor of an element landing on window pile p.
    links = piles._idx[lo : length + 1].tolist()
    last = tails[-1] if tails else -math.inf
    preds = []
    add_pred = preds.append
    add_tail = tails.append
    add_link = links.append
    for i, v in enumerate(values.tolist(), first):
        if v > last:
            add_pred(links[-1])
            add_tail(v)
            add_link(i)
            last = v
        else:
            p = bisect_left(tails, v)
            add_pred(links[p])
            tails[p] = v
            links[p + 1] = i
            last = tails[-1]
    k = len(preds)
    end = lo + len(tails)
    piles._vals[lo:end] = tails
    piles._idx[lo : end + 1] = links
    piles._prev[first : first + k] = np.fromiter(preds, np.intp, k)
    piles.length = end
    piles.n = first + k


#: Below this LIS length the scalar predecessor walk beats the pointer-
#: doubling setup (one ndarray copy of the links plus log2(L) gathers).
_DOUBLING_MIN_LENGTH = 4096


def _lis_indices_doubling(tail: int, prev: np.ndarray, length: int) -> np.ndarray:
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
    chain[0] = tail
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


def lis_indices_from_state(piles: PileState) -> np.ndarray:
    """Walk predecessor links back from the tail of the longest pile.

    Long walks (the paper-scale regime: LIS length close to the row
    count) run as pointer doubling — O(log L) vectorized gathers instead
    of an O(L) Python loop — following the identical predecessor links;
    short walks keep the scalar loop, which wins below the setup cost.
    """
    length = len(piles)
    out = np.empty(length, dtype=np.intp)
    if length == 0:
        return out
    tail = int(piles.tails_idx[-1])
    if length >= _DOUBLING_MIN_LENGTH:
        return _lis_indices_doubling(tail, piles.prev, length)
    prev_list = piles.prev.tolist()
    k = tail
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
    piles = PileState(seq.dtype, capacity=n)
    patience_fill(seq, piles)
    return lis_indices_from_state(piles)


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
    a_ranks_in_b = m.a_ranks_in_b_order()
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
