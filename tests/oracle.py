"""A reference model of Section 3, written naively from the paper.

Production code is checked against these functions, not only against
itself.  They favour being obviously right over being fast: plain Python
over lists, no vectorization, a few lines per definition.

So far this holds the matching half of κ:

* :func:`match` — "where packets are completely identical in data, they
  can be tagged with their occurrence": the k-th packet with a tag in A is
  the same packet as the k-th packet with that tag in B;
* :func:`a_ranks_in_b_order` — the common packets' A-side ranks, listed
  in B order (the sequence whose LIS is the LCS behind Eq. 2);
* :func:`unmatched` — the positions outside the matching (the edit
  script's insertions into A and deletions from B).

:func:`match_tag_arrays` is the vectorized matcher the production code
used before the baseline index; it is kept as a second oracle.

:func:`reference_burstify_poll_loop` is the simulator's Section-5 poll
loop as production ran it before it moved to Python floats and
``bisect``: one whole-array ``searchsorted`` and numpy-scalar arithmetic
per burst.  Production burst ids must equal its ids bit for bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.replay.burst import MAX_BURST, PollLoopCost


def match(tags_a, tags_b) -> tuple[list[int], list[int]]:
    """The ``(tag, occurrence)`` matching: aligned positions in A order."""
    where_a = {}
    seen = Counter()
    for i, tag in enumerate(tags_a):
        where_a[(tag, seen[tag])] = i
        seen[tag] += 1
    pairs = []
    seen = Counter()
    for j, tag in enumerate(tags_b):
        key = (tag, seen[tag])
        seen[tag] += 1
        if key in where_a:
            pairs.append((where_a[key], j))
    pairs.sort()
    return [i for i, _ in pairs], [j for _, j in pairs]


def a_ranks_in_b_order(ia, ib) -> list[int]:
    """A-side ranks of the common packets, listed in B order.

    Row ``r`` of the matching is the common packet of A-rank ``r`` (rows
    are in A order), so sorting the rows by B position lists the ranks.
    """
    return sorted(range(len(ia)), key=lambda r: ib[r])


def unmatched(n: int, matched) -> list[int]:
    """The positions ``0..n-1`` not in ``matched``."""
    taken = set(matched)
    return [i for i in range(n) if i not in taken]


def match_tag_arrays(
    tags_a: np.ndarray, tags_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aligned ``(tag, occurrence)`` index pairs of two tag sequences.

    One stable argsort per side: the sort groups equal tags into
    contiguous runs in input order, so the k-th element of tag t's run is
    the k-th occurrence of t, and pairing the first ``min(count_A,
    count_B)`` run elements of every tag present on both sides yields the
    Section-3 pair set.  Returns ``(ia, ib)`` sorted by ``ia``.
    """
    na, nb = tags_a.shape[0], tags_b.shape[0]
    if na == 0 or nb == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty

    sa = np.argsort(tags_a, kind="stable")
    sb = np.argsort(tags_b, kind="stable")
    sorted_a = tags_a[sa]
    sorted_b = tags_b[sb]

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

    pos = np.searchsorted(vals_a, vals_b)
    in_range = np.flatnonzero(pos < vals_a.size)
    bsel = in_range[vals_a[pos[in_range]] == vals_b[in_range]]
    asel = pos[bsel]

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


def reference_burstify_poll_loop(
    arrival_ns: np.ndarray,
    cost: PollLoopCost | None = None,
    max_burst: int = MAX_BURST,
) -> np.ndarray:
    """Burst ids of the forwarding poll loop, one burst per iteration."""
    cost = cost if cost is not None else PollLoopCost()
    if max_burst < 1:
        raise ValueError("max_burst must be >= 1")
    t = np.asarray(arrival_ns, dtype=np.float64)
    n = t.shape[0]
    ids = np.empty(n, dtype=np.int64)
    if n == 0:
        return ids
    if np.any(np.diff(t) < 0):
        raise ValueError("arrival times must be non-decreasing")

    burst = 0
    i = 0
    # Poll time starts at the first arrival (the loop was idle-spinning).
    poll = float(t[0]) + cost.iteration_ns
    while i < n:
        if t[i] > poll:
            # Idle: loop spins; next poll lands one iteration after the
            # arrival-containing spin tick.  The sub-iteration phase is
            # deterministic here; scheduling noise is injected later by the
            # replayer model, not by burstification.
            spins = np.ceil((t[i] - poll) / cost.iteration_ns)
            poll = poll + spins * cost.iteration_ns
        # Take everything waiting, up to the cap.
        j = int(np.searchsorted(t, poll, side="right"))
        j = min(j, i + max_burst)
        ids[i:j] = burst
        burst += 1
        poll += cost.burst_cost_ns(j - i)
        i = j
    return ids
