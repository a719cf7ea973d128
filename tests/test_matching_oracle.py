"""Matching against the Section-3 reference model (``tests/oracle.py``).

Three paths must produce the oracle's ``(tag, occurrence)`` matching:

* the batch matcher, :func:`repro.core.matching.match_trials` — rows,
  A-ranks in B order, and the edit script's insertions and deletions;
* :meth:`StreamKappa.matching` after any chunking of the run, empty and
  1-packet chunks included;
* the retired vectorized matcher, kept as :func:`oracle.match_tag_arrays`.

Tag strategies force the shapes that take the occurrence step: repeats in
A only, in B only and in both, repeats split across chunks, disjoint and
empty or one-sided trials, negative tags and the int64 extremes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streamkappa import StreamKappa
from repro.core import Trial, compare_trials, edit_script, match_trials

from . import oracle

I64 = np.iinfo(np.int64)
EXTREMES = [int(I64.min), int(I64.min) + 1, -1, 0, 1, int(I64.max) - 1, int(I64.max)]

#: Few distinct values, so repeats are common.
repeating = st.one_of(st.integers(-3, 3), st.sampled_from(EXTREMES))
#: Any int64.
anything = st.one_of(repeating, st.integers(int(I64.min), int(I64.max)))


def trial(tags) -> Trial:
    return Trial(np.array(tags, dtype=np.int64), np.arange(len(tags), dtype=np.float64))


def check_batch(tags_a, tags_b) -> None:
    a, b = trial(tags_a), trial(tags_b)
    ia, ib = oracle.match(tags_a, tags_b)
    m = match_trials(a, b)
    assert m.idx_a.tolist() == ia
    assert m.idx_b.tolist() == ib
    assert m.a_ranks_in_b_order().tolist() == oracle.a_ranks_in_b_order(ia, ib)
    script = edit_script(a, b, matching=m)
    assert script.insertions_a.tolist() == oracle.unmatched(len(tags_a), ia)
    assert script.deletions_b.tolist() == oracle.unmatched(len(tags_b), ib)
    va, vb = oracle.match_tag_arrays(a.tags, b.tags)
    assert va.tolist() == ia and vb.tolist() == ib


def check_stream(tags_a, tags_b, sizes) -> None:
    a, b = trial(tags_a), trial(tags_b)
    sk = StreamKappa(a)
    lo = 0
    for size in [*sizes, len(tags_b)]:
        hi = min(lo + size, len(tags_b))
        sk.update(b.tags[lo:hi], b.times_ns[lo:hi])
        lo = hi
    ia, ib = oracle.match(tags_a, tags_b)
    m = sk.matching()
    assert m.idx_a.tolist() == ia
    assert m.idx_b.tolist() == ib
    assert m.a_ranks_in_b_order().tolist() == oracle.a_ranks_in_b_order(ia, ib)
    if tags_a and tags_b:
        assert sk.result() == compare_trials(a, b).metrics


pairs = {
    "repeats in both": (
        st.lists(repeating, max_size=30),
        st.lists(repeating, max_size=30),
    ),
    "repeats in A only": (
        st.lists(repeating, max_size=30),
        st.lists(anything, max_size=30, unique=True),
    ),
    "repeats in B only": (
        st.lists(anything, max_size=30, unique=True),
        st.lists(repeating, max_size=30),
    ),
    "disjoint": (
        st.lists(st.integers(int(I64.min), -1), max_size=30),
        st.lists(st.integers(0, int(I64.max)), max_size=30),
    ),
    "one-sided": (st.just([]), st.lists(anything, max_size=30)),
    "other side": (st.lists(anything, max_size=30), st.just([])),
    "anything": (st.lists(anything, max_size=40), st.lists(anything, max_size=40)),
}
any_pair = st.one_of(*(st.tuples(sa, sb) for sa, sb in pairs.values()))
#: Chunk sizes before the remainder: empty and 1-packet chunks included.
chunk_sizes = st.lists(st.integers(0, 6), max_size=12)


@given(any_pair)
@settings(max_examples=400, deadline=None)
def test_batch_matches_oracle(pair):
    check_batch(*pair)


@given(any_pair, chunk_sizes)
@settings(max_examples=300, deadline=None)
def test_stream_matches_oracle_at_any_chunking(pair, sizes):
    check_stream(*pair, sizes)


@given(
    st.lists(repeating, max_size=20),
    st.lists(st.lists(repeating, max_size=20), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_reused_baseline_index_matches_oracle(tags_a, runs):
    """One baseline trial matched against several runs reuses its index."""
    a = trial(tags_a)
    for tags_b in runs:
        m = match_trials(a, trial(tags_b))
        assert (m.idx_a.tolist(), m.idx_b.tolist()) == oracle.match(tags_a, tags_b)


def test_repeat_split_across_chunks():
    """A run's repeat of a tag in a later chunk is its next occurrence."""
    cases = (([5, 7], [5, 5, 7]), ([5, 5, 7], [5, 8, 5, 5]), ([5, 5], [5, 5, 5]))
    for tags_a, tags_b in cases:
        for sizes in ([1], [1, 1, 1, 1], [2], [0, 1, 0, 1]):
            check_stream(tags_a, tags_b, sizes)
            check_batch(tags_a, tags_b)


def test_extremes_and_negative_tags():
    tags_a = [int(I64.max), int(I64.min), -7, int(I64.max), 0]
    tags_b = [int(I64.min), int(I64.max), int(I64.max), int(I64.max), -7]
    check_batch(tags_a, tags_b)
    check_stream(tags_a, tags_b, [1, 2])
