"""Unit tests for the O metric (Equation 2) and its LIS/edit-script core."""

from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streamkappa import StreamKappa
from repro.core import (
    compare_trials,
    edit_script,
    longest_increasing_subsequence,
    move_distance_stats,
    naive_lcs_length,
    ordering_variation,
)

from repro.core import ordering
from repro.core.ordering import PileState, lis_membership, patience_fill

from .conftest import comb_trial, make_trial, suite_rng
from .ordering_corpus import CORPUS, chunk_sizes


def reference_patience_fill(
    values: list,
    tails_vals: list,
    tails_idx: list[int],
    prev_slice,
    offset: int = 0,
) -> None:
    """The patience loop one element at a time: the oracle for patience_fill.

    ``values`` are Python scalars; ``tails_vals``/``tails_idx`` are the
    pile state as lists, mutated in place (``tails_idx`` holds global
    element indices ``offset + i``); ``prev_slice[i]`` receives the global
    predecessor of element ``offset + i`` and keeps its ``-1`` sentinel on
    pile 0.
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


def assert_same_as_reference(seq, chunks, dtype=np.int64) -> PileState:
    """Feed ``seq`` chunk by chunk to both; the states must be ``==`` after
    every chunk (so every chunk after the first starts from a non-empty
    state)."""
    seq = np.asarray(seq, dtype=dtype)
    piles = PileState(dtype)
    tails_vals: list = []
    tails_idx: list[int] = []
    prev = np.full(seq.shape[0], -1, dtype=np.intp)
    lo = 0
    for size in chunks:
        part = seq[lo : lo + size]
        patience_fill(part, piles)
        reference_patience_fill(part.tolist(), tails_vals, tails_idx, prev[lo:], lo)
        lo += part.shape[0]
        assert piles.tails_vals.tolist() == tails_vals
        assert piles.tails_idx.tolist() == tails_idx
        assert piles.prev.tolist() == prev[:lo].tolist()
        assert len(piles) == len(tails_vals) and piles.n == lo
    assert lo == seq.shape[0]
    return piles


def _chunking(n: int, draw_sizes) -> list[int]:
    """Cut ``n`` elements into the drawn chunk sizes, repeated as needed."""
    out, total, k = [], 0, 0
    while total < n:
        size = min(draw_sizes[k % len(draw_sizes)], n - total)
        out.append(size)
        total += size
        k += 1
    return out or [0]


@st.composite
def run_sequences(draw):
    """Concatenated monotone runs with lengths around the crossover, and
    those lengths.

    Each run is strictly ascending or non-increasing (ties included) and
    starts at a random value, so runs interleave with the tails the
    earlier ones left (bisects land mid-pile, not only at the top).
    """
    up, down = ordering._LONG_RUN, ordering._LONG_DESCENT
    lengths = draw(st.lists(
        st.sampled_from([1, 2, 5, up - 1, up, up + 1, 3 * up, down - 1, down, down + 1]),
        min_size=1, max_size=12,
    ))
    parts = []
    for k in lengths:
        start = draw(st.integers(-50, 400))
        if draw(st.booleans()):
            steps = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        else:
            steps = draw(st.lists(st.integers(-3, 0), min_size=k, max_size=k))
        parts.append(start + np.cumsum(steps))
    return np.concatenate(parts), lengths


@st.composite
def two_chain_sequences(draw):
    """Two strictly ascending chains interleaved at random.

    Values never tie within a chain but may tie between the chains, so an
    element can equal the prefix maximum it follows.  The interleaving is
    either uniform or in bursts that alternate between the chains.
    """
    def chain():
        start = draw(st.integers(-50, 200))
        k = draw(st.integers(0, 150))
        steps = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        return (start + np.cumsum(steps, dtype=np.int64)).tolist()

    a, b = chain(), chain()
    if draw(st.booleans()):
        order = [0] * len(a) + [1] * len(b)
        draw(st.randoms(use_true_random=False)).shuffle(order)
    else:
        bursts = draw(st.lists(st.integers(1, 24), min_size=1, max_size=8))
        order, left, k = [], [len(a), len(b)], 0
        while left[0] or left[1]:
            side = k % 2
            take = min(bursts[k % len(bursts)], left[side])
            order += [side] * take
            left[side] -= take
            k += 1
    chains = (iter(a), iter(b))
    return np.array([next(chains[k]) for k in order], dtype=np.int64)


def _burst_merge(n: int, a_burst: int, b_burst: int) -> np.ndarray:
    """Two streams merged in bursts of ``a_burst`` in A, ``b_burst`` in B.

    The A-ranks in B order of two replayers whose bursts A and B cut
    differently.  The longest increasing subsequences change stream at
    the burst boundaries, so the two-chain rounds grow with ``n``.
    """
    ranks = np.arange(n).reshape(-1, a_burst)
    streams = (ranks[0::2].ravel(), ranks[1::2].ravel())
    return np.concatenate([
        s[lo : lo + b_burst] for lo in range(0, n // 2, b_burst) for s in streams
    ]).astype(np.int64)


@pytest.fixture
def path_spies(monkeypatch):
    """What each kernel path saw: the rounds every two-chain block took
    (0: not solved), and the length of every run-wise rest and scalar
    stretch."""
    seen = {"rounds": [], "run_wise": [], "stretch": []}
    real = {name: getattr(ordering, name)
            for name in ("_two_chains", "_run_wise", "_short_stretch")}

    def two_chains(values, piles):
        seen["rounds"].append(real["_two_chains"](values, piles))
        return seen["rounds"][-1]

    def lengths(name, key):
        def spy(values, piles):
            seen[key].append(len(values))
            return real[name](values, piles)
        return spy

    monkeypatch.setattr(ordering, "_two_chains", two_chains)
    monkeypatch.setattr(ordering, "_run_wise", lengths("_run_wise", "run_wise"))
    monkeypatch.setattr(ordering, "_short_stretch", lengths("_short_stretch", "stretch"))
    return seen


chunk_lists = st.lists(st.integers(1, 70), min_size=1, max_size=4)


class TestLIS:
    def test_sorted(self):
        idx = longest_increasing_subsequence(np.arange(10))
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_reversed(self):
        idx = longest_increasing_subsequence(np.arange(10)[::-1].copy())
        assert idx.shape == (1,)

    def test_classic(self):
        seq = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        idx = longest_increasing_subsequence(seq)
        vals = seq[idx]
        assert np.all(np.diff(vals) > 0)
        assert idx.shape[0] == 4  # e.g. 1,4,5,9 or 3,4,5,9 or 1,4,5,6 ...

    def test_empty(self):
        assert longest_increasing_subsequence(np.array([])).shape == (0,)

    def test_single(self):
        np.testing.assert_array_equal(
            longest_increasing_subsequence(np.array([42])), [0]
        )

    def test_strictly_increasing_required(self):
        # Equal elements cannot both be members.
        idx = longest_increasing_subsequence(np.array([2, 2, 2]))
        assert idx.shape == (1,)

    @pytest.mark.parametrize("seq", [[1.0, np.nan, 2.0, 3.0], [np.nan, np.nan]])
    def test_nan_is_a_value_error(self, seq):
        with pytest.raises(ValueError, match="NaN"):
            longest_increasing_subsequence(np.array(seq))

    def test_infinities_are_ordered(self):
        seq = np.array([-np.inf, 3.0, np.inf, 1.0, 2.0, np.inf])
        assert longest_increasing_subsequence(seq).tolist() == [0, 3, 4, 5]

    @given(
        st.lists(st.sampled_from([-np.inf, -2.5, 0.0, 1.0, 1.5, 4.0, np.inf]), max_size=80),
        chunk_lists,
    )
    @settings(max_examples=200, deadline=None)
    def test_infinities_match_the_oracle(self, values, sizes):
        """Every path, -inf opening an empty state included."""
        assert_same_as_reference(values, [len(values)], dtype=np.float64)
        assert_same_as_reference(values, _chunking(len(values), sizes), dtype=np.float64)

    def test_indices_increasing(self, rng):
        for _ in range(10):
            seq = rng.permutation(100)
            idx = longest_increasing_subsequence(seq)
            assert np.all(np.diff(idx) > 0)
            assert np.all(np.diff(seq[idx]) > 0)

    def test_matches_naive_lcs_on_permutations(self, rng):
        """LIS of A-ranks in B order == LCS length (Schensted)."""
        for _ in range(10):
            perm = rng.permutation(60)
            lis_len = longest_increasing_subsequence(perm).shape[0]
            assert lis_len == naive_lcs_length(np.arange(60), perm)


    @pytest.mark.parametrize("length", [0, 1, 2, 63, 64, 4095, 4096, 5000])
    def test_walk_equals_the_one_step_walk(self, length):
        """The pointer-doubling walk against the predecessor walk, exactly.

        A ramp ``0..length-1`` with repeats of its values scattered in has
        an LIS of exactly ``length``: strict increase allows each value once.
        """
        rng = np.random.default_rng(length)
        ramp = np.arange(length, dtype=np.int64)
        repeats = rng.choice(ramp, length // 8)
        seq = np.insert(ramp, rng.integers(0, length + 1, repeats.size), repeats)
        piles = PileState(np.int64)
        patience_fill(seq, piles)
        assert len(piles) == length
        want = []
        k = int(piles.tails_idx[-1]) if length else -1
        while k >= 0:
            want.append(k)
            k = int(piles.prev[k])
        got = ordering.lis_indices_from_state(piles)
        assert got.dtype == np.intp
        assert got.tolist() == want[::-1]


class TestPatienceDifferential:
    """patience_fill against the element-at-a-time oracle, with exact ==."""

    @given(st.lists(st.integers(-30, 30), max_size=300), chunk_lists)
    @settings(max_examples=300, deadline=None)
    def test_random_values_any_chunking(self, values, sizes):
        assert_same_as_reference(values, _chunking(len(values), sizes))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=300), chunk_lists)
    @settings(max_examples=150, deadline=None)
    def test_duplicate_heavy(self, values, sizes):
        assert_same_as_reference(values, _chunking(len(values), sizes))

    @given(run_sequences(), chunk_lists)
    @settings(max_examples=300, deadline=None)
    def test_runs_straddling_the_crossover(self, runs, sizes):
        seq, lengths = runs
        assert_same_as_reference(seq, [seq.shape[0]])
        # One drawn run per chunk, so runs also open chunks, on a live state.
        assert_same_as_reference(seq, lengths)
        assert_same_as_reference(seq, _chunking(seq.shape[0], sizes))
        assert_same_as_reference(seq, [1] * seq.shape[0])

    @given(
        two_chain_sequences(),
        st.lists(st.integers(-60, 300), max_size=60),
        chunk_lists,
        st.sampled_from([2, 7, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_two_chains(self, seq, prefix, sizes, block):
        assert_same_as_reference(seq, [seq.shape[0]])
        assert_same_as_reference(seq, _chunking(seq.shape[0], sizes))
        assert_same_as_reference(seq, [1] * seq.shape[0])
        # On the live state an earlier random prefix left.
        assert_same_as_reference(np.concatenate([prefix, seq]), [len(prefix), seq.shape[0]])
        # In blocks, each resuming the state the blocks before it left.
        with mock.patch.object(ordering, "_TWO_CHAIN_BLOCK", block):
            assert_same_as_reference(seq, [seq.shape[0]])

    def test_past_the_round_cap_goes_run_wise(self, path_spies):
        seq = _burst_merge(96, 2, 3)
        piles = PileState(np.int64)
        piles._reserve(seq.shape[0])
        cap = ordering._TWO_CHAIN_ROUNDS
        with mock.patch.object(ordering, "_TWO_CHAIN_ROUNDS", seq.shape[0]):
            assert ordering._two_chains(seq, piles) > cap + 1
        path_spies["rounds"].clear()
        assert_same_as_reference(seq, [seq.shape[0]])
        assert path_spies["rounds"] == [0] and path_spies["run_wise"] == [seq.shape[0]]

    def test_blocks_then_the_rest_run_wise(self, path_spies):
        """Blocks that converge are kept; from the first that does not,
        the rest of the call goes run by run."""
        seq = np.concatenate([_burst_merge(128, 8, 16), 128 + _burst_merge(256, 2, 3)])
        with mock.patch.object(ordering, "_TWO_CHAIN_BLOCK", 128):
            assert_same_as_reference(seq, [seq.shape[0]])
        assert path_spies["rounds"] == [2, 0] and path_spies["run_wise"] == [256]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus(self, name):
        seq = CORPUS[name]
        for chunk in chunk_sizes(seq.shape[0]) + [7]:
            assert_same_as_reference(seq, _chunking(seq.shape[0], [chunk]))

    def test_long_random_streams(self):
        rng = suite_rng(214)
        for _ in range(20):
            n = int(rng.integers(500, 5000))
            shape = rng.integers(4)
            if shape == 0:
                seq = rng.permutation(n)
            elif shape == 1:
                k = int(rng.integers(2, 100))
                seq = np.sort(rng.permutation(n)[: n // k * k].reshape(-1, k), axis=1).ravel()
            elif shape == 2:
                seq = rng.integers(0, int(rng.integers(2, 50)), n)
            else:
                seq = np.arange(n) + rng.integers(-40, 40, n)
            sizes = [int(s) for s in rng.integers(1, 3000, 3)]
            assert_same_as_reference(seq, [seq.shape[0]])
            assert_same_as_reference(seq, _chunking(seq.shape[0], sizes))

    def test_empty_chunks_leave_the_state_alone(self):
        piles = assert_same_as_reference([3, 1, 2], [0, 2, 0, 1])
        assert piles.tails_vals.tolist() == [1, 2]

    def test_tracer_view_of_the_state(self):
        """len() is the pile count and [-1] the top tail, as for a list."""
        piles = PileState(np.int64)
        assert len(piles) == 0
        patience_fill(np.array([5, 9, 7, 1], dtype=np.int64), piles)
        assert len(piles) == 2 and piles[-1] == 7
        assert piles.tails_idx.tolist() == [3, 2]

    def test_lis_does_not_take_python_lists(self, monkeypatch):
        """The batch driver hands the ndarray straight to the kernel."""
        seen = []
        real = ordering.patience_fill

        def spy(values, piles):
            seen.append(type(values))
            return real(values, piles)

        monkeypatch.setattr(ordering, "patience_fill", spy)
        lis_membership(np.arange(50)[::-1].copy())
        assert seen == [np.ndarray]


class TestPatiencePaths:
    """Which path each input takes (the differential tests pin the bits)."""

    def test_local_dual_never_steps(self, path_spies):
        """Two replayers, each FIFO: every call is solved as two chains,
        whole pairs and 2048-packet stream chunks alike."""
        from repro.experiments.scenarios import scenario
        from repro.testbeds import Testbed

        trials = Testbed(scenario("local-dual").profile(0.02), seed=5).run_series(3)
        for b in trials[1:]:
            compare_trials(trials[0], b)
            sk = StreamKappa(trials[0])
            for lo in range(0, len(b), 2048):
                sk.update(b.tags[lo : lo + 2048], b.times_ns[lo : lo + 2048])
        assert path_spies["stretch"] == [] and path_spies["run_wise"] == []
        assert len(path_spies["rounds"]) > 2 and 0 not in path_spies["rounds"]

    def test_identity_never_tries_two_chains(self, path_spies):
        seq = np.arange(300, dtype=np.int64)
        lis_membership(seq)
        assert_same_as_reference(seq, [7] * 43)
        assert_same_as_reference(seq, [1] * 300)
        assert path_spies == {"rounds": [], "run_wise": [], "stretch": []}


class TestNaiveLCS:
    def test_textbook(self):
        assert naive_lcs_length(list(b"ABCBDAB"), list(b"BDCABA")) == 4

    def test_identical(self):
        assert naive_lcs_length(np.arange(10), np.arange(10)) == 10

    def test_disjoint(self):
        assert naive_lcs_length(np.arange(5), np.arange(10, 15)) == 0


class TestCorpus:
    """The adversarial corpus against the DP oracle and the streamed O."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_lis_membership_matches_dp_length(self, name):
        seq = CORPUS[name]
        mask = lis_membership(seq)
        assert np.all(np.diff(seq[mask]) > 0)
        # For a strict LIS with duplicates, LIS(s) == LCS(unique(s), s).
        assert int(mask.sum()) == naive_lcs_length(np.unique(seq), seq)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_stream_chunkings_match_batch(self, name):
        """B arrives in corpus order, so the streamed patience loop runs on
        exactly the corpus sequence; every chunking equals batch."""
        seq = CORPUS[name]
        n = seq.shape[0]
        rng = suite_rng(213)
        a = make_trial(np.cumsum(rng.exponential(200.0, size=n)), label="A")
        b = make_trial(np.cumsum(rng.exponential(200.0, size=n)), seq, label="B")
        want = compare_trials(a, b).metrics
        for chunk in chunk_sizes(n):
            sk = StreamKappa(a)
            for lo in range(0, n, chunk):
                sk.update(b.tags[lo : lo + chunk], b.times_ns[lo : lo + chunk])
            got = sk.result()
            for part in ("u", "o", "l", "i"):
                assert getattr(got, part) == getattr(want, part), (name, chunk, part)


class TestOrderingMetric:
    def test_identical_is_zero(self):
        a = comb_trial(20)
        assert ordering_variation(a, a) == 0.0

    def test_same_order_different_times_is_zero(self):
        a = make_trial([0, 1, 2, 3], tags=[1, 2, 3, 4])
        b = make_trial([5, 50, 500, 5000], tags=[1, 2, 3, 4])
        assert ordering_variation(a, b) == 0.0

    def test_reversal_approaches_one(self):
        n = 500
        a = make_trial(np.arange(n, dtype=float), tags=np.arange(n))
        b = make_trial(np.arange(n, dtype=float), tags=np.arange(n)[::-1].copy())
        o = ordering_variation(a, b)
        assert 0.95 <= o <= 1.0

    def test_single_swap_is_small(self):
        tags = np.arange(100)
        swapped = tags.copy()
        swapped[[10, 11]] = swapped[[11, 10]]
        a = make_trial(np.arange(100, dtype=float), tags=tags)
        b = make_trial(np.arange(100, dtype=float), tags=swapped)
        o = ordering_variation(a, b)
        assert 0.0 < o < 0.01

    def test_in_range(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 80))
            a = make_trial(np.arange(n, dtype=float), tags=np.arange(n))
            b = make_trial(np.arange(n, dtype=float), tags=rng.permutation(n))
            assert 0.0 <= ordering_variation(a, b) <= 1.0

    def test_non_common_packets_do_not_move(self):
        """d_i = 0 for packets not in A, per the paper."""
        a = make_trial(np.arange(4, dtype=float), tags=[1, 2, 3, 4])
        b = make_trial(np.arange(5, dtype=float), tags=[1, 99, 2, 3, 4])
        assert ordering_variation(a, b) == 0.0

    def test_tiny_trials(self):
        a = make_trial([0.0], tags=[1])
        assert ordering_variation(a, a) == 0.0
        e = make_trial([])
        assert ordering_variation(e, e) == 0.0


class TestEditScript:
    def test_identity_script_empty(self):
        a = comb_trial(10)
        s = edit_script(a, a)
        assert s.n_moved == 0
        assert s.lcs_length == 10
        assert s.deletions_b.shape == (0,)
        assert s.insertions_a.shape == (0,)
        assert s.total_distance() == 0.0

    def test_deletions_and_insertions(self):
        a = make_trial(np.arange(4, dtype=float), tags=[1, 2, 3, 4])
        b = make_trial(np.arange(4, dtype=float), tags=[1, 9, 3, 4])
        s = edit_script(a, b)
        np.testing.assert_array_equal(s.deletions_b, [1])  # tag 9 at b[1]
        np.testing.assert_array_equal(s.insertions_a, [1])  # tag 2 at a[1]

    def test_moved_distances_sign_convention(self):
        """signed d = rank_A - rank_B for moved packets."""
        # B = [2, 0, 1]: LIS of a-ranks-in-b-order [2,0,1] keeps (0,1).
        a = make_trial(np.arange(3, dtype=float), tags=[0, 1, 2])
        b = make_trial(np.arange(3, dtype=float), tags=[2, 0, 1])
        s = edit_script(a, b)
        assert s.n_moved == 1
        # Tag 2: rank 2 in A, rank 0 in B -> +2.
        np.testing.assert_array_equal(s.moved_distances, [2.0])

    def test_block_displacement_distances(self):
        """A block shifted by k positions moves each packet distance k."""
        n, k = 50, 7
        tags = np.arange(n)
        rolled = np.concatenate([tags[k:], tags[:k]])  # block of k moved to end
        a = make_trial(np.arange(n, dtype=float), tags=tags)
        b = make_trial(np.arange(n, dtype=float), tags=rolled)
        s = edit_script(a, b)
        assert s.n_moved == k
        # The first k tags sit k positions later... their rank_A - rank_B:
        # tag j has rank_A=j, rank_B=n-k+j -> -(n-k).
        np.testing.assert_array_equal(np.abs(s.moved_distances), np.full(k, n - k))


class TestMoveDistanceStats:
    def test_empty(self):
        from repro.core import MoveDistanceStats

        s = MoveDistanceStats.from_distances(np.array([]))
        assert s.n_moved == 0
        assert s.mean == 0.0

    def test_stats_fields(self):
        from repro.core import MoveDistanceStats

        s = MoveDistanceStats.from_distances(np.array([-2.0, 4.0]))
        assert s.n_moved == 2
        assert s.mean == pytest.approx(1.0)
        assert s.abs_mean == pytest.approx(3.0)
        assert s.min == -2.0 and s.max == 4.0

    def test_from_trials(self):
        a = make_trial(np.arange(3, dtype=float), tags=[0, 1, 2])
        b = make_trial(np.arange(3, dtype=float), tags=[2, 0, 1])
        s = move_distance_stats(a, b)
        assert s.n_moved == 1
