"""Unit tests for the O metric (Equation 2) and its LIS/edit-script core."""

import numpy as np
import pytest

from repro.analysis.streamkappa import StreamKappa
from repro.core import (
    compare_trials,
    edit_script,
    longest_increasing_subsequence,
    move_distance_stats,
    naive_lcs_length,
    ordering_variation,
)

from repro.core.ordering import lis_membership

from .conftest import comb_trial, make_trial, suite_rng
from .ordering_corpus import CORPUS, chunk_sizes


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
