"""Unit tests for repro.core.matching."""

import numpy as np
import pytest

from repro.core import Matching, Trial, match_trials, occurrence_ranks

from .conftest import comb_trial, make_trial


class TestOccurrenceRanks:
    def test_doc_example(self):
        np.testing.assert_array_equal(
            occurrence_ranks(np.array([7, 3, 7, 7, 3])), [0, 0, 1, 2, 1]
        )

    def test_all_unique(self):
        np.testing.assert_array_equal(occurrence_ranks(np.arange(5)), np.zeros(5))

    def test_all_equal(self):
        np.testing.assert_array_equal(
            occurrence_ranks(np.zeros(4, dtype=np.int64)), [0, 1, 2, 3]
        )

    def test_empty(self):
        assert occurrence_ranks(np.array([], dtype=np.int64)).shape == (0,)

    def test_preserves_input_order_within_groups(self, rng):
        tags = rng.integers(0, 10, 200)
        ranks = occurrence_ranks(tags)
        for v in np.unique(tags):
            # Ranks of a value's occurrences must be 0..k-1 in input order.
            np.testing.assert_array_equal(
                ranks[tags == v], np.arange(np.count_nonzero(tags == v))
            )


class TestMatchTrials:
    def test_identical(self):
        a = comb_trial(10, label="A")
        m = match_trials(a, a)
        assert m.is_permutation
        assert m.n_common == 10
        np.testing.assert_array_equal(m.idx_a, m.idx_b)

    def test_empty_sides(self):
        a, e = comb_trial(3), make_trial([])
        assert match_trials(a, e).n_common == 0
        assert match_trials(e, a).n_common == 0
        assert match_trials(e, e).n_common == 0

    def test_disjoint(self):
        a = make_trial([0.0, 1.0], tags=[1, 2])
        b = make_trial([0.0, 1.0], tags=[3, 4])
        m = match_trials(a, b)
        assert m.n_common == 0
        assert not m.is_permutation

    def test_partial_overlap_alignment(self):
        a = make_trial([0, 1, 2, 3], tags=[10, 11, 12, 13])
        b = make_trial([0, 1, 2], tags=[12, 10, 99])
        m = match_trials(a, b)
        assert m.n_common == 2
        # Rows are in A order: tag 10 (a idx 0, b idx 1), tag 12 (a 2, b 0).
        np.testing.assert_array_equal(m.idx_a, [0, 2])
        np.testing.assert_array_equal(m.idx_b, [1, 0])

    def test_duplicate_tags_match_by_occurrence(self):
        # A has tag 5 twice; B has it three times: two match, one is extra.
        a = make_trial([0, 1, 2], tags=[5, 5, 7])
        b = make_trial([0, 1, 2, 3], tags=[5, 8, 5, 5])
        m = match_trials(a, b)
        assert m.n_common == 2  # the two 5s; 7 and 8 and the third 5 don't
        np.testing.assert_array_equal(m.idx_a, [0, 1])
        np.testing.assert_array_equal(m.idx_b, [0, 2])

    def test_a_ranks_in_b_order_is_permutation(self, rng):
        perm = rng.permutation(50)
        a = comb_trial(50)
        b = make_trial(np.arange(50) * 10.0, tags=perm)
        m = match_trials(a, b)
        seq = m.a_ranks_in_b_order()
        assert sorted(seq.tolist()) == list(range(50))

    def test_a_ranks_reversed(self):
        a = make_trial([0, 1, 2], tags=[1, 2, 3])
        b = make_trial([0, 1, 2], tags=[3, 2, 1])
        m = match_trials(a, b)
        np.testing.assert_array_equal(m.a_ranks_in_b_order(), [2, 1, 0])

    def test_b_order(self):
        a = make_trial([0, 1, 2], tags=[1, 2, 3])
        b = make_trial([0, 1, 2], tags=[3, 1, 2])
        ia, ib = match_trials(a, b).b_order()
        np.testing.assert_array_equal(ib, [0, 1, 2])
        np.testing.assert_array_equal(ia, [2, 0, 1])

    def test_b_order_accessors_are_stable(self, rng):
        perm = rng.permutation(64)
        a = comb_trial(64)
        b = make_trial(np.arange(64) * 10.0, tags=perm)
        m = match_trials(a, b)
        first = m.a_ranks_in_b_order()
        ia1, ib1 = m.b_order()
        again = m.a_ranks_in_b_order()
        ia2, ib2 = m.b_order()
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(ia1, ia2)
        np.testing.assert_array_equal(ib1, ib2)
        # The ranks are the permutation the accessors are defined by.
        np.testing.assert_array_equal(
            first, np.argsort(m.idx_b, kind="stable").astype(np.int64)
        )
        # A hand-built matching derives the same ranks.
        bare = Matching(m.idx_a, m.idx_b, m.len_a, m.len_b)
        np.testing.assert_array_equal(bare.a_ranks_in_b_order(), first)

    def test_baseline_index_is_memoized_but_not_pickled(self):
        import pickle

        a = comb_trial(20)
        match_trials(a, comb_trial(10))
        index = a._match_index
        assert index is not None
        match_trials(a, comb_trial(5))
        assert a._match_index is index
        assert pickle.loads(pickle.dumps(a))._match_index is None

    def test_negative_tags_supported(self):
        a = make_trial([0, 1], tags=[-5, -1])
        b = make_trial([0, 1], tags=[-1, -5])
        assert match_trials(a, b).n_common == 2


class TestOccurrencePath:
    """Only repeated tags take the matcher's occurrence step.

    Captured scenario tags are unique, so their pairs and 2048-packet
    stream chunks match by a plain scatter; ``match.occurrence_path``
    counts the pairs and chunks that needed occurrence ranks.
    """

    def _paths(self) -> int:
        from repro.obs import metrics

        return metrics.counter("match.occurrence_path").value

    @pytest.mark.parametrize(
        "name,scale", [("local-dual", 0.02), ("fabric-shared-40g-noisy", 0.01)]
    )
    def test_captured_pairs_and_chunks_skip_it(self, name, scale):
        from repro.analysis.streamkappa import StreamKappa
        from repro.core import compare_series
        from repro.experiments.scenarios import scenario
        from repro.testbeds import Testbed

        trials = Testbed(scenario(name).profile(scale), seed=1).run_series(3)
        before = self._paths()
        compare_series(trials)
        for b in trials[1:]:
            sk = StreamKappa(trials[0])
            for lo in range(0, len(b), 2048):
                sk.update(b.tags[lo : lo + 2048], b.times_ns[lo : lo + 2048])
            sk.result()
        assert self._paths() == before

    def test_duplicate_tags_take_it(self):
        from repro.core import compare_trials

        rng2 = np.random.default_rng(4242)
        tags = rng2.integers(0, 40, size=300).astype(np.int64)
        times = np.cumsum(rng2.exponential(100.0, size=300))
        a = make_trial(times, tags, label="A")
        run_times = times + rng2.normal(0, 150, 300)
        order = np.argsort(run_times, kind="stable")
        b = make_trial(run_times[order], tags[order], label="B")
        before = self._paths()
        compare_trials(a, b)
        assert self._paths() - before == 1

    def test_run_repeats_take_it_per_chunk(self):
        from repro.analysis.streamkappa import StreamKappa

        a = make_trial([0, 1, 2], tags=[1, 2, 3])
        before = self._paths()
        assert match_trials(a, make_trial([0, 1, 2], tags=[2, 2, 3])).n_common == 2
        assert self._paths() - before == 1
        sk = StreamKappa(a)
        sk.update([2, 2], [0.0, 1.0])  # a repeat inside one chunk
        sk.update([2, 3], [2.0, 3.0])  # a repeat of an earlier chunk's tag
        assert self._paths() - before == 2
        assert sk.n_common == 2
