"""Unit tests for repro.core.trial."""

import numpy as np
import pytest

from repro.core import Trial, match_trials

from .conftest import comb_trial, make_trial


class TestConstruction:
    def test_basic(self):
        t = make_trial([0.0, 10.0, 25.0], label="A")
        assert len(t) == 3
        assert t.label == "A"
        assert t.tags.dtype == np.int64
        assert t.times_ns.dtype == np.float64

    def test_empty(self):
        t = make_trial([])
        assert t.is_empty
        assert len(t) == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Trial(np.arange(3), np.zeros(2))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            make_trial([0.0, 5.0, 4.0])

    def test_rejects_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            make_trial([0.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            make_trial([0.0, np.inf])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Trial(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2)))

    def test_ties_allowed(self):
        t = make_trial([0.0, 0.0, 0.0])
        assert len(t) == 3

    def test_int_input_coerced(self):
        t = Trial([1, 2, 3], [0, 1, 2])
        assert t.times_ns.dtype == np.float64


class TestLossyTags:
    """A tag that does not convert to int64 exactly is rejected.

    Truncating ``1.2`` to ``1`` would make two different packets match;
    wrapping a ``uint64`` of ``2**63`` would give it another packet's tag.
    """

    @pytest.mark.parametrize(
        "tags",
        [
            [1.2, 2, 3],
            [1.0, float("nan"), 3.0],
            [2.0**63, 1.0, 2.0],
            np.array([2**63, 1, 2], dtype=np.uint64),
            np.array([2**64, 1, 2], dtype=object),
        ],
    )
    def test_lossy_tags_raise(self, tags):
        with pytest.raises(ValueError, match="int64"):
            Trial(tags, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="int64"):
            Trial.from_arrival_events(tags, [0.0, 1.0, 2.0])

    def test_fractional_tags_no_longer_match(self):
        from repro.core import compare_trials

        with pytest.raises(ValueError):
            compare_trials(
                Trial([1.2, 2, 3], [0.0, 1.0, 2.0]), Trial([1.7, 2, 3], [0.0, 1.0, 2.0])
            )

    def test_exact_tags_accepted(self):
        t = Trial([1.0, -2.0, -(2.0**63)], [0.0, 1.0, 2.0])
        assert t.tags.tolist() == [1, -2, -(2**63)]
        big = np.array([2**63 - 1, 0], dtype=np.uint64)
        assert Trial(big, [0.0, 1.0]).tags.tolist() == [2**63 - 1, 0]
        assert Trial(np.array([3, 4], dtype=np.int32), [0.0, 1.0]).tags.dtype == np.int64

    def test_stream_inputs_checked_the_same_way(self):
        from repro.analysis.streamkappa import KappaMonitor, StreamKappa

        sk = StreamKappa(comb_trial(3))
        with pytest.raises(ValueError, match="int64"):
            sk.update([1.5], [0.0])
        with pytest.raises(ValueError, match="int64"):
            sk.update(np.array([2**63], dtype=np.uint64), [0.0])
        sk.update([1.0], [0.0])
        assert sk.n_common == 1
        with pytest.raises(ValueError, match="int64"):
            KappaMonitor(10.0).feed_run("s", [0.5], [0.0])


class TestEquality:
    """Equal label, tags and times; ``meta`` and the match index ignored."""

    def test_equal_trials_of_many_packets(self):
        a = comb_trial(5, label="A")
        b = Trial(a.tags.copy(), a.times_ns.copy(), label="A", meta={"run": 3})
        assert a == b
        assert not a != b
        assert b in [comb_trial(5, label="B"), a]

    @pytest.mark.parametrize(
        "other",
        [
            Trial([0, 1, 2, 9, 4], [0.0, 1.0, 2.0, 3.0, 4.0], label="A"),
            Trial([0, 1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0, 4.5], label="A"),
            Trial([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], label="A"),
            Trial([0, 1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0, 4.0], label="B"),
        ],
    )
    def test_any_field_differs(self, other):
        a = Trial([0, 1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0, 4.0], label="A")
        assert a != other
        assert a not in [other]

    def test_match_index_not_compared(self):
        a = comb_trial(5)
        b = Trial(a.tags, a.times_ns)
        match_trials(a, b)
        assert a._match_index is not None and b._match_index is None
        assert a == b

    def test_other_types_are_not_equal(self):
        t = comb_trial(2)
        assert t != (t.tags, t.times_ns, t.label)
        assert t != None  # noqa: E711

    def test_empty_trials_equal(self):
        assert make_trial([]) == make_trial([])

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(comb_trial(3))
        with pytest.raises(TypeError, match="unhashable"):
            {comb_trial(3)}


class TestProperties:
    def test_start_end_duration(self):
        t = make_trial([5.0, 10.0, 30.0])
        assert t.start_ns == 5.0
        assert t.end_ns == 30.0
        assert t.duration_ns == 25.0

    def test_empty_start_raises(self):
        with pytest.raises(ValueError, match="empty"):
            make_trial([]).start_ns
        with pytest.raises(ValueError, match="empty"):
            make_trial([]).end_ns


class TestDerivedSeries:
    def test_relative_times(self):
        t = make_trial([100.0, 150.0, 300.0])
        np.testing.assert_allclose(t.relative_times_ns(), [0.0, 50.0, 200.0])

    def test_iats_first_is_zero(self):
        """The paper defines t_X0 = t_X(-1), so g_X0 = 0."""
        t = make_trial([100.0, 150.0, 300.0])
        np.testing.assert_allclose(t.iats_ns(), [0.0, 50.0, 150.0])

    def test_iats_empty(self):
        assert make_trial([]).iats_ns().shape == (0,)

    def test_relative_times_empty(self):
        assert make_trial([]).relative_times_ns().shape == (0,)


class TestTransforms:
    def test_from_arrival_events_sorts(self):
        t = Trial.from_arrival_events([1, 2, 3], [30.0, 10.0, 20.0])
        np.testing.assert_array_equal(t.tags, [2, 3, 1])
        np.testing.assert_allclose(t.times_ns, [10.0, 20.0, 30.0])

    def test_from_arrival_events_stable_on_ties(self):
        t = Trial.from_arrival_events([5, 6, 7], [10.0, 10.0, 10.0])
        np.testing.assert_array_equal(t.tags, [5, 6, 7])

    def test_relabel_shares_data(self):
        t = comb_trial(5, label="A")
        t2 = t.relabel("B")
        assert t2.label == "B"
        assert t2.tags is t.tags

    def test_head(self):
        t = comb_trial(10)
        assert len(t.head(4)) == 4
        np.testing.assert_array_equal(t.head(4).tags, t.tags[:4])

    def test_drop_packets(self):
        t = comb_trial(5)
        t2 = t.drop_packets([1, 3])
        np.testing.assert_array_equal(t2.tags, [0, 2, 4])

    def test_shift(self):
        t = comb_trial(3, gap_ns=10.0)
        t2 = t.shift_ns(100.0)
        np.testing.assert_allclose(t2.times_ns, [100.0, 110.0, 120.0])
        assert t2.duration_ns == t.duration_ns
