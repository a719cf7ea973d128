"""Unit tests for the Choir replay package."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import PacketArray, TxNicModel
from repro.replay import (
    MAX_BURST,
    MBUF_BYTES,
    MIN_BUFFER_BYTES,
    ChoirNode,
    PollLoopCost,
    Recording,
    Replayer,
    ReplayTimingModel,
    TransparentMiddlebox,
    burst_bounds,
    burstify_fixed,
    burstify_poll_loop,
)
from repro.replay.burst import _poll_loop_bursts
from repro.timing import TSC

from .oracle import reference_burstify_poll_loop


def cbr_batch(n=1000, gap=284.0, size=1400, rid=0):
    return PacketArray.uniform(n, size, np.arange(n) * gap, replayer_id=rid)


class TestBurstify:
    def test_max_burst_respected(self):
        ids = burstify_poll_loop(np.zeros(500), PollLoopCost(100, 10))
        _, ends = burst_bounds(ids)
        starts, ends = burst_bounds(ids)
        assert np.max(ends - starts) <= MAX_BURST

    def test_slow_loop_grows_bursts(self):
        t = np.arange(2000) * 284.0
        small = burstify_poll_loop(t, PollLoopCost(500, 40))
        large = burstify_poll_loop(t, PollLoopCost(4500, 40))
        mean = lambda ids: 2000 / (ids.max() + 1)
        assert mean(large) > mean(small)

    def test_equilibrium_burst_size(self):
        """b = iteration / (iat - per_packet) at steady state."""
        t = np.arange(20000) * 284.0
        ids = burstify_poll_loop(t, PollLoopCost(4500, 40))
        mean = 20000 / (ids.max() + 1)
        assert mean == pytest.approx(4500 / (284 - 40), rel=0.15)

    def test_sparse_arrivals_single_packet_bursts(self):
        t = np.arange(100) * 1e6  # 1 ms apart: loop always idle
        ids = burstify_poll_loop(t, PollLoopCost(250, 55))
        assert np.unique(ids).shape[0] == 100

    def test_ids_non_decreasing_and_contiguous(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 1e6, 3000))
        ids = burstify_poll_loop(t)
        assert np.all(np.diff(ids) >= 0)
        assert np.unique(ids).shape[0] == ids.max() + 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            burstify_poll_loop(np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "t",
        [
            [0.0, 100.0, np.nan, 300.0],
            [np.nan, 0.0, 100.0],
            [-np.inf, 0.0, 100.0],
            [0.0, 100.0, np.inf],
            [np.nan],
        ],
    )
    def test_rejects_non_finite_arrivals(self, t):
        # Unchecked, a NaN mid-array stalled the loop forever, a leading
        # NaN put every packet in burst 0 and a leading -inf made the poll
        # time NaN.
        with pytest.raises(ValueError, match="finite"):
            burstify_poll_loop(np.array(t))

    @pytest.mark.parametrize(
        "iteration, per_packet",
        [(np.nan, 55.0), (np.inf, 55.0), (250.0, np.nan), (250.0, np.inf)],
    )
    def test_cost_rejects_non_finite(self, iteration, per_packet):
        with pytest.raises(ValueError, match="finite"):
            PollLoopCost(iteration, per_packet)

    @pytest.mark.parametrize(
        "t, cost",
        [
            ([0.0, 1e308], PollLoopCost(1e-10, 0.0)),
            ([-1e308, 1e308], PollLoopCost(250.0, 55.0)),
        ],
    )
    def test_overflowing_gap_is_a_value_error(self, t, cost):
        with pytest.raises(ValueError, match="overflows"):
            burstify_poll_loop(np.array(t), cost)

    def test_fixed(self):
        ids = burstify_fixed(10, 4)
        np.testing.assert_array_equal(ids, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2])

    def test_burst_bounds(self):
        starts, ends = burst_bounds(np.array([0, 0, 1, 2, 2, 2]))
        np.testing.assert_array_equal(starts, [0, 2, 3])
        np.testing.assert_array_equal(ends, [2, 3, 6])

    def test_burst_bounds_empty(self):
        starts, ends = burst_bounds(np.array([]))
        assert starts.shape == (0,) and ends.shape == (0,)


#: Gaps between consecutive arrivals: ties, gaps inside one loop
#: iteration, and idle gaps of many iterations.  Gaps and costs on a
#: 5 ns lattice land arrivals exactly on poll times and spin ticks.
_lattice = st.integers(0, 200).map(lambda k: 5.0 * k)
_gaps = st.one_of(
    st.just(0.0),
    st.floats(0.0, 60.0),
    st.floats(0.0, 2e3),
    st.floats(1e3, 1e7),
    _lattice,
)
#: (gap, repeats): a run of equal gaps, long enough to fill bursts past
#: the 64-packet cap when the gap is short or zero.
_runs = st.lists(st.tuples(_gaps, st.integers(1, 150)), max_size=12)
_costs = st.one_of(
    st.just(PollLoopCost()),
    st.builds(
        PollLoopCost,
        st.floats(1e-3, 1e5),
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    ),
    st.builds(
        PollLoopCost,
        st.integers(1, 100).map(lambda k: 5.0 * k),
        st.integers(0, 20).map(lambda k: 5.0 * k),
    ),
)


class TestPollLoopOracle:
    """Production burst ids equal the per-burst numpy loop's, bit for bit."""

    @staticmethod
    def check(t, cost, max_burst=MAX_BURST):
        want = reference_burstify_poll_loop(t, cost, max_burst)
        got = burstify_poll_loop(t, cost, max_burst)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        starts, sizes = _poll_loop_bursts(t, cost, max_burst)
        first, ends = burst_bounds(want)
        np.testing.assert_array_equal(starts, first)
        np.testing.assert_array_equal(sizes, ends - first)

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.one_of(st.floats(-1e9, 1e12), _lattice),
        runs=_runs,
        cost=_costs,
        max_burst=st.one_of(st.just(MAX_BURST), st.just(1), st.integers(1, 100)),
    )
    def test_matches_oracle(self, start, runs, cost, max_burst):
        gaps = np.repeat(
            np.array([g for g, _ in runs], dtype=np.float64),
            np.array([k for _, k in runs], dtype=np.int64),
        )
        self.check(start + np.cumsum(gaps), cost, max_burst)

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(-1e12, 1e12), cost=_costs)
    def test_single_packet(self, t, cost):
        self.check(np.array([t]), cost)

    def test_empty(self):
        self.check(np.empty(0), PollLoopCost())

    def test_arrival_on_a_spin_tick(self):
        # After the first burst the loop polls at 555 ns; the next arrival
        # is exactly two idle spins later, and is picked up alone.
        self.check(np.array([0.0, 1055.0, 1200.0]), PollLoopCost(250.0, 55.0))

    def test_all_tied_past_the_cap(self):
        self.check(np.full(1000, 5.0), PollLoopCost(250.0, 55.0))
        self.check(np.full(1000, 5.0), PollLoopCost(250.0, 55.0), max_burst=1)


class TestRecording:
    def _rec(self, n=1000, buffer=MIN_BUFFER_BYTES):
        batch = cbr_batch(n)
        ids = burstify_fixed(n, 8)
        return Recording.capture(batch, ids, batch.times_ns, TSC(), buffer_bytes=buffer)

    def test_capture_roundtrip(self):
        rec = self._rec()
        assert len(rec) == 1000
        assert rec.n_bursts == 125
        assert not rec.truncated

    def test_memory_accounting(self):
        rec = self._rec()
        assert rec.memory_bytes == 1000 * MBUF_BYTES

    def test_min_buffer_enforced(self):
        with pytest.raises(ValueError, match="at least"):
            self._rec(buffer=1024)

    def test_truncation_on_burst_boundary(self):
        # Capacity for ~493k packets; offer more.
        n = MIN_BUFFER_BYTES // MBUF_BYTES + 1000
        batch = cbr_batch(n)
        ids = burstify_fixed(n, 64)
        rec = Recording.capture(batch, ids, batch.times_ns, TSC())
        assert rec.truncated
        assert len(rec) <= MIN_BUFFER_BYTES // MBUF_BYTES
        assert len(rec) % 64 == 0  # cut on a burst boundary

    def test_relative_burst_times(self):
        rec = self._rec()
        rel = rec.relative_burst_times_ns()
        assert rel[0] == 0.0
        assert np.all(np.diff(rel) >= 0)
        # Burst spacing is 8 packets * 284 ns, quantized to TSC cycles.
        assert rel[1] == pytest.approx(8 * 284.0, abs=1.0)

    def test_duration(self):
        rec = self._rec()
        assert rec.duration_ns == pytest.approx(999 * 284.0, rel=0.01)

    def test_burst_sizes(self):
        rec = self._rec()
        np.testing.assert_array_equal(rec.burst_sizes(), np.full(125, 8))

    def test_validation_rejects_bad_tsc_count(self):
        batch = cbr_batch(10)
        with pytest.raises(ValueError, match="stamps"):
            Recording(batch, burstify_fixed(10, 5), np.array([0]), TSC())

    def test_burst_count_is_distinct_ids(self):
        ids = np.array([0, 0, 2, 2, 2])
        rec = Recording(cbr_batch(5), ids, np.array([0, 7]), TSC())
        assert rec.n_bursts == 2
        with pytest.raises(ValueError, match="stamps"):
            Recording(cbr_batch(5), ids, np.array([0, 7, 9]), TSC())


class TestMiddlebox:
    def test_transparent_forwarding_preserves_packets(self, rng):
        mb = TransparentMiddlebox(tx_nic=TxNicModel(rate_bps=100e9))
        batch = cbr_batch(500)
        res = mb.forward(batch, rng)
        np.testing.assert_array_equal(res.egress.tags, batch.tags)
        assert res.recording is None
        assert np.all(res.egress.times_ns >= batch.times_ns)

    def test_record_produces_recording(self, rng):
        mb = TransparentMiddlebox(tx_nic=TxNicModel(rate_bps=100e9))
        batch = cbr_batch(500)
        res = mb.forward(batch, rng, record=True)
        assert res.recording is not None
        assert len(res.recording) == 500

    def test_empty_ingress(self, rng):
        mb = TransparentMiddlebox(tx_nic=TxNicModel(rate_bps=100e9))
        res = mb.forward(cbr_batch(0), rng, record=True)
        assert len(res.egress) == 0
        assert res.recording is None


class TestReplayer:
    def _recording(self, n=2000):
        batch = cbr_batch(n)
        ids = burstify_poll_loop(batch.times_ns, PollLoopCost(4500, 40))
        return Recording.capture(batch, ids, batch.times_ns, TSC())

    def test_replay_preserves_packets_and_order(self, rng):
        rec = self._recording()
        rp = Replayer(tx_nic=TxNicModel(rate_bps=100e9))
        out = rp.replay(rec, 1e9, rng)
        np.testing.assert_array_equal(out.egress.tags, rec.packets.tags)
        assert np.all(np.diff(out.egress.times_ns) >= 0)

    def test_replay_starts_after_schedule(self, rng):
        rec = self._recording()
        rp = Replayer(tx_nic=TxNicModel(rate_bps=100e9))
        out = rp.replay(rec, 1e9, rng)
        assert out.achieved_start_ns >= 1e9
        assert out.egress.times_ns[0] >= 1e9

    def test_ideal_replay_tracks_recorded_gaps(self, rng):
        """With all noise off, replayed inter-burst gaps match the record."""
        rec = self._recording()
        rp = Replayer(
            tx_nic=TxNicModel(rate_bps=100e9, pull_jitter=0.0),
            timing=ReplayTimingModel(
                poll_granularity_ns=0.0, stall_prob=0.0,
                freq_error_ppm=0.0, start_latency_median_ns=0.0,
            ),
        )
        a = rp.replay(rec, 1e9, rng).egress.times_ns
        b = rp.replay(rec, 1e9, rng).egress.times_ns
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_freq_error_stretches_schedule(self, rng):
        rec = self._recording(5000)
        rp = Replayer(
            tx_nic=TxNicModel(rate_bps=100e9, pull_jitter=0.0),
            timing=ReplayTimingModel(
                poll_granularity_ns=0.0, stall_prob=0.0,
                freq_error_ppm=100.0, start_latency_median_ns=0.0,
            ),
        )
        out = rp.replay(rec, 1e9, rng)
        expected = rec.duration_ns * (1 + out.freq_error_ppm * 1e-6)
        got = out.egress.times_ns[-1] - out.egress.times_ns[0]
        # The egress span also includes the final burst's on-wire length
        # (~burst_size * 112 ns), which the doorbell-to-doorbell recording
        # duration does not; allow for it.
        assert got == pytest.approx(expected, abs=64 * 112.0)

    def test_stalls_counted_and_first_burst_exempt(self, rng):
        rec = self._recording(5000)
        rp = Replayer(
            tx_nic=TxNicModel(rate_bps=100e9),
            timing=ReplayTimingModel(stall_prob=0.5, stall_scale_ns=10_000.0),
        )
        out = rp.replay(rec, 1e9, rng)
        assert out.n_stalls > 0
        assert out.n_stalls < rec.n_bursts  # burst 0 never stalls

    def test_sustainable_pps_increases_with_burst(self):
        rp = Replayer(tx_nic=TxNicModel(rate_bps=100e9),
                      loop_cost=PollLoopCost(800, 20))
        assert rp.sustainable_pps(64) > rp.sustainable_pps(1)

    def test_empty_recording(self, rng):
        batch = cbr_batch(0)
        rec = Recording.capture(batch, np.array([], dtype=np.int64),
                                np.array([]), TSC())
        rp = Replayer(tx_nic=TxNicModel(rate_bps=100e9))
        out = rp.replay(rec, 1e9, rng)
        assert len(out) == 0


class TestChoirNode:
    def test_lifecycle(self, rng):
        """Record arms the node; replay plays the stored recording."""
        node = ChoirNode("n1", TxNicModel(rate_bps=100e9))
        _, recording = node.record(cbr_batch(300), rng)
        assert node.recording is recording
        out = node.replay(1e9, rng)
        assert len(out) == 300
        assert node.recording is recording

    def test_replay_without_recording_raises(self, rng):
        node = ChoirNode("n1", TxNicModel(rate_bps=100e9))
        with pytest.raises(RuntimeError, match="no recording"):
            node.replay(1e9, rng)

    def test_clock_offset_shifts_start(self, rng):
        """A fast clock reaches the scheduled value early (true time)."""
        timing = ReplayTimingModel(
            start_latency_median_ns=0.0, freq_error_ppm=0.0,
            poll_granularity_ns=0.0, stall_prob=0.0,
        )
        fast = ChoirNode("f", TxNicModel(rate_bps=100e9, pull_jitter=0.0), timing=timing)
        slow = ChoirNode("s", TxNicModel(rate_bps=100e9, pull_jitter=0.0), timing=timing)
        fast.clock_offset_ns = 5000.0
        batch = cbr_batch(100)
        fast.record(batch, rng)
        slow.record(batch, rng)
        t_fast = fast.replay(1e9, rng).achieved_start_ns
        t_slow = slow.replay(1e9, rng).achieved_start_ns
        assert t_slow - t_fast == pytest.approx(5000.0)

    def test_throughput_exceeds_100g_requirement(self):
        """Section 5/10: the loop must sustain 8.9 Mpps at full bursts."""
        node = ChoirNode("n", TxNicModel(rate_bps=100e9))
        assert node.sustainable_pps_at_full_burst > 8.9e6
