"""Unit tests for the network substrate: pktarray, link, nic, sriov, switch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.net import (
    CISCO_5700,
    TOFINO2,
    Link,
    PacketArray,
    SharedPort,
    SwitchModel,
    TxNicModel,
    fifo_departures,
    make_tags,
)
import repro.net.sriov as sriov
from repro.net.units import wire_time_ns

from .test_queueing import reference_tail_drop


class TestMakeTags:
    def test_unique(self):
        t = make_tags(1000)
        assert np.unique(t).shape == (1000,)

    def test_replayer_id_in_high_bits(self):
        t = make_tags(10, replayer_id=3)
        assert np.all((t >> 48) == 3)
        np.testing.assert_array_equal(t & ((1 << 48) - 1), np.arange(10))

    def test_different_replayers_never_collide(self):
        a = make_tags(100, replayer_id=1)
        b = make_tags(100, replayer_id=2)
        assert np.intersect1d(a, b).shape == (0,)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_tags(-1)
        with pytest.raises(ValueError):
            make_tags(10, replayer_id=1 << 15)
        with pytest.raises(ValueError):
            make_tags(10, start=2**48 - 5)


class TestPacketArray:
    def test_uniform(self):
        b = PacketArray.uniform(5, 1400, np.arange(5) * 100.0)
        assert len(b) == 5
        assert b.total_bytes == 7000

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PacketArray(np.arange(3), np.full(2, 100), np.zeros(3))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            PacketArray(np.arange(2), np.array([100, 0]), np.zeros(2))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            PacketArray.uniform(2, 100, np.array([10.0, 5.0]))

    def test_with_times(self):
        b = PacketArray.uniform(3, 100, np.zeros(3))
        b2 = b.with_times(np.arange(3, dtype=float))
        assert b2.tags is b.tags
        np.testing.assert_allclose(b2.times_ns, [0, 1, 2])

    def test_select(self):
        b = PacketArray.uniform(5, 100, np.arange(5, dtype=float))
        s = b.select(np.array([True, False, True, False, False]))
        assert len(s) == 2
        np.testing.assert_array_equal(s.tags, b.tags[[0, 2]])

    def test_merge_orders_by_time(self):
        a = PacketArray.uniform(3, 100, np.array([0.0, 10.0, 20.0]), replayer_id=1)
        b = PacketArray.uniform(3, 100, np.array([5.0, 15.0, 25.0]), replayer_id=2)
        merged, src = PacketArray.merge([a, b])
        assert np.all(np.diff(merged.times_ns) >= 0)
        np.testing.assert_array_equal(src, [0, 1, 0, 1, 0, 1])

    def test_merge_empty_list(self):
        merged, src = PacketArray.merge([])
        assert len(merged) == 0 and src.shape == (0,)

    def test_merge_stable_on_ties(self):
        a = PacketArray.uniform(1, 100, np.array([5.0]), replayer_id=1)
        b = PacketArray.uniform(1, 100, np.array([5.0]), replayer_id=2)
        _, src = PacketArray.merge([a, b])
        np.testing.assert_array_equal(src, [0, 1])


def reference_merge(batches):
    """A pure-Python stable merge: (merged batch, source per packet)."""
    rows = [
        (t, tag, size, i)
        for i, b in enumerate(batches)
        for t, tag, size in zip(b.times_ns.tolist(), b.tags.tolist(), b.sizes.tolist())
    ]
    rows.sort(key=lambda row: row[0])  # list.sort is stable
    cols = list(zip(*rows)) or [(), (), (), ()]
    merged = PacketArray(
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.int64),
        np.array(cols[0], dtype=np.float64),
    )
    return merged, np.array(cols[3], dtype=np.int64)


def assert_batch_bytes_equal(got, want):
    assert got.tags.tobytes() == want.tags.tobytes()
    assert got.sizes.tobytes() == want.sizes.tobytes()
    assert got.times_ns.tobytes() == want.times_ns.tobytes()


@st.composite
def packet_batches(draw, min_batches=1, max_batches=4):
    """Batches on integer clocks (so ties across batches are common)."""
    batches = []
    for i in range(draw(st.integers(min_batches, max_batches))):
        n = draw(st.integers(0, 30))
        gaps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5)))
        sizes = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([64, 1400, 1500])))
        times = (draw(st.integers(0, 10)) + np.cumsum(gaps)).astype(np.float64)
        batches.append(PacketArray(make_tags(n, replayer_id=i), sizes, times))
    return batches


class TestMergeDifferential:
    """PacketArray.merge against a pure-Python stable merge, exact bytes."""

    @given(packet_batches())
    @settings(max_examples=200, deadline=None)
    def test_property_matches_reference(self, batches):
        merged, source = PacketArray.merge(batches)
        want, want_source = reference_merge(batches)
        assert_batch_bytes_equal(merged, want)
        assert source.tobytes() == want_source.tobytes()
        assert merged.meta == {}

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_one_batch(self, n):
        b = PacketArray(
            make_tags(n, replayer_id=3), np.full(n, 1400), np.arange(n) * 10.0,
            meta={"node": "a"},
        )
        merged, source = PacketArray.merge([b])
        assert merged is not b
        assert merged.meta == {}
        assert_batch_bytes_equal(merged, b)
        assert source.dtype == np.int64
        np.testing.assert_array_equal(source, np.zeros(n))


def reference_traverse(port, fg, bg):
    """The shared port as a merged batch: merge, queue, select, with_times."""
    def service(sizes):
        return wire_time_ns(sizes, port.rate_bps)

    if bg is None or len(bg) == 0:
        return fg.with_times(fifo_departures(fg.times_ns, service(fg.sizes))), 0
    merged, source = PacketArray.merge([fg, bg])
    svc = service(merged.sizes)
    fg_mask = source == 0
    if port.vf_queue_packets is None:
        done = fifo_departures(merged.times_ns, svc)
        return fg.with_times(done[fg_mask]), 0
    # The merged stream shares one ring of 2 × vf_queue_packets slots.
    result = reference_tail_drop(merged.times_ns, svc, 2 * port.vf_queue_packets)
    kept = fg.select(result.accepted[fg_mask])
    out = kept.with_times(result.done_ns[fg_mask[result.accepted]])
    return out, len(fg) - len(kept)


def assert_traverse_matches_reference(port, fg, bg):
    got = port.traverse(fg, bg)
    out, n_dropped = reference_traverse(port, fg, bg)
    assert_batch_bytes_equal(got.batch, out)
    assert got.batch.meta == fg.meta
    assert got.n_dropped == n_dropped
    return got


def _batch(times, sizes, replayer_id=0):
    times = np.asarray(times, dtype=np.float64)
    return PacketArray(
        make_tags(times.size, replayer_id=replayer_id),
        np.broadcast_to(np.asarray(sizes, dtype=np.int64), times.shape),
        times,
        meta={"replayer": replayer_id},
    )


def _clock_batch(draw, replayer_id, origin, start, max_n):
    """Frames on a 100 ns clock: 0-5 ticks apart from ``start`` ticks."""
    n = draw(st.integers(0, max_n))
    gaps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5)))
    sizes = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([64, 1400, 1500])))
    times = origin + (draw(start) + np.cumsum(gaps)).astype(np.float64) * 100.0
    return _batch(times, sizes, replayer_id)


@st.composite
def shared_port_cases(draw):
    """(port, foreground, background) on a 1e9 + frac clock or near zero.

    The background starts up to 4 µs before the foreground and can run
    twice as long, so it often extends on both sides of it; its frames
    come faster than a 40 Gb/s port serves them, so the ring is often
    still busy at the first foreground frame.
    """
    origin = draw(st.sampled_from([0.0, 1e9 + 0.3]))
    fg = _clock_batch(draw, 0, origin, st.integers(20, 40), 30)
    bg = _clock_batch(draw, 1, origin, st.integers(0, 40), 60)
    port = SharedPort(
        rate_bps=draw(st.sampled_from([40e9, 100e9])),
        vf_queue_packets=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    return port, fg, draw(st.sampled_from([bg, None]))


def _queued(monkeypatch, port, fg, bg):
    """Traverse, checked against the reference: (result, packets queued)."""
    sizes = []
    for name in ("fifo_departures", "fifo_tail_drop"):
        def spy(ready, *args, _real=getattr(sriov, name)):
            sizes.append(len(ready))
            return _real(ready, *args)
        monkeypatch.setattr(sriov, name, spy)
    got = assert_traverse_matches_reference(port, fg, bg)
    (queued,) = sizes
    return got, queued


class TestSharedPortDifferential:
    """SharedPort.traverse against the merged-batch composition, exact bytes."""

    @given(shared_port_cases())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference(self, case):
        assert_traverse_matches_reference(*case)

    @pytest.mark.parametrize("vf", [None, 1, 4])
    def test_ties_serve_foreground_first(self, vf):
        port = SharedPort(rate_bps=40e9, vf_queue_packets=vf)
        fg = _batch([0.0, 0.0, 500.0], 1400)
        bg = _batch([0.0, 0.0, 500.0, 500.0], 1500, replayer_id=1)
        got = assert_traverse_matches_reference(port, fg, bg)
        # 1400 B at 40 Gb/s takes 280 ns; the foreground goes first.
        assert got.batch.times_ns[0] == 280.0

    def test_empty_background(self):
        port = SharedPort(rate_bps=40e9, vf_queue_packets=2)
        fg = _batch(np.arange(5) * 100.0, 1400)
        got = assert_traverse_matches_reference(port, fg, _batch([], 1500, 1))
        assert got.n_dropped == 0

    def test_infinite_ring_with_background(self, monkeypatch):
        # Background on both sides of the foreground: the infinite ring
        # cuts only what is ready at or after the last foreground frame.
        port = SharedPort(rate_bps=40e9)
        fg = _batch(1000.0 + np.arange(10) * 100.0, 1400)
        bg = _batch(np.arange(40) * 100.0, 1500, 1)
        got, queued = _queued(monkeypatch, port, fg, bg)
        assert got.n_dropped == 0 and len(got.batch) == 10
        assert queued == 10 + 19

    def test_all_foreground_dropped(self):
        # Two background frames fill the 2-slot queue before any
        # foreground frame arrives.
        port = SharedPort(rate_bps=40e9, vf_queue_packets=1)
        fg = _batch([1.0, 2.0, 3.0], 1400)
        bg = _batch([0.0, 0.0, 10_000.0], 1500, 1)
        got = assert_traverse_matches_reference(port, fg, bg)
        assert got.n_dropped == 3 and len(got.batch) == 0

    def test_no_drops(self):
        port = SharedPort(rate_bps=40e9, vf_queue_packets=4)
        fg = _batch(1e9 + 0.3 + np.arange(10) * 1000.0, 1400)
        bg = _batch(1e9 + 0.3 + np.arange(10) * 1000.0 + 500.0, 1500, 1)
        got = assert_traverse_matches_reference(port, fg, bg)
        assert got.n_dropped == 0 and len(got.batch) == 10

    @pytest.mark.parametrize("vf", [None, 1, 4])
    def test_window_edges_on_ties(self, monkeypatch, vf):
        # Background tied with the first foreground frame is queued after
        # it (kept); background tied with the last one comes after every
        # foreground frame (cut).  The frame at 500 ns has left by 1000 ns,
        # so a finite ring cuts it too.
        port = SharedPort(rate_bps=40e9, vf_queue_packets=vf)
        fg = _batch([1000.0, 1200.0, 1400.0], 1400)
        bg = _batch([500.0, 1000.0, 1000.0, 1400.0, 1400.0, 1600.0], 1500, 1)
        _, queued = _queued(monkeypatch, port, fg, bg)
        assert queued == 3 + (3 if vf is None else 2)

    @pytest.mark.parametrize("vf", [None, 2])
    def test_background_wholly_before_foreground(self, monkeypatch, vf):
        port = SharedPort(rate_bps=40e9, vf_queue_packets=vf)
        fg = _batch(10_000.0 + np.arange(5) * 100.0, 1400)
        bg = _batch(np.zeros(6), 1500, 1)
        got, queued = _queued(monkeypatch, port, fg, bg)
        assert len(got.batch) == 5
        # The queue has drained by the first foreground frame: a finite
        # ring queues the foreground alone, still through the ring.
        assert queued == (11 if vf is None else 5)

    @pytest.mark.parametrize("vf", [None, 2])
    def test_background_wholly_after_foreground(self, monkeypatch, vf):
        port = SharedPort(rate_bps=40e9, vf_queue_packets=vf)
        fg = _batch(np.zeros(5), 1400)
        bg = _batch(np.arange(6) * 10.0, 1500, 1)
        got, queued = _queued(monkeypatch, port, fg, bg)
        assert queued == 5
        assert got.n_dropped == (0 if vf is None else 1)

    def test_busy_period_straddling_first_foreground_frame(self, monkeypatch):
        # A 2-slot ring.  The first two background frames have left by
        # 5000 ns, where a busy period starts that drops two background
        # frames and is still busy when the foreground arrives: the queue
        # starts at that busy period, and the foreground frame at 5400 ns
        # finds the ring full.
        port = SharedPort(rate_bps=40e9, vf_queue_packets=1)
        fg = _batch([5350.0, 5400.0, 5650.0], 1400)
        bg = _batch([0.0, 0.0, 5000.0, 5000.0, 5000.0, 5000.0], 1500, 1)
        got, queued = _queued(monkeypatch, port, fg, bg)
        assert queued == 4 + 3
        assert got.n_dropped == 1
        np.testing.assert_array_equal(got.batch.times_ns, [5880.0, 6160.0])

    @pytest.mark.parametrize("vf", [None, 2])
    def test_empty_foreground_with_background(self, monkeypatch, vf):
        port = SharedPort(rate_bps=40e9, vf_queue_packets=vf)
        got, queued = _queued(monkeypatch, port, _batch([], 1400), _batch(np.zeros(4), 1500, 1))
        assert queued == 0
        assert got.n_dropped == 0 and len(got.batch) == 0


class TestSharedPortInputChecks:
    """Non-finite ready times raise wherever they are, cut away or not."""

    @pytest.mark.parametrize("vf", [None, 2])
    @pytest.mark.parametrize(
        "fg_times, bg_times",
        [
            ([300.0, 400.0], [np.nan, 100.0, 200.0]),      # before fg[0]
            ([300.0, 400.0], [-np.inf, 100.0, 200.0]),
            ([300.0, 400.0], [100.0, 500.0, np.nan]),      # after fg[-1]
            ([300.0, 400.0], [100.0, 500.0, np.inf]),
            ([300.0, np.nan, 400.0], [100.0, 350.0]),      # in the foreground
            ([300.0, 400.0, np.inf], [100.0, 350.0]),
            ([], [100.0, np.nan]),
        ],
    )
    def test_non_finite_time_raises(self, monkeypatch, vf, fg_times, bg_times):
        def unreachable(*args):
            raise AssertionError("the queue ran on a non-finite stream")

        monkeypatch.setattr(sriov, "fifo_departures", unreachable)
        monkeypatch.setattr(sriov, "fifo_tail_drop", unreachable)
        port = SharedPort(rate_bps=40e9, vf_queue_packets=vf)
        with pytest.raises(ValueError, match="ready_ns must be finite"):
            port.traverse(_batch(fg_times, 1400), _batch(bg_times, 1500, 1))


class TestLink:
    def test_serialization_and_propagation(self):
        link = Link(rate_bps=100e9, propagation_ns=50.0)
        b = PacketArray.uniform(2, 1400, np.array([0.0, 1000.0]))
        out = link.traverse(b)
        np.testing.assert_allclose(out.times_ns, [162.0, 1162.0])

    def test_queue_buildup_at_saturation(self):
        link = Link(rate_bps=100e9, propagation_ns=0.0)
        # Packets arrive every 50 ns but need 112 ns each: queue grows.
        b = PacketArray.uniform(100, 1400, np.arange(100) * 50.0)
        out = link.traverse(b)
        np.testing.assert_allclose(np.diff(out.times_ns), np.full(99, 112.0))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Link(rate_bps=0)
        with pytest.raises(ValueError):
            Link(rate_bps=1e9, propagation_ns=-1)


class TestTxNic:
    def test_pull_delay_applied(self, rng):
        nic = TxNicModel(rate_bps=100e9, pull_delay_ns=600.0, pull_jitter=0.0)
        wire = nic.transmit(np.zeros(1), np.array([1400]), np.zeros(1, dtype=int), rng)
        assert wire[0] == pytest.approx(600.0 + 112.0)

    def test_burst_leaves_back_to_back(self, rng):
        nic = TxNicModel(rate_bps=100e9, pull_delay_ns=600.0, pull_jitter=0.3)
        notify = np.zeros(64)
        wire = nic.transmit(notify, np.full(64, 1400), np.zeros(64, dtype=int), rng)
        np.testing.assert_allclose(np.diff(wire), np.full(63, 112.0))

    def test_doorbell_is_last_notify_of_burst(self, rng):
        nic = TxNicModel(rate_bps=100e9, pull_delay_ns=100.0, pull_jitter=0.0)
        notify = np.array([0.0, 500.0])  # one burst, posted over 500 ns
        wire = nic.transmit(notify, np.full(2, 1400), np.zeros(2, dtype=int), rng)
        # Pull at 500 + 100; first wire completion 112 later.
        assert wire[0] == pytest.approx(712.0)

    def test_bursts_serve_in_order(self, rng):
        nic = TxNicModel(rate_bps=100e9, pull_delay_ns=500.0, pull_jitter=0.5)
        notify = np.arange(10, dtype=float) * 10.0
        bids = np.arange(10)  # ten single-packet bursts
        wire = nic.transmit(notify, np.full(10, 1400), bids, rng)
        assert np.all(np.diff(wire) >= 0)

    def test_rejects_decreasing_burst_ids(self, rng):
        nic = TxNicModel(rate_bps=100e9)
        with pytest.raises(ValueError):
            nic.transmit(np.zeros(2), np.full(2, 100), np.array([1, 0]), rng)

    def test_empty(self, rng):
        nic = TxNicModel(rate_bps=100e9)
        wire = nic.transmit(np.array([]), np.array([]), np.array([]), rng)
        assert wire.shape == (0,)


class TestSharedPort:
    def test_no_background_is_plain_fifo(self):
        port = SharedPort(rate_bps=100e9)
        fg = PacketArray.uniform(10, 1400, np.arange(10) * 300.0)
        r = port.traverse(fg)
        assert r.n_dropped == 0

    def test_background_delays_foreground(self, rng):
        port = SharedPort(rate_bps=100e9)
        fg = PacketArray.uniform(100, 1400, np.arange(100) * 300.0)
        bg = PacketArray.uniform(
            300, 1500, np.sort(rng.uniform(0, 30_000, 300))
        )
        quiet = port.traverse(fg).batch.times_ns
        loud = port.traverse(fg, bg).batch.times_ns
        assert np.all(loud >= quiet - 1e-9)
        assert loud.mean() > quiet.mean()

    def test_finite_vf_queue_drops(self):
        port = SharedPort(rate_bps=100e9, vf_queue_packets=8)
        # A giant simultaneous burst can't all fit.
        fg = PacketArray.uniform(100, 1400, np.zeros(100))
        r = port.traverse(fg, PacketArray.uniform(1, 1500, np.zeros(1)))
        assert r.n_dropped > 0
        assert len(r.batch) == 100 - r.n_dropped

    def test_ring_drops_background_frames_too(self):
        # One ring of 2 slots serves both streams.  The third background
        # frame finds it full and is dropped, so it takes no wire time:
        # the foreground frame at 301 ns finds one frame queued, not two,
        # and leaves after it (600 ns) plus its own 280 ns.
        port = SharedPort(rate_bps=40e9, vf_queue_packets=1)
        fg = PacketArray.uniform(1, 1400, np.array([301.0]))
        bg = PacketArray.uniform(3, 1500, np.zeros(3), replayer_id=1)
        r = port.traverse(fg, bg)
        assert r.n_dropped == 0
        assert r.batch.times_ns[0] == 880.0

    def test_output_preserves_foreground_order(self, rng):
        port = SharedPort(rate_bps=100e9)
        fg = PacketArray.uniform(50, 1400, np.arange(50) * 200.0)
        bg = PacketArray.uniform(50, 1500, np.sort(rng.uniform(0, 10_000, 50)))
        out = port.traverse(fg, bg).batch
        np.testing.assert_array_equal(out.tags, fg.tags)
        assert np.all(np.diff(out.times_ns) >= 0)


class TestSwitch:
    def test_fixed_latency(self, rng):
        sw = SwitchModel("t", pipeline_latency_ns=400.0, jitter_ns=0.0,
                         egress_rate_bps=100e9)
        b = PacketArray.uniform(2, 1400, np.array([0.0, 1000.0]))
        out = sw.forward_merged([b], rng)
        np.testing.assert_allclose(out.times_ns, [512.0, 1512.0])

    def test_merge_two_ingress(self, rng):
        sw = TOFINO2
        a = PacketArray.uniform(10, 1400, np.arange(10) * 560.0, replayer_id=1)
        b = PacketArray.uniform(10, 1400, np.arange(10) * 560.0 + 280.0, replayer_id=2)
        out = sw.forward_merged([a, b], rng)
        assert len(out) == 20
        assert np.all(np.diff(out.times_ns) >= 0)

    def test_jitter_never_reorders(self, rng):
        sw = SwitchModel("j", pipeline_latency_ns=100.0, jitter_ns=50.0,
                         egress_rate_bps=100e9)
        b = PacketArray.uniform(500, 1400, np.arange(500) * 120.0)
        out = sw.forward_merged([b], rng)
        assert np.all(np.diff(out.times_ns) >= 0)

    def test_models_exist(self):
        assert TOFINO2.pipeline_latency_ns < CISCO_5700.pipeline_latency_ns

    def test_empty_ingress(self, rng):
        out = TOFINO2.forward_merged([], rng)
        assert len(out) == 0
