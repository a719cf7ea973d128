"""Unit tests for the future-work extensions: WAN segments and IMIX
traffic."""

import numpy as np
import pytest

from repro.core import compare_series
from repro.generators import SIMPLE_IMIX, IMIXGenerator
from repro.net import PacketArray, WanSegment
from repro.testbeds import Testbed
from repro.testbeds.fabric import fabric_intersite_40g


class TestWanSegment:
    def _batch(self, n=2000):
        return PacketArray.uniform(n, 1400, np.arange(n) * 284.0)

    def test_fifo_path_never_reorders(self, rng):
        seg = WanSegment(ecmp_paths=1)
        out = seg.traverse(self._batch(), rng)
        np.testing.assert_array_equal(out.tags, self._batch().tags)
        assert np.all(np.diff(out.times_ns) >= 0)

    def test_propagation_applied(self, rng):
        seg = WanSegment(propagation_ns=10e6, jitter_scale_ns=0.0, jitter_sigma=0.0)
        out = seg.traverse(self._batch(10), rng)
        np.testing.assert_allclose(out.times_ns, self._batch(10).times_ns + 10e6)

    def test_ecmp_can_reorder(self, rng):
        seg = WanSegment(ecmp_paths=4, jitter_scale_ns=0.0, jitter_sigma=0.0,
                         path_skew_ns=100_000.0)
        out = seg.traverse(self._batch(), rng)
        assert seg.can_reorder
        assert not np.array_equal(out.tags, self._batch().tags)
        assert np.all(np.diff(out.times_ns) >= 0)  # output in arrival order

    def test_ecmp_path_assignment_deterministic(self, rng):
        """Same packet rides the same path in every run (hash on tag)."""
        seg = WanSegment(ecmp_paths=4, jitter_scale_ns=0.0, jitter_sigma=0.0)
        a = seg.traverse(self._batch(), np.random.default_rng(1))
        b = seg.traverse(self._batch(), np.random.default_rng(2))
        np.testing.assert_array_equal(a.tags, b.tags)

    def test_empty(self, rng):
        seg = WanSegment()
        assert len(seg.traverse(self._batch(0), rng)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WanSegment(ecmp_paths=0)
        with pytest.raises(ValueError):
            WanSegment(propagation_ns=-1.0)

    def test_intersite_scenario_shapes(self):
        """WAN jitter dominates; ECMP makes the *network* reorder."""
        fifo = fabric_intersite_40g().at_duration(5e6)
        ecmp = fabric_intersite_40g(ecmp_paths=4).at_duration(5e6)
        rep_fifo = compare_series(Testbed(fifo, seed=3).run_series(3))
        rep_ecmp = compare_series(Testbed(ecmp, seed=3).run_series(3))
        assert np.all(rep_fifo.values("O") == 0.0)
        assert np.any(rep_ecmp.values("O") > 0.0)
        assert rep_fifo.values("I").mean() > 0.2  # jitter swamps LAN scales


class TestIMIX:
    def test_mix_statistics(self, rng):
        gen = IMIXGenerator(pps=1e6)
        s = gen.generate(5e6, rng)
        sizes, counts = np.unique(s.sizes, return_counts=True)
        np.testing.assert_array_equal(sizes, [64, 576, 1500])
        # 7:4:1 weights within sampling noise.
        fracs = counts / counts.sum()
        np.testing.assert_allclose(fracs, [7 / 12, 4 / 12, 1 / 12], atol=0.03)

    def test_mean_rate(self, rng):
        gen = IMIXGenerator(pps=1e6)
        assert gen.mean_packet_bytes == pytest.approx((64 * 7 + 576 * 4 + 1500) / 12)
        s = gen.generate(20e6, rng)
        measured_bps = s.total_bytes * 8 / 20e-3
        assert measured_bps == pytest.approx(gen.mean_rate_bps, rel=0.05)

    def test_order_preserved(self, rng):
        s = IMIXGenerator(pps=3.5e6).generate(2e6, rng)
        assert np.all(np.diff(s.times_ns) > 0)

    def test_replayable_through_choir(self, rng):
        """Mixed sizes flow through record/replay without distortion."""
        from repro.net import TxNicModel
        from repro.replay import ChoirNode

        node = ChoirNode("n", TxNicModel(rate_bps=100e9))
        stream = IMIXGenerator(pps=2e6).generate(2e6, rng)
        node.record(stream, rng)
        out = node.replay(1e9, rng)
        np.testing.assert_array_equal(out.egress.sizes, stream.sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            IMIXGenerator(pps=0)
        with pytest.raises(ValueError):
            IMIXGenerator(pps=1.0, mix=((0, 1),))
