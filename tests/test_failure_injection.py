"""Failure-injection tests: the system under hostile inputs and faults.

Each test injects a specific failure the real deployment could see —
clock steps backwards, overflowing buffers, saturated loops, corrupted
captures, pathological workloads — and asserts the system either models
it faithfully or fails loudly, never silently corrupting an analysis.
"""

import numpy as np
import pytest

from repro.core import Trial, compare_trials
from repro.net import PacketArray, SharedPort, TxNicModel
from repro.replay import (
    ChoirNode,
    PollLoopCost,
    Recording,
    Replayer,
    ReplayTimingModel,
    burstify_fixed,
    burstify_poll_loop,
)
from repro.testbeds import ClockStepModel, Testbed, local_single_replayer
from repro.timing import TSC, SampledClockStamper

from .conftest import comb_trial


class TestClockFaults:
    def test_backwards_clock_step_never_reorders_capture(self, rng):
        """A big negative step must not produce time-travelling packets."""
        t = np.arange(10_000) * 284.0
        model = ClockStepModel(rate_per_sec=2000.0, scale_ns=1e6)
        for _ in range(5):
            out = model.apply(t, t[-1], rng)
            assert np.all(np.diff(out) >= 0)

    def test_sampled_stamper_with_huge_anchor_error(self, rng):
        """Anchor errors larger than packet gaps still yield a monotone capture."""
        s = SampledClockStamper(sample_interval_ns=1e4, sample_error_ns=5e4)
        t = np.arange(5_000) * 284.0
        out = s.stamp(t, rng)
        assert np.all(np.diff(out) >= 0)

    def test_analysis_survives_extreme_drift(self):
        """A trial pair with 1000 ppm relative drift stays in metric range."""
        n = 10_000
        base = np.arange(n) * 284.0
        a = Trial(np.arange(n), base, label="A")
        b = Trial(np.arange(n), base * 1.001, label="B")
        r = compare_trials(a, b)
        assert 0.0 <= r.kappa <= 1.0
        assert r.metrics.l > 0


class TestResourceExhaustion:
    def test_buffer_overflow_truncates_never_corrupts(self, rng):
        """Offering 3x the buffer yields a valid, replayable recording."""
        from repro.replay import MBUF_BYTES, MIN_BUFFER_BYTES

        node = ChoirNode("n", TxNicModel(rate_bps=100e9),
                         buffer_bytes=MIN_BUFFER_BYTES)
        cap = MIN_BUFFER_BYTES // MBUF_BYTES
        batch = PacketArray.uniform(3 * cap, 1400, np.arange(3 * cap) * 112.0)
        _, rec = node.record(batch, rng)
        assert rec.truncated
        assert rec.memory_bytes <= MIN_BUFFER_BYTES
        out = node.replay(1e9, rng)
        assert len(out) == len(rec)

    def test_saturated_replay_loop_stays_ordered(self, rng):
        """A loop too slow for its recording backlogs but never reorders."""
        batch = PacketArray.uniform(5_000, 1400, np.arange(5_000) * 112.0)
        rec = Recording.capture(batch, burstify_fixed(5_000, 4),
                                batch.times_ns, TSC())
        slow = Replayer(
            tx_nic=TxNicModel(rate_bps=100e9),
            loop_cost=PollLoopCost(iteration_ns=2_000.0, per_packet_ns=100.0),
            timing=ReplayTimingModel(),
        )
        out = slow.replay(rec, 1e9, rng)
        assert np.all(np.diff(out.egress.times_ns) >= 0)
        # Backlog: output span stretches well beyond the recording.
        span = out.egress.times_ns[-1] - out.egress.times_ns[0]
        assert span > rec.duration_ns * 1.5

    def test_total_starvation_on_shared_port(self, rng):
        """A 100% co-tenant load delays but never reorders the foreground."""
        port = SharedPort(rate_bps=100e9)
        fg = PacketArray.uniform(500, 1400, np.arange(500) * 284.0)
        bg = PacketArray.uniform(20_000, 1500, np.sort(
            rng.uniform(0, 500 * 284.0, 20_000)))
        res = port.traverse(fg, bg)
        np.testing.assert_array_equal(res.batch.tags, fg.tags)
        assert np.all(np.diff(res.batch.times_ns) >= 0)


class TestHostileWorkloads:
    def test_simultaneous_arrivals_burstify(self):
        """A zero-width megaburst still produces capped, ordered bursts."""
        ids = burstify_poll_loop(np.zeros(1_000))
        assert np.all(np.diff(ids) >= 0)
        sizes = np.bincount(ids)
        assert sizes.max() <= 64

    def test_single_packet_trial_analysis(self):
        a = comb_trial(1, label="A")
        r = compare_trials(a, a.relabel("B"))
        assert r.kappa == 1.0

    def test_comparing_unrelated_environments(self):
        """Trials from different workloads: metrics stay in range."""
        from .conftest import make_trial

        a = comb_trial(100, gap_ns=284.0, label="A")
        b = make_trial(5e7 + np.arange(37) * 999.0,
                       tags=1000 + np.arange(37), label="B")
        r = compare_trials(a, b)
        assert 0.0 <= r.kappa <= 1.0
        assert r.metrics.u == 1.0  # completely disjoint packet sets

    def test_duplicate_heavy_trial(self, rng):
        """Captures where most tags repeat (e.g. re-transmissions)."""
        tags = rng.integers(0, 10, 1_000)
        a = Trial(tags, np.arange(1_000) * 100.0, label="A")
        r = compare_trials(a, a.relabel("B"))
        assert r.metrics.is_identical

    def test_capture_of_zero_duration(self):
        a = Trial(np.arange(5), np.zeros(5), label="A")
        r = compare_trials(a, a.relabel("B"))
        assert r.kappa == 1.0


class TestEndToEndFaults:
    def test_testbed_with_pathologically_short_window(self):
        """A 100 µs capture (a few hundred packets) runs end to end."""
        p = local_single_replayer().at_duration(1e5)
        trials = Testbed(p, seed=1).run_series(2)
        assert len(trials[0]) > 100
        r = compare_trials(trials[0], trials[1])
        assert 0.0 <= r.kappa <= 1.0

    def test_corrupted_capture_file_fails_loudly(self, tmp_path):
        from repro.analysis import CaptureFormatError, read_capture, write_capture

        p = write_capture(comb_trial(100, label="A"), tmp_path / "x.cho")
        raw = bytearray(p.read_bytes())
        raw[-1] ^= 0x01  # the last timestamp's lowest mantissa bit
        p.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="checksum"):
            read_capture(p)
