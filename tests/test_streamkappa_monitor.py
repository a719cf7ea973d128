"""KappaMonitor: live degradation flagging and the bounded-memory claim.

The monitor's job is to watch many sessions' windowed κ and flag the
window where consistency degrades, holding only O(window) state per
session.  These tests pin both halves with fixed seeds and deterministic
thresholds:

* a session whose jitter profile worsens mid-stream is flagged, and the
  flagged window lands within a small bound of the true shift point;
* a stable session is never flagged;
* peak per-session bytes stay flat when the session runs 10× longer —
  the acceptance criterion behind ``benchmarks/bench_streaming_kappa.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.changepoints import detect_series_steps
from repro.analysis.streamkappa import DegradationEvent, KappaMonitor, StreamKappa

from .conftest import make_trial, suite_rng

GAP_NS = 10_000.0
WINDOW_NS = 1e6  # 100 packets per window at GAP_NS


def _session_streams(n: int, salt: int, sigma_late: float, shift_at: float = 0.5):
    """A comb baseline and a jittered run whose σ jumps at ``shift_at``.

    A clean clock *step* cancels in window-local latencies (a constant
    shift moves the window anchor with it), so degradation is modeled the
    way it shows up in window-local metrics: a jitter-variance increase.
    """
    rng = suite_rng(salt)
    base = np.arange(n) * GAP_NS
    tags = np.arange(n, dtype=np.int64)
    cut = int(n * shift_at)
    sigma = np.where(np.arange(n) < cut, 0.005 * GAP_NS, sigma_late * GAP_NS)
    run = np.sort(base + rng.normal(0.0, sigma))
    return tags, base, tags, run


def _feed_all(mon, session, streams, chunk):
    tags_a, times_a, tags_b, times_b = streams
    reports = []
    for lo in range(0, max(len(times_a), len(times_b)), chunk):
        reports += mon.feed_baseline(
            session, tags_a[lo : lo + chunk], times_a[lo : lo + chunk]
        )
        reports += mon.feed_run(
            session, tags_b[lo : lo + chunk], times_b[lo : lo + chunk]
        )
    reports += mon.finish(session)
    return reports


class TestDegradationFlagging:
    def test_mid_stream_jitter_shift_is_flagged_near_the_shift(self):
        n = 4000  # 40 windows; σ jumps at packet 2000 → window 20
        mon = KappaMonitor(WINDOW_NS, min_kappa_step=0.02)
        _feed_all(mon, "degrading", _session_streams(n, 301, sigma_late=0.3), 256)
        events = mon.degraded.get("degrading")
        assert events, "jitter shift was not flagged"
        ev = events[0]
        assert isinstance(ev, DegradationEvent)
        assert ev.session == "degrading"
        # Bounded detection latency: flagged within 3 windows of the shift.
        assert abs(ev.window - 20) <= 3, ev
        assert ev.kappa_step < 0  # a *downward* step
        assert ev.kappa_after < ev.kappa_before

    def test_stable_session_is_not_flagged(self):
        n = 4000
        mon = KappaMonitor(WINDOW_NS, min_kappa_step=0.02)
        # Same construction, but σ never changes.
        _feed_all(
            mon,
            "stable",
            _session_streams(n, 302, sigma_late=0.005),
            256,
        )
        assert mon.window_count("stable") >= 35
        assert "stable" not in mon.degraded

    def test_multiple_sessions_flag_independently(self):
        mon = KappaMonitor(WINDOW_NS, min_kappa_step=0.02)
        degrading = _session_streams(4000, 303, sigma_late=0.3)
        stable = _session_streams(4000, 304, sigma_late=0.005)
        for lo in range(0, 4000, 256):
            for name, s in (("bad", degrading), ("good", stable)):
                mon.feed_baseline(name, s[0][lo : lo + 256], s[1][lo : lo + 256])
                mon.feed_run(name, s[2][lo : lo + 256], s[3][lo : lo + 256])
        mon.finish("bad")
        mon.finish("good")
        assert "bad" in mon.degraded
        assert "good" not in mon.degraded
        assert sorted(mon.sessions) == ["bad", "good"]

    def test_events_are_not_reflagged(self):
        """A step is reported once, not once per subsequent window close."""
        mon = KappaMonitor(WINDOW_NS, min_kappa_step=0.02)
        _feed_all(mon, "s", _session_streams(4000, 305, sigma_late=0.3), 256)
        events = mon.degraded["s"]
        assert len({ev.window for ev in events}) == len(events)


class TestBoundedMemory:
    def test_peak_bytes_flat_as_session_grows_10x(self):
        """O(window), not O(session): 10× the windows, ~the same peak."""
        peaks = {}
        for n in (2000, 20_000):
            mon = KappaMonitor(WINDOW_NS)
            _feed_all(mon, "s", _session_streams(n, 311, sigma_late=0.005), 256)
            assert mon.window_count("s") >= n // 100 - 1
            peaks[n] = mon.peak_bytes("s")
        assert peaks[20_000] <= 1.5 * peaks[2000] + 4096, peaks

    def test_stream_kappa_state_bytes_count_the_pile_buffers(self):
        """StreamKappa's exact state is honest: every buffer's nbytes,
        the pile state's tails and predecessor links included."""
        tags_a, times_a, tags_b, times_b = _session_streams(4000, 313, sigma_late=0.005)
        sk = StreamKappa(make_trial(times_a, tags_a, label="A"))
        sizes = []
        for lo in range(0, 4000, 500):
            sk.update(tags_b[lo : lo + 500], times_b[lo : lo + 500])
            sizes.append(sk.state_bytes)
        piles = sk._piles
        assert piles.prev.shape[0] == sk.n_common == 4000
        in_use = piles.tails_vals.nbytes + piles.tails_idx.nbytes + piles.prev.nbytes
        assert in_use <= piles.nbytes < sk.state_bytes
        assert sizes == sorted(sizes) and sk.peak_bytes == sizes[-1]

    def test_laggard_stream_trips_the_open_window_guard(self):
        """Unbounded buffering is refused, not silently accumulated."""
        mon = KappaMonitor(WINDOW_NS, max_open_windows=8)
        tags_a, times_a, tags_b, times_b = _session_streams(
            4000, 312, sigma_late=0.005
        )
        mon.feed_run("s", tags_b[:100], times_b[:100])  # baseline never arrives
        with pytest.raises(RuntimeError, match="open"):
            mon.feed_run("s", tags_b[100:], times_b[100:])


class TestSessionLifecycle:
    def test_unknown_session_raises(self):
        mon = KappaMonitor(WINDOW_NS)
        with pytest.raises(KeyError):
            mon.finish("nope")
        with pytest.raises(KeyError):
            mon.kappa_history("nope")

    def test_feed_after_finish_raises(self):
        mon = KappaMonitor(WINDOW_NS)
        streams = _session_streams(400, 321, sigma_late=0.005)
        _feed_all(mon, "s", streams, 128)
        with pytest.raises(ValueError, match="finished"):
            mon.feed_run("s", streams[2][:1], streams[3][-1:] + 1e9)

    def test_finish_is_idempotent(self):
        mon = KappaMonitor(WINDOW_NS)
        _feed_all(mon, "s", _session_streams(400, 322, sigma_late=0.005), 128)
        count = mon.window_count("s")
        assert mon.finish("s") == []
        assert mon.window_count("s") == count

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            KappaMonitor(0.0)
        with pytest.raises(ValueError):
            KappaMonitor(WINDOW_NS, min_kappa_step=0.0)
        with pytest.raises(ValueError):
            KappaMonitor(WINDOW_NS, history=4, min_windows=8)
        with pytest.raises(ValueError):
            KappaMonitor(WINDOW_NS, min_windows=2)
        with pytest.raises(ValueError):
            KappaMonitor(WINDOW_NS, max_open_windows=0)


class TestSeriesStepDetector:
    """The unit-agnostic wrapper the monitor runs on its κ ring."""

    def test_detects_a_downward_step_in_unit_scale_series(self):
        series = np.concatenate([np.full(20, 0.98), np.full(20, 0.80)])
        steps = detect_series_steps(series, min_step=0.02)
        assert len(steps) == 1
        assert steps[0].index == 20
        assert steps[0].step_ns == pytest.approx(-0.18)

    def test_ignores_steps_below_threshold(self):
        series = np.concatenate([np.full(20, 0.98), np.full(20, 0.975)])
        assert detect_series_steps(series, min_step=0.02) == []
