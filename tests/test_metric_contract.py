"""Regression: one MetricVector contract across batch/streaming/parallel.

An earlier streaming path's docs once claimed it reported O as ``None``
while its code returned ``0.0`` — and the batch path always returned
floats.  The resolved contract (documented on
:class:`repro.core.kappa.MetricVector`) is: every component is a concrete
finite float in [0, 1] on *every* comparison path; a path that cannot
compute a component guarantees its value by precondition instead.  These
tests pin that so the paths can never drift apart again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import analyze_directory, save_series
from repro.analysis.streamkappa import KappaMonitor, StreamKappa
from repro.core import MetricVector, Trial, compare_trials

from .conftest import comb_trial, make_trial, suite_rng


def assert_contract(vec: MetricVector):
    for name in ("u", "o", "l", "i"):
        v = getattr(vec, name)
        assert isinstance(v, float), f"{name.upper()} is {type(v).__name__}, not float"
        assert np.isfinite(v)
        assert 0.0 <= v <= 1.0


class TestAllPathsReturnFloats:
    def test_batch_path(self):
        a, b = comb_trial(40), comb_trial(40, start=7.0)
        assert_contract(compare_trials(a, b).metrics)

    def test_parallel_path(self, tmp_path):
        a, b = comb_trial(40, label="A"), comb_trial(40, start=7.0, label="B")
        save_series([a, b, b], tmp_path)
        for pair in analyze_directory(tmp_path, jobs=2).pairs:
            assert_contract(pair.metrics)


class TestStreamKappaContract:
    """The streaming-O path computes every component — and still returns
    only concrete finite floats in [0, 1], like every other path."""

    def _messy_pair(self, salt):
        rng = suite_rng(salt)
        n = 150
        tags = rng.integers(0, 12, size=n).astype(np.int64)
        times = np.cumsum(rng.exponential(100.0, size=n))
        a = make_trial(times, tags)
        keep = rng.random(n) > 0.1
        bt = times[keep] + rng.normal(0.0, 400.0, size=int(keep.sum()))
        return a, Trial.from_arrival_events(tags[keep], bt)

    def test_streaming_o_path_computes_o_as_float(self):
        """O is *computed* here (nonzero on reordered input), not guaranteed."""
        a, b = self._messy_pair(901)
        sk = StreamKappa(a)
        for lo in range(0, len(b), 17):
            sk.update(b.tags[lo : lo + 17], b.times_ns[lo : lo + 17])
            assert_contract(sk.result())  # holds at every chunk boundary
        vec = sk.result()
        assert_contract(vec)
        assert vec.o > 0.0  # a genuinely misordered stream: O was computed

    def test_empty_stream(self):
        a, _ = self._messy_pair(902)
        assert_contract(StreamKappa(a).result())

    def test_empty_baseline(self):
        _, b = self._messy_pair(903)
        sk = StreamKappa(Trial(np.empty(0, dtype=np.int64), np.empty(0)))
        sk.update(b.tags, b.times_ns)
        assert_contract(sk.result())

    def test_monitor_window_vectors(self):
        """Every WindowReport vector obeys the contract, empty windows too."""
        a, b = self._messy_pair(904)
        mon = KappaMonitor(a.duration_ns / 6, min_windows=4)
        reports = []
        reports += mon.feed_baseline("s", a.tags, a.times_ns)
        # A mid-stream gap leaves at least one window with no run packets.
        half = len(b) // 2
        reports += mon.feed_run("s", b.tags[:half], b.times_ns[:half])
        reports += mon.feed_run(
            "s", b.tags[half:], b.times_ns[half:] + 3 * a.duration_ns
        )
        reports += mon.finish("s")
        assert reports
        for rep in reports:
            assert_contract(rep.vector)
            assert isinstance(rep.kappa, float) and np.isfinite(rep.kappa)


class TestVectorRejectsNonContract:
    def test_rejects_none(self):
        with pytest.raises(TypeError):
            MetricVector(None, 0.0, 0.0, 0.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            MetricVector(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MetricVector(0.0, float("inf"), 0.0, 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MetricVector(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MetricVector(0.0, -0.5, 0.0, 0.0)
