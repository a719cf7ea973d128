"""Property-based tests for the I/O formats and analysis decompositions.

Complements test_properties_metrics: here hypothesis drives the capture
formats (roundtrip exactness) and the windowed decomposition (exact
partition of the metric numerators).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import read_capture, read_pcap, read_pcapng, write_capture, write_pcap, write_pcapng
from repro.core import (
    Trial,
    iat_deltas_ns,
    latency_deltas_ns,
    windowed_deviation,
)


@st.composite
def small_trials(draw, max_n=60):
    n = draw(st.integers(0, max_n))
    times = np.sort(
        draw(hnp.arrays(np.float64, n,
                        elements=st.floats(0, 1e9, allow_nan=False)))
    ).round(0)
    tags = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2**40)))
    # Capture formats key packets by tag; make tags unique.
    tags = tags + np.arange(n, dtype=np.int64) * (2**41)
    return Trial(tags, times, label="A")


@st.composite
def aligned_pairs(draw, max_n=80):
    n = draw(st.integers(1, max_n))
    base = np.sort(
        draw(hnp.arrays(np.float64, n,
                        elements=st.floats(0, 1e6, allow_nan=False)))
    )
    jitter = draw(hnp.arrays(np.float64, n,
                             elements=st.floats(-100, 100, allow_nan=False)))
    b_times = np.maximum.accumulate(base + jitter)
    tags = np.arange(n, dtype=np.int64)
    return Trial(tags, base, label="A"), Trial(tags, b_times, label="B")


@given(small_trials())
@settings(max_examples=50, deadline=None)
def test_capture_roundtrip_exact(tmp_path_factory, trial):
    path = tmp_path_factory.mktemp("cap") / "t.cho"
    back = read_capture(write_capture(trial, path))
    np.testing.assert_array_equal(back.tags, trial.tags)
    np.testing.assert_array_equal(back.times_ns, trial.times_ns)


@given(small_trials(max_n=25))
@settings(max_examples=25, deadline=None)
def test_pcap_roundtrip_preserves_identity(tmp_path_factory, trial):
    path = tmp_path_factory.mktemp("pcap") / "t.pcap"
    result = read_pcap(write_pcap(trial, path, frame_bytes=128))
    assert result.n_corrupted == 0
    np.testing.assert_array_equal(np.sort(result.trial.tags), np.sort(trial.tags))
    # Integer-ns timestamps survive exactly.
    np.testing.assert_allclose(
        np.sort(result.trial.times_ns), np.sort(trial.times_ns), atol=0.5
    )


@given(small_trials(max_n=25))
@settings(max_examples=25, deadline=None)
def test_pcapng_roundtrip_preserves_identity(tmp_path_factory, trial):
    path = tmp_path_factory.mktemp("pcapng") / "t.pcapng"
    result = read_pcapng(write_pcapng(trial, path, frame_bytes=128))
    assert result.n_corrupted == 0
    np.testing.assert_array_equal(np.sort(result.trial.tags), np.sort(trial.tags))


@given(aligned_pairs(), st.floats(10.0, 1e6))
@settings(max_examples=60, deadline=None)
def test_windowed_sums_partition_numerators(pair, window_ns):
    a, b = pair
    w = windowed_deviation(a, b, window_ns=window_ns)
    assert w.sum_abs_latency_ns.sum() == pytest.approx(
        np.abs(latency_deltas_ns(a, b)).sum(), rel=1e-9, abs=1e-9
    )
    assert w.sum_abs_iat_ns.sum() == pytest.approx(
        np.abs(iat_deltas_ns(a, b)).sum(), rel=1e-9, abs=1e-9
    )
    assert int(w.n_common.sum()) == len(a)
