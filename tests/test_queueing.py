"""Unit and property tests for the FIFO service primitives."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.net import TailDropResult, fifo_departures, fifo_tail_drop
from repro.net.queueing import (
    _drop_free_departures,
    _satisfies_recurrence,
    last_idle_arrival,
)

from .conftest import suite_rng


def reference_fifo(ready, service):
    """The textbook sequential recurrence, for cross-validation.

    A packet starts at its arrival only if that is strictly later than
    the previous departure, as in :func:`reference_tail_drop`; on a tie
    the two choices differ only in the sign of a zero.
    """
    done = np.empty_like(ready)
    last = -np.inf
    for i in range(ready.shape[0]):
        start = ready[i] if ready[i] > last else last
        last = start + service[i]
        done[i] = last
    return done


def reference_tail_drop(ready_ns, service_ns, queue_capacity):
    """Tail drop served one packet at a time: the oracle for fifo_tail_drop."""
    ready = np.asarray(ready_ns, dtype=np.float64)
    service = np.asarray(service_ns, dtype=np.float64)
    if ready.shape != service.shape:
        raise ValueError("ready_ns and service_ns must have equal shape")
    if queue_capacity < 1:
        raise ValueError("queue_capacity must be >= 1")
    n = ready.size
    accepted = np.zeros(n, dtype=bool)
    done = []
    done_append = done.append
    # Completion times of packets still "in the system" relative to a
    # candidate arrival form a sliding window; track them in a ring buffer.
    in_system: deque[float] = deque()
    last_done = -np.inf
    r_list = ready.tolist()
    s_list = service.tolist()
    for i in range(n):
        t = r_list[i]
        while in_system and in_system[0] <= t:
            in_system.popleft()
        if len(in_system) >= queue_capacity:
            continue  # tail drop
        start = t if t > last_done else last_done
        last_done = start + s_list[i]
        in_system.append(last_done)
        accepted[i] = True
        done_append(last_done)
    return TailDropResult(np.asarray(done, dtype=np.float64), accepted)


def assert_same_as_reference(ready, service, cap):
    """fifo_tail_drop equals the oracle bit for bit; returns the result."""
    got = fifo_tail_drop(ready, service, cap)
    want = reference_tail_drop(ready, service, cap)
    assert np.array_equal(got.accepted, want.accepted)
    assert got.done_ns.dtype == np.float64
    assert got.done_ns.tobytes() == want.done_ns.tobytes()
    return got


class TestFifoDepartures:
    def test_empty(self):
        assert fifo_departures(np.array([]), np.array([])).shape == (0,)

    def test_no_queueing(self):
        ready = np.array([0.0, 100.0, 200.0])
        svc = np.array([10.0, 10.0, 10.0])
        np.testing.assert_allclose(fifo_departures(ready, svc), [10.0, 110.0, 210.0])

    def test_back_to_back(self):
        ready = np.zeros(4)
        svc = np.full(4, 10.0)
        np.testing.assert_allclose(fifo_departures(ready, svc), [10, 20, 30, 40])

    def test_matches_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 200))
            ready = np.sort(rng.uniform(0, 1000, n))
            svc = rng.uniform(0, 20, n)
            np.testing.assert_allclose(
                fifo_departures(ready, svc), reference_fifo(ready, svc), rtol=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fifo_departures(np.zeros(3), np.zeros(2))

    @given(
        hnp.arrays(np.float64, st.integers(1, 100),
                   elements=st.floats(0, 1e6, allow_nan=False)).map(np.sort),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_reference(self, ready, svc_scalar):
        svc = np.full(ready.shape[0], svc_scalar)
        got = fifo_departures(ready, svc)
        np.testing.assert_allclose(got, reference_fifo(ready, svc), rtol=1e-9)
        # Output is non-decreasing and every packet departs after arrival.
        assert np.all(np.diff(got) >= -1e-9)
        assert np.all(got >= ready + svc - 1e-9)


class TestTailDrop:
    def test_no_drops_under_capacity(self):
        ready = np.arange(10) * 100.0
        svc = np.full(10, 10.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=4)
        assert r.n_dropped == 0
        np.testing.assert_allclose(r.done_ns, fifo_departures(ready, svc))

    def test_burst_overflow_drops_tail(self):
        # 100 simultaneous arrivals into an 8-deep queue: 8 accepted.
        r = fifo_tail_drop(np.zeros(100), np.full(100, 10.0), queue_capacity=8)
        assert r.accepted.sum() == 8
        assert r.n_dropped == 92
        np.testing.assert_array_equal(np.flatnonzero(r.accepted), np.arange(8))

    def test_queue_drains_and_reaccepts(self):
        # Two bursts separated by enough time to drain the queue.
        ready = np.concatenate([np.zeros(4), np.full(4, 1000.0)])
        svc = np.full(8, 10.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=2)
        # 2 of each burst accepted.
        assert r.accepted.sum() == 4

    def test_capacity_one_is_strictest(self):
        ready = np.array([0.0, 1.0, 50.0])
        svc = np.full(3, 10.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=1)
        # Packet 1 arrives while packet 0 is in service -> dropped.
        np.testing.assert_array_equal(r.accepted, [True, False, True])

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            fifo_tail_drop(np.zeros(1), np.zeros(1), queue_capacity=0)

    @given(
        hnp.arrays(np.float64, st.integers(1, 120),
                   elements=st.floats(0, 1e4, allow_nan=False)).map(np.sort),
        st.integers(1, 16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_accepted_subset_served_in_order(self, ready, cap):
        svc = np.full(ready.shape[0], 25.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=cap)
        assert r.done_ns.shape[0] == int(r.accepted.sum())
        assert np.all(np.diff(r.done_ns) >= -1e-9)
        # Accepted packets obey the plain FIFO law among themselves.
        kept_ready = ready[r.accepted]
        kept_svc = svc[r.accepted]
        np.testing.assert_allclose(
            r.done_ns, fifo_departures(kept_ready, kept_svc), rtol=1e-9
        )

    @pytest.mark.parametrize(
        "ready, service",
        [
            ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
            ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0]),
            ([-np.inf, 0.0, 1.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, -1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, np.inf]),
        ],
        ids=[
            "decreasing-ready", "nan-ready", "inf-ready", "neg-inf-ready",
            "negative-service", "nan-service", "inf-service",
        ],
    )
    def test_rejects_bad_input(self, ready, service):
        with pytest.raises(ValueError):
            fifo_tail_drop(np.array(ready), np.array(service), queue_capacity=2)

    def test_empty(self):
        r = fifo_tail_drop(np.array([]), np.array([]), queue_capacity=3)
        assert r.done_ns.shape == (0,) and r.accepted.shape == (0,)


@st.composite
def tail_drop_cases(draw):
    """Integer-valued arrivals (zero gaps make ties) and mixed service."""
    n = draw(st.integers(1, 150))
    gaps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 60)))
    ready = np.cumsum(gaps).astype(np.float64)
    if draw(st.booleans()):
        service = np.zeros(n)
    else:
        service = draw(hnp.arrays(np.float64, n, elements=st.one_of(
            st.sampled_from([0.0, 16.8, 25.0]),
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        )))
    return ready, service, draw(st.integers(1, 20))


class TestTailDropDifferential:
    """fifo_tail_drop against the packet-at-a-time oracle, with exact ==."""

    @given(tail_drop_cases())
    @settings(max_examples=400, deadline=None)
    def test_property_matches_reference(self, case):
        assert_same_as_reference(*case)

    def test_random_long_streams(self):
        # Long busy periods (many bucket sizes) near and above saturation.
        rng = suite_rng(15)
        for _ in range(60):
            n = int(rng.integers(100, 4000))
            ready = np.cumsum(rng.integers(0, 50, n)).astype(np.float64)
            ready += rng.choice([0.0, 0.3, 1e9 + 0.1])
            service = rng.choice([16.8, 25.0, 33.3], n) * rng.uniform(0.5, 1.5)
            assert_same_as_reference(ready, service, int(rng.integers(1, 21)))

    def test_drop_episodes_inside_one_busy_period(self):
        # Bursts of 10 into a 4-deep queue every 50 ns.  The finite queue
        # drains between bursts (each burst is a regeneration point), but
        # the drop-free queue never does: one busy period, many episodes.
        bursts, size, cap = 6, 10, 4
        ready = np.repeat(np.arange(bursts) * 50.0, size)
        service = np.full(ready.size, 10.0)
        free = fifo_departures(ready, service)
        assert np.all(ready[1:] <= free[:-1])  # a single drop-free period
        got = assert_same_as_reference(ready, service, cap)
        want = np.tile(np.arange(size) < cap, bursts)
        np.testing.assert_array_equal(got.accepted, want)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    @pytest.mark.parametrize("length", [3, 7, 40])
    def test_arrival_on_a_departure(self, length, nudge):
        # A chain in a 1-deep queue: each packet arrives exactly when the
        # one before departs (so is accepted), except that the last
        # arrival is moved one ulp early (dropped) or late (a new busy
        # period).  The closed form rounds these departures up by an ulp
        # or more, so only the exact sums decide the ties correctly, and
        # the late arrival is a busy-period start the closed form misses.
        service = np.full(length, 16.8)
        chain = [1e9 + 0.1]
        for s in service[:-1]:
            chain.append(chain[-1] + s)
        ready = np.array(chain)
        assert np.any(fifo_departures(ready, service)[:-1] != ready[1:])
        if nudge:
            ready[-1] = np.nextafter(ready[-1], nudge * np.inf)
        got = assert_same_as_reference(ready, service, 1)
        np.testing.assert_array_equal(got.accepted, np.arange(length) < length - (nudge < 0))


def assert_drop_free_exact(ready, service):
    """_drop_free_departures equals the recurrence bit for bit."""
    done, is_start = _drop_free_departures(ready, service)
    want = reference_fifo(ready, service)
    assert done.tobytes() == want.tobytes()
    assert is_start[0]
    np.testing.assert_array_equal(is_start[1:], ready[1:] > want[:-1])


def _verifies(ready, service):
    return _satisfies_recurrence(ready, service, fifo_departures(ready, service))


@st.composite
def drop_free_cases(draw):
    """Streams from four families: (ready, service).

    * whole-nanosecond services on a ``1e9 + frac`` clock, where the
      closed form verifies;
    * services on the fractional 16.8/33.3 grid, where it mostly does not;
    * whole-nanosecond services on a clock crossing 2**30 ns, where the
      clock's ulp doubles;
    * arrivals and services of ``-0.0``/``0.0``, where ``==`` cannot tell
      results whose bits differ.
    """
    n = draw(st.integers(1, 120))
    gaps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 400)))
    family = draw(st.sampled_from(["integer", "fractional", "crossing", "zeros"]))
    if family == "zeros":
        ready = np.sort(draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
            [-0.0, 0.0, 1.0, 2.0]))))
        service = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-0.0, 0.0, 1.0])))
        return ready, service
    if family == "fractional":
        service = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([16.8, 33.3])))
    else:
        service = draw(hnp.arrays(np.int64, n, elements=st.sampled_from(
            [0, 1, 7, 280, 300]))).astype(np.float64)
    if family == "crossing":
        origin = 2.0**30 - draw(st.integers(0, 2000)) + draw(st.sampled_from([0.1, 0.3, 0.5]))
    else:
        origin = 1e9 + draw(st.sampled_from([0.0, 0.1, 0.3]))
    return origin + np.cumsum(gaps).astype(np.float64), service


class TestDropFreeDepartures:
    """_drop_free_departures against the recurrence, with exact bytes."""

    @given(drop_free_cases())
    @settings(max_examples=400, deadline=None)
    def test_property_matches_reference(self, case):
        assert_drop_free_exact(*case)

    def test_verified_proposal(self):
        # 1400/1500 B frames at 40 Gb/s take 280/300 ns: the closed form's
        # sums are exact on a 1e9 + 0.3 ns clock, so it verifies.
        ready = 1e9 + 0.3 + np.array([0.0, 100.0, 100.0, 150.0, 2000.0, 2000.0])
        service = np.array([280.0, 300.0, 280.0, 280.0, 300.0, 300.0])
        assert _verifies(ready, service)
        assert_drop_free_exact(ready, service)

    def test_failed_step_falls_back(self):
        # A chain where each arrival meets the previous departure: the
        # closed form rounds some departures off by an ulp, so a step fails
        # and the busy-period sums give the exact answer.
        service = np.full(40, 16.8)
        chain = [1e9 + 0.1]
        for s in service[:-1]:
            chain.append(chain[-1] + s)
        ready = np.array(chain)
        assert not _verifies(ready, service)
        assert_drop_free_exact(ready, service)

    def test_signed_zero_falls_back(self):
        # Every step holds under ==, but the closed form ends on -0.0 where
        # the recurrence (and the tail-drop oracle) ends on 0.0.
        ready = np.array([0.0, -0.0])
        service = np.array([-0.0, -0.0])
        proposal = fifo_departures(ready, service)
        assert proposal[0] == ready[0] + service[0]
        assert np.maximum(ready[1], proposal[0]) + service[1] == proposal[1]
        assert proposal.tobytes() != reference_fifo(ready, service).tobytes()
        assert not _verifies(ready, service)
        assert_drop_free_exact(ready, service)
        assert_same_as_reference(ready, service, 4)


def reference_last_idle_arrival(ready, service, next_ns):
    """The last arrival, ``next_ns`` (index n) included, that comes
    strictly after the recurrence's previous departure."""
    done = reference_fifo(ready, service)
    arrivals = ready.tolist() + [next_ns]
    return max(
        [0] + [i for i in range(1, len(arrivals)) if arrivals[i] > done[i - 1]]
    )


class TestLastIdleArrival:
    """last_idle_arrival against the recurrence, and the restart it licenses."""

    @given(drop_free_cases(), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference(self, case, gap):
        ready, service = case
        next_ns = ready[-1] + gap
        got = last_idle_arrival(ready, service, next_ns)
        assert got == reference_last_idle_arrival(ready, service, next_ns)

    def test_empty_stream(self):
        assert last_idle_arrival(np.array([]), np.array([]), 5.0) == 0

    def test_next_arrival_on_the_last_departure_is_not_idle(self):
        ready, service = np.array([0.0, 1000.0]), np.array([300.0, 300.0])
        assert last_idle_arrival(ready, service, 1300.0) == 1
        assert last_idle_arrival(ready, service, 1300.5) == 2

    @given(tail_drop_cases())
    @settings(max_examples=300, deadline=None)
    def test_tail_drop_restarts_at_the_idle_arrival(self, case):
        # Cutting everything before the idle arrival leaves the tail drop
        # of what follows it unchanged, bit for bit.
        ready, service, cap = case
        k = last_idle_arrival(ready[:-1], service[:-1], ready[-1])
        full = reference_tail_drop(ready, service, cap)
        cut = fifo_tail_drop(ready[k:], service[k:], cap)
        np.testing.assert_array_equal(cut.accepted, full.accepted[k:])
        n_before = np.count_nonzero(full.accepted[:k])
        assert cut.done_ns.tobytes() == full.done_ns[n_before:].tobytes()
