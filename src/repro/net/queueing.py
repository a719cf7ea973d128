"""FIFO service primitives, vectorized.

The workhorse of the whole simulator is the single-server FIFO recurrence

.. math::

    \\mathrm{done}_i = \\max(\\mathrm{ready}_i, \\mathrm{done}_{i-1})
                      + \\mathrm{service}_i

(link serialization, switch egress, DMA engines, and the shared-NIC
scheduler are all instances).  A naive Python loop over a million packets
would dominate the runtime; :func:`fifo_departures` computes the exact
recurrence in a handful of NumPy passes:

with ``c = cumsum(service)`` and ``c_prev = c - service``,

.. math::

    \\mathrm{done}_i = c_i + \\max_{j \\le i}(\\mathrm{ready}_j - c_{j-1})

because unrolling the recurrence shows every prefix maximum candidate is
"packet j started service exactly at ready_j, everything after was
back-to-back".  The inner maximum is a single ``np.maximum.accumulate``.

The closed form rounds differently from the recurrence in general, but
it is cheap to *check*: one vector pass tests every step of the recurrence
on it, and a proposal that passes every step is the recurrence's result
(:func:`_drop_free_departures`).

Finite buffers (tail drop) break the closed form — whether packet *i* is
dropped feeds back into every later departure.  :func:`fifo_tail_drop`
stays exact by solving the drop-free departures exactly (the verified
closed form, or left-to-right sums per busy period where a step fails),
screening them for the arrivals that could find the queue full, and
stepping packet by packet only from such an arrival to the next point
where the queue has drained.  Only contended shared-NIC scenarios take
that path, and only for the queue in contention.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["fifo_departures", "fifo_tail_drop", "last_idle_arrival", "TailDropResult"]


def fifo_departures(ready_ns: np.ndarray, service_ns: np.ndarray) -> np.ndarray:
    """Exact FIFO service-completion times, vectorized.

    Parameters
    ----------
    ready_ns:
        Times packets become available to the server, **non-decreasing**.
    service_ns:
        Per-packet service durations (non-negative).

    Returns
    -------
    ndarray
        Time each packet finishes service; non-decreasing.
    """
    ready = np.asarray(ready_ns, dtype=np.float64)
    service = np.asarray(service_ns, dtype=np.float64)
    if ready.shape != service.shape:
        raise ValueError("ready_ns and service_ns must have equal shape")
    if ready.size == 0:
        return np.empty(0, dtype=np.float64)
    c = np.cumsum(service)
    start_slack = ready - (c - service)  # ready_j - c_{j-1}
    return c + np.maximum.accumulate(start_slack)


@dataclass(frozen=True)
class TailDropResult:
    """Outcome of finite-buffer FIFO service.

    Attributes
    ----------
    done_ns:
        Service-completion times of **accepted** packets.
    accepted:
        Boolean mask over the input marking accepted packets.
    n_dropped:
        Convenience count of drops.
    """

    done_ns: np.ndarray
    accepted: np.ndarray

    @property
    def n_dropped(self) -> int:
        return int(self.accepted.size - np.count_nonzero(self.accepted))


def fifo_tail_drop(
    ready_ns: np.ndarray,
    service_ns: np.ndarray,
    queue_capacity: int,
) -> TailDropResult:
    """FIFO service with a finite queue: arrivals beyond capacity are dropped.

    A packet arriving while ``queue_capacity`` packets are already waiting
    or in service is discarded (tail drop), as a NIC RX/TX ring or switch
    egress queue does.  The result is bit-identical to serving the packets
    one at a time in arrival order, but only the stretches where the queue
    can overflow are stepped packet by packet:

    1. the drop-free departures are solved exactly
       (:func:`_drop_free_departures`: the closed form, verified step by
       step, or summed per busy period where a step fails);
    2. departures are non-decreasing, so arrival *i* finds the queue full
       iff ``done[i - queue_capacity] > ready[i]`` — one vector compare,
       and every packet before the first such arrival is accepted;
    3. from that arrival the queue is stepped packet by packet up to the
       next *regeneration point* (an arrival at or after the last
       departure, when the queue is empty and carries no history), and
       the search resumes from there.

    Parameters
    ----------
    ready_ns:
        Arrival times, **non-decreasing** and finite.
    service_ns:
        Per-packet service durations, finite and non-negative.
    queue_capacity:
        Packets the queue holds, the one in service included (>= 1).

    Raises
    ------
    ValueError
        On unequal shapes, ``queue_capacity < 1``, decreasing or
        non-finite ``ready_ns``, or negative or non-finite ``service_ns``.
    """
    ready = np.asarray(ready_ns, dtype=np.float64)
    service = np.asarray(service_ns, dtype=np.float64)
    if ready.shape != service.shape:
        raise ValueError("ready_ns and service_ns must have equal shape")
    if queue_capacity < 1:
        raise ValueError("queue_capacity must be >= 1")
    if not np.isfinite(ready).all():
        raise ValueError("ready_ns must be finite")
    if (ready[1:] < ready[:-1]).any():
        raise ValueError("ready_ns must be non-decreasing")
    if not np.isfinite(service).all() or (service < 0).any():
        raise ValueError("service_ns must be finite and non-negative")
    n = ready.size
    accepted = np.ones(n, dtype=bool)
    if n == 0:
        return TailDropResult(np.empty(0, dtype=np.float64), accepted)

    cap = int(queue_capacity)
    done, is_start = _drop_free_departures(ready, service)
    starts = np.flatnonzero(is_start)
    # Drop-free busy periods start in every drop pattern too (drops only
    # lower departures), so no overflow stretch crosses one.
    at_risk = np.flatnonzero(done[:-cap] > ready[cap:]) + cap
    # ``a`` is the last regeneration point; ``done[a:e]`` was re-solved
    # drop-free from it, and ``done[e:]`` is still the initial solution.
    a = e = 0
    while True:
        local = np.flatnonzero(done[a:e - cap] > ready[a + cap:e]) if e - a > cap else ()
        if len(local):
            f = a + cap + int(local[0])
        else:
            k = int(np.searchsorted(at_risk, e))
            if k == at_risk.size:
                break
            f = int(at_risk[k])
        k = int(np.searchsorted(starts, f, side="right"))
        a = _scalar_steps(
            ready, service, done, accepted, a, f,
            int(starts[k]) if k < starts.size else n, cap,
        )
        if a == n:
            break
        k = int(np.searchsorted(starts, a))
        e = int(starts[k]) if k < starts.size else n
        if e > a:
            done[a:e] = _drop_free_departures(ready[a:e], service[a:e])[0]
    if accepted.all():
        return TailDropResult(done, accepted)
    return TailDropResult(done[accepted], accepted)


def last_idle_arrival(
    ready_ns: np.ndarray, service_ns: np.ndarray, next_ns: float
) -> int:
    """Index of the last arrival that finds the drop-free FIFO empty.

    The arrivals are ``ready_ns`` followed by one more at ``next_ns`` (at
    or after ``ready_ns[-1]``), which has index ``len(ready_ns)``.  An
    arrival finds the queue empty when it comes strictly after the
    previous departure, the busy-period starts of
    :func:`_drop_free_departures`; packet 0 always does.  Tail drops only
    lower departures, so such an arrival finds a finite queue empty under
    every drop pattern too: from it on, the queue runs as if nothing had
    come before.
    """
    ready = np.asarray(ready_ns, dtype=np.float64)
    if ready.size == 0:
        return 0
    done, is_start = _drop_free_departures(ready, np.asarray(service_ns, dtype=np.float64))
    if next_ns > done[-1]:
        return ready.size
    return int(np.flatnonzero(is_start)[-1])


def _drop_free_departures(
    ready: np.ndarray, service: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact infinite-buffer departures and busy-period starts.

    The closed form :func:`fifo_departures` is a proposal, returned as it
    is when :func:`_satisfies_recurrence` verifies it; it does whenever
    the sums round alike, e.g. for whole-nanosecond services.

    Where a step fails, the proposal only seeds the busy-period starts
    (``ready[i] > done[i - 1]``; packet 0 always starts one).  Each period
    is then summed left to right, ``ready[start] + service[start] +
    service[start+1] + ...``, which are the recurrence's own additions in
    its own order, and the starts are re-derived from those sums until
    they stop changing.  At that fixed point every step of the recurrence
    holds, so the result is exact.  Each round fixes at least the first
    wrong start, so the loop ends.
    """
    done = fifo_departures(ready, service)
    is_start = np.empty(ready.size, dtype=bool)
    is_start[0] = True
    np.greater(ready[1:], done[:-1], out=is_start[1:])
    if _satisfies_recurrence(ready, service, done):
        return done, is_start
    while True:
        done = _busy_period_sums(ready, service, np.flatnonzero(is_start))
        rederived = ready[1:] > done[:-1]
        if np.array_equal(rederived, is_start[1:]):
            return done, is_start
        is_start[1:] = rederived


def _satisfies_recurrence(
    ready: np.ndarray, service: np.ndarray, done: np.ndarray
) -> bool:
    """Whether ``done`` is the FIFO recurrence's result, bit for bit.

    One vector pass checks every step, ``done[0] == ready[0] + service[0]``
    and ``maximum(ready[i], done[i - 1]) + service[i] == done[i]``.  By
    induction on ``i``, a ``done`` that passes has the recurrence's
    values.  Equal values have equal bits except for signed zeros, and
    the departures are non-decreasing, so a positive first departure
    rules those out.
    """
    if not (done[0] > 0 and done[0] == ready[0] + service[0]):
        return False
    step = np.maximum(ready[1:], done[:-1])
    step += service[1:]
    return np.array_equal(step, done[1:])


def _busy_period_sums(
    ready: np.ndarray, service: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Left-to-right sums ``ready[start] + service[start] + ... + service[i]``.

    Periods are grouped by length into power-of-two buckets; each bucket
    becomes one zero-padded matrix whose rows are
    ``[ready[start], service[start], service[start+1], ...]``, and one
    ``np.cumsum`` along the rows adds them in order.
    """
    n = ready.size
    lengths = np.diff(starts, append=n)
    # Bucket k holds the periods of length in (2**(k-1), 2**k].
    buckets = np.frexp(lengths - 1)[1]
    done = np.empty(n, dtype=np.float64)
    for k in np.unique(buckets).tolist():
        sel = buckets == k
        first = starts[sel]
        cols = np.arange(1 << k)
        pos = first[:, None] + cols
        inside = cols < lengths[sel][:, None]
        rows = np.empty((first.size, cols.size + 1), dtype=np.float64)
        rows[:, 0] = ready[first]
        rows[:, 1:] = np.where(inside, service[np.minimum(pos, n - 1)], 0.0)
        np.cumsum(rows, axis=1, out=rows)
        done[pos[inside]] = rows[:, 1:][inside]
    return done


def _scalar_steps(
    ready: np.ndarray,
    service: np.ndarray,
    done: np.ndarray,
    accepted: np.ndarray,
    a: int,
    f: int,
    end: int,
    cap: int,
) -> int:
    """Serve packets ``f, f+1, ...`` one at a time, in place.

    ``done[a:f]`` are the exact departures of the accepted packets since
    regeneration point ``a``.  Packets are served until the next
    regeneration point or ``end`` (a drop-free busy-period start, itself
    one), whose index is returned; ``done`` and ``accepted`` are filled
    for the packets served.
    """
    live = done[a + int(np.searchsorted(done[a:f], ready[f], side="right")):f]
    # Completion times of packets still "in the system" relative to a
    # candidate arrival form a sliding window; track them in a ring buffer.
    in_system = deque(live.tolist())
    last_done = in_system[-1]
    served = []
    dropped = []
    stop = end
    s_list = service[f:end].tolist()
    for j, t in enumerate(ready[f:end].tolist()):
        if t >= last_done:
            stop = f + j  # the queue has drained: regeneration point
            break
        # t < last_done, so the newest entry is never popped.
        while in_system[0] <= t:
            in_system.popleft()
        if len(in_system) >= cap:
            dropped.append(j)
            continue  # tail drop
        last_done += s_list[j]  # start = last_done since t < last_done
        in_system.append(last_done)
        served.append(last_done)
    accepted[f + np.asarray(dropped, dtype=np.intp)] = False
    done[f:stop][accepted[f:stop]] = served
    return stop
