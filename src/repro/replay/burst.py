"""Burstification: how a forwarding loop groups packets into bursts.

A DPDK forwarding loop alternates ``rx_burst`` → process → ``tx_burst``;
every packet that arrived while the loop was busy with the previous burst
is picked up together, up to the 64-packet burst limit Choir uses
(Section 5).  Burst boundaries are therefore a function of the arrival
process and the loop's per-iteration cost — and they matter enormously
downstream: packets inside one burst leave back-to-back (highly repeatable
IATs), while inter-burst gaps absorb all the scheduling jitter.  The
paper's "majority within 10 ns" IAT clusters are exactly the intra-burst
packets.

:func:`burstify_poll_loop` reproduces the loop's grouping: given arrival
times and a loop-cost model, it assigns each packet a burst id.  The loop
is sequential by nature (the next poll time depends on the previous
burst's size), but it iterates per *burst*, not per packet, so even a
million-packet trial only loops tens of thousands of times.  Each
iteration is a few Python float operations and one ``bisect`` over the
arrival list, searched from the burst's first packet; the ids are built
once, from the burst starts, at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["PollLoopCost", "burstify_poll_loop", "burstify_fixed", "burst_bounds"]

#: Choir's compiled-in burst ceiling (Section 5).
MAX_BURST = 64


@dataclass(frozen=True)
class PollLoopCost:
    """Per-iteration cost model of the forwarding loop.

    ``iteration_ns`` is the fixed poll overhead (ring doorbells, TSC read,
    branch); ``per_packet_ns`` the marginal cost of handling one packet
    (prefetch, record bookkeeping, tx enqueue).
    """

    iteration_ns: float = 250.0
    per_packet_ns: float = 55.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.iteration_ns, self.per_packet_ns))):
            raise ValueError("iteration_ns and per_packet_ns must be finite")
        if self.iteration_ns <= 0:
            raise ValueError("iteration_ns must be positive")
        if self.per_packet_ns < 0:
            raise ValueError("per_packet_ns must be non-negative")

    def burst_cost_ns(self, n_packets: int) -> float:
        """Wall time one loop iteration spends on an ``n_packets`` burst."""
        return self.iteration_ns + self.per_packet_ns * n_packets


def burstify_poll_loop(
    arrival_ns: np.ndarray,
    cost: PollLoopCost | None = None,
    max_burst: int = MAX_BURST,
) -> np.ndarray:
    """Assign burst ids by simulating the poll loop's pickup pattern.

    The loop polls; every packet already waiting (arrival ≤ poll time) is
    taken, capped at ``max_burst``; the next poll happens after the burst's
    processing cost.  When the queue is empty the loop spins at the
    iteration cost until the next arrival.

    Returns an int64 array of non-decreasing burst ids, one per packet.
    Raises ``ValueError`` for unsorted or non-finite arrival times.
    """
    starts, sizes = _poll_loop_bursts(arrival_ns, cost, max_burst)
    return np.repeat(np.arange(starts.shape[0], dtype=np.int64), sizes)


def _poll_loop_bursts(
    arrival_ns: np.ndarray,
    cost: PollLoopCost | None = None,
    max_burst: int = MAX_BURST,
) -> tuple[np.ndarray, np.ndarray]:
    """(first packet index, packet count) of each poll-loop burst, as int64."""
    cost = cost if cost is not None else PollLoopCost()
    if max_burst < 1:
        raise ValueError("max_burst must be >= 1")
    t = np.asarray(arrival_ns, dtype=np.float64)
    n = t.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if not np.all(np.isfinite(t)):
        raise ValueError("arrival times must be finite")
    if np.any(t[1:] < t[:-1]):
        raise ValueError("arrival times must be non-decreasing")

    tl = t.tolist()
    iteration = cost.iteration_ns
    per_packet = cost.per_packet_ns
    starts = []
    i = 0
    # Poll time starts at the first arrival (the loop was idle-spinning).
    poll = tl[0] + iteration
    try:
        while i < n:
            if tl[i] > poll:
                # Idle: loop spins; next poll lands one iteration after the
                # arrival-containing spin tick.  The sub-iteration phase is
                # deterministic here; scheduling noise is injected later by
                # the replayer model, not by burstification.
                poll = poll + math.ceil((tl[i] - poll) / iteration) * iteration
            # Take everything waiting, up to the cap.  Every packet before
            # ``i`` arrived by ``poll``, so the search can start at ``i``.
            j = bisect_right(tl, poll, i)
            if j > i + max_burst:
                j = i + max_burst
            starts.append(i)
            poll += iteration + per_packet * (j - i)
            i = j
    except OverflowError:
        raise ValueError(
            "idle gap overflows when counted in iteration_ns spins"
        ) from None
    first = np.array(starts, dtype=np.int64)
    return first, np.diff(first, append=n)


def burstify_fixed(n_packets: int, burst_size: int) -> np.ndarray:
    """Fixed-size burst ids (ablation baseline; real loops never do this)."""
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    return np.arange(n_packets, dtype=np.int64) // burst_size


def burst_bounds(burst_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) packet index of each burst; ids must be non-decreasing."""
    ids = np.asarray(burst_ids)
    if ids.shape[0] == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    change = np.flatnonzero(np.diff(ids)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [ids.shape[0]]])
    return starts.astype(np.intp), ends.astype(np.intp)
