"""The :class:`Trial` record type used by all Section-3 metrics.

A *trial* in the paper is "a sequence of packets received by a receiver".
Each packet carries a unique identifier (the paper stamps a 16-byte trailer
tag in the replayer — see :mod:`repro.analysis.tagging`) and a receive
timestamp.  The metric layer never needs packet payloads: everything in
Section 3 is a function of ``(tag sequence, timestamp sequence)``.

The data layout is structure-of-arrays (one int64 tag array, one float64
timestamp array) so that all metric computations stay vectorized, per the
HPC guidance this project follows.  Index order *is* arrival order;
timestamps are non-decreasing along it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trial", "as_tags"]


def as_tags(values) -> np.ndarray:
    """``values`` as a contiguous int64 tag array, converted exactly.

    Raises ``ValueError`` unless the int64 conversion round-trips (integral
    floats are fine): truncating ``1.2`` to ``1``, or wrapping a ``uint64``
    of ``2**63`` to ``-2**63``, would make a packet match another's tag.
    """
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return np.ascontiguousarray(arr)
    try:
        with np.errstate(invalid="ignore"):
            tags = np.ascontiguousarray(arr, dtype=np.int64)
        exact = np.all(tags == arr)
    except OverflowError:
        exact = False
    if arr.dtype.kind == "f" and exact:
        exact = bool(np.all((arr >= -(2.0**63)) & (arr < 2.0**63)))
    if not exact:
        raise ValueError("tags must convert to int64 exactly")
    return tags


@dataclass(frozen=True, eq=False)
class Trial:
    """An ordered sequence of received packets.

    Parameters
    ----------
    tags:
        int64 array of per-packet identifiers.  Tags need not be unique:
        duplicate payloads are permitted and are disambiguated by occurrence
        rank during matching (see :func:`repro.core.matching.match_trials`),
        exactly as Section 3 describes ("where packets are completely
        identical in data, they can be tagged with their occurrence").
    times_ns:
        float64 array of receive timestamps in nanoseconds, non-decreasing.
    label:
        Optional human-readable run label, e.g. ``"A"`` or ``"run-3"``.
    meta:
        Free-form metadata (environment name, rate, replayer count, ...).
    """

    tags: np.ndarray
    times_ns: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict)
    #: The matching index of this trial as a baseline
    #: (:class:`repro.core.matching.BaselineIndex`), built on first use;
    #: never compared and never pickled.
    _match_index: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        tags = as_tags(self.tags)
        times = np.ascontiguousarray(self.times_ns, dtype=np.float64)
        if tags.ndim != 1 or times.ndim != 1:
            raise ValueError("tags and times_ns must be one-dimensional")
        if tags.shape[0] != times.shape[0]:
            raise ValueError(
                f"tags ({tags.shape[0]}) and times_ns ({times.shape[0]}) "
                "must have equal length"
            )
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError(
                "times_ns must be non-decreasing: a trial is the sequence of "
                "packets in arrival order"
            )
        if times.size and not np.all(np.isfinite(times)):
            raise ValueError("times_ns must be finite")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "times_ns", times)

    def __eq__(self, other: object) -> bool:
        """Same label and the same packets: equal tags and times, in order.

        ``meta`` and the cached matching index are not compared.
        """
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.tags, other.tags)
            and np.array_equal(self.times_ns, other.times_ns)
        )

    #: Trials hold mutable arrays, so they are unhashable.
    __hash__ = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_match_index", None)
        return state

    def __len__(self) -> int:
        return int(self.tags.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when the trial contains no packets."""
        return len(self) == 0

    @property
    def start_ns(self) -> float:
        """Arrival time of the first packet (``t_X0`` in the paper)."""
        if self.is_empty:
            raise ValueError("empty trial has no start time")
        return float(self.times_ns[0])

    @property
    def end_ns(self) -> float:
        """Arrival time of the last packet (``t_X|X|`` in the paper)."""
        if self.is_empty:
            raise ValueError("empty trial has no end time")
        return float(self.times_ns[-1])

    @property
    def duration_ns(self) -> float:
        """Span from first to last arrival, in nanoseconds."""
        return self.end_ns - self.start_ns

    # ------------------------------------------------------------------
    # Derived per-packet series used by the metrics
    # ------------------------------------------------------------------
    def relative_times_ns(self) -> np.ndarray:
        """Arrival times relative to the trial start (``l`` in Eq. 3)."""
        if self.is_empty:
            return np.empty(0, dtype=np.float64)
        return self.times_ns - self.times_ns[0]

    def iats_ns(self) -> np.ndarray:
        """Per-packet inter-arrival gaps (``g`` in Eq. 4).

        The paper defines the base case ``t_X0 = t_X(-1)`` so the first
        packet's gap is zero; the returned array has the same length as the
        trial with element 0 equal to 0.
        """
        if self.is_empty:
            return np.empty(0, dtype=np.float64)
        gaps = np.empty(len(self), dtype=np.float64)
        gaps[0] = 0.0
        np.subtract(self.times_ns[1:], self.times_ns[:-1], out=gaps[1:])
        return gaps

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrival_events(
        cls,
        tags: np.ndarray,
        times_ns: np.ndarray,
        label: str = "",
        meta: dict | None = None,
    ) -> "Trial":
        """Build a trial from unordered arrival events.

        Events are sorted by timestamp; ties keep the input order
        (stable sort), matching how a receiver that timestamps on a shared
        clock would enqueue simultaneous arrivals.
        """
        tags = as_tags(tags)
        times_ns = np.asarray(times_ns, dtype=np.float64)
        order = np.argsort(times_ns, kind="stable")
        return cls(tags[order], times_ns[order], label=label, meta=dict(meta or {}))

    def relabel(self, label: str) -> "Trial":
        """Return the same trial under a new label (arrays are shared)."""
        return Trial(self.tags, self.times_ns, label=label, meta=dict(self.meta))

    def head(self, n: int) -> "Trial":
        """First ``n`` packets as a new trial (arrays are views)."""
        return Trial(self.tags[:n], self.times_ns[:n], label=self.label, meta=dict(self.meta))

    def drop_packets(self, indices) -> "Trial":
        """Return a trial with the packets at ``indices`` removed."""
        mask = np.ones(len(self), dtype=bool)
        mask[np.asarray(indices, dtype=np.intp)] = False
        return Trial(
            self.tags[mask], self.times_ns[mask], label=self.label, meta=dict(self.meta)
        )

    def shift_ns(self, delta_ns: float) -> "Trial":
        """Return a trial with every timestamp shifted by ``delta_ns``."""
        return Trial(
            self.tags, self.times_ns + float(delta_ns), label=self.label, meta=dict(self.meta)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.label!r}" if self.label else ""
        if self.is_empty:
            return f"Trial{name}(empty)"
        return (
            f"Trial{name}({len(self)} pkts, "
            f"{self.duration_ns / 1e6:.3f} ms span)"
        )
