"""Structure-of-arrays packet batches.

All bulk packet state in the simulator lives in :class:`PacketArray`:
parallel NumPy arrays of tags, sizes, and timestamps.  Per-packet Python
objects never appear on a hot path (a paper-scale trial is ~1M packets and
traverses half a dozen pipeline stages), following the vectorization
guidance this project builds to.

The meaning of :attr:`times_ns` is positional: each pipeline stage
consumes the times at which packets become available to it and produces
the times at which they leave it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PacketArray", "make_tags"]


def make_tags(n: int, *, replayer_id: int = 0, start: int = 0) -> np.ndarray:
    """Unique int64 tags encoding a replayer id in the high bits.

    Mirrors the paper's 16-byte trailer tags "which included the replay
    node they were emitted by" (Section 6): the replayer id occupies bits
    48+, the sequence number the low 48 bits, so tags from different
    replayers never collide and the emitting node is recoverable with
    :func:`repro.analysis.tagging.split_tag`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= replayer_id < 2**15:
        raise ValueError("replayer_id must fit in 15 bits")
    if start < 0 or start + n > 2**48:
        raise ValueError("sequence range must fit in 48 bits")
    return (np.int64(replayer_id) << np.int64(48)) + np.arange(
        start, start + n, dtype=np.int64
    )


@dataclass(frozen=True)
class PacketArray:
    """A batch of packets as parallel arrays.

    Parameters
    ----------
    tags:
        int64 unique-ish identifiers (see :func:`make_tags`).
    sizes:
        int64 L2 frame sizes in bytes.
    times_ns:
        float64 stage-relative timestamps, non-decreasing.
    """

    tags: np.ndarray
    sizes: np.ndarray
    times_ns: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        tags = np.ascontiguousarray(self.tags, dtype=np.int64)
        sizes = np.ascontiguousarray(self.sizes, dtype=np.int64)
        times = np.ascontiguousarray(self.times_ns, dtype=np.float64)
        n = tags.shape[0]
        if sizes.shape != (n,) or times.shape != (n,):
            raise ValueError("tags, sizes and times_ns must be 1-D and equal length")
        if n and sizes.min() <= 0:
            raise ValueError("packet sizes must be positive")
        if n and np.any(np.diff(times) < 0):
            raise ValueError("times_ns must be non-decreasing within a batch")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "times_ns", times)

    def __len__(self) -> int:
        return int(self.tags.shape[0])

    @classmethod
    def uniform(
        cls,
        n: int,
        size_bytes: int,
        times_ns: np.ndarray,
        *,
        replayer_id: int = 0,
        meta: dict | None = None,
    ) -> "PacketArray":
        """A batch of ``n`` equal-sized packets at the given times."""
        return cls(
            make_tags(n, replayer_id=replayer_id),
            np.full(n, size_bytes, dtype=np.int64),
            np.asarray(times_ns, dtype=np.float64),
            meta=dict(meta or {}),
        )

    def with_times(self, times_ns: np.ndarray) -> "PacketArray":
        """Same packets with new timestamps (the per-stage transform)."""
        return PacketArray(self.tags, self.sizes, times_ns, meta=dict(self.meta))

    def select(self, mask_or_idx) -> "PacketArray":
        """Subset of packets, preserving order (used for drops/filters)."""
        return PacketArray(
            self.tags[mask_or_idx],
            self.sizes[mask_or_idx],
            self.times_ns[mask_or_idx],
            meta=dict(self.meta),
        )

    @staticmethod
    def merge(batches: list["PacketArray"]) -> tuple["PacketArray", np.ndarray]:
        """Time-merge several batches into one arrival-ordered batch.

        Returns the merged batch and an int array identifying, per merged
        packet, which input batch it came from (for later extraction).
        Stable under ties: earlier-listed batches win, matching a
        round-robin arbiter's bias toward its first port.  A single batch
        is already in order: it comes back as a new batch (no ``meta``)
        without a sort.
        """
        if not batches:
            return PacketArray(
                np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
            ), np.empty(0, np.int64)
        if len(batches) == 1:
            (b,) = batches
            return PacketArray(b.tags, b.sizes, b.times_ns), np.zeros(len(b), np.int64)
        tags = np.concatenate([b.tags for b in batches])
        sizes = np.concatenate([b.sizes for b in batches])
        times = np.concatenate([b.times_ns for b in batches])
        source = np.concatenate(
            [np.full(len(b), i, dtype=np.int64) for i, b in enumerate(batches)]
        )
        order = np.argsort(times, kind="stable")
        return (
            PacketArray(tags[order], sizes[order], times[order]),
            source[order],
        )

    @property
    def total_bytes(self) -> int:
        """Sum of frame sizes."""
        return int(self.sizes.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) == 0:
            return "PacketArray(empty)"
        return (
            f"PacketArray({len(self)} pkts, {self.total_bytes} B, "
            f"[{self.times_ns[0]:.0f}..{self.times_ns[-1]:.0f}] ns)"
        )
