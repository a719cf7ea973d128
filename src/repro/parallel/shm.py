"""Shared-memory transport of the whole-pair fan-out's packet arrays.

The whole-pair fan-out (:mod:`repro.parallel.engine`) is the one user:
the parent copies each trial's tag and timestamp arrays once into a
POSIX shared-memory segment and ships only a tiny :class:`ArraySpec`
handle — segment name, shape, dtype — through the process pool.  Workers
attach a zero-copy view, compute, and detach.  The baseline trial is
shared once for every pair, so for a paper-scale series (~1M packets,
8 MB of timestamps per trial) this saves one baseline pickle per task.
Replay runs and sweep units pickle instead, which measured as fast or
faster (``docs/parallel.md``).  Serial (``jobs=1``) paths never build an
arena.

Ownership note: the parent's arena is the sole owner of every segment it
creates.  CPython < 3.13 also registers *attached* segments with the
``resource_tracker`` (bpo-39959); under the ``fork`` and ``forkserver``
start methods workers share the parent's tracker daemon (the forkserver
starts the tracker before it launches, so its children inherit the fd),
so that duplicate registration is a harmless set-add and must be left
alone — unregistering from a worker would erase the parent's own
registration.  Under ``spawn`` each worker has a private tracker that
would unlink the parent's segments at worker exit, so there the
attachment is unregistered (or, on 3.13+, never tracked via
``track=False``).
"""

from __future__ import annotations

import inspect
import multiprocessing
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..obs import metrics

__all__ = ["ArraySpec", "ShmArena", "attach_view", "detach_all"]


@dataclass(frozen=True)
class ArraySpec:
    """A pickle-light handle to a 1-D array for worker tasks.

    ``shm_name`` names the shared-memory segment holding the data; it is
    ``None`` only for zero-length arrays, which need no segment.
    """

    shape: tuple[int, ...]
    dtype: str
    shm_name: str | None = None


class ShmArena:
    """Parent-side owner of the shared-memory segments of one fan-out.

    ``share`` copies an array in.  The arena owns its segments:
    :meth:`close` (or the context manager) closes and unlinks them all,
    after which worker views are invalid.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def share(self, array: np.ndarray) -> ArraySpec:
        """Copy ``array`` into a fresh segment; return its spec."""
        array = np.ascontiguousarray(array)
        # Zero-length arrays cannot back a segment; the spec alone
        # describes them.
        if array.nbytes == 0:
            return ArraySpec(array.shape, array.dtype.str)
        seg = shared_memory.SharedMemory(create=True, size=array.nbytes)
        self._segments.append(seg)
        metrics.counter("shm.segments").add()
        metrics.counter("shm.bytes_shared").add(array.nbytes)
        np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)[...] = array
        return ArraySpec(array.shape, array.dtype.str, shm_name=seg.name)

    def close(self) -> None:
        """Close and unlink every segment this arena created."""
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_view(spec: ArraySpec, attachments: dict) -> np.ndarray:
    """Worker-side: resolve a spec to an ndarray view.

    Shared-memory handles are cached in ``attachments`` (name →
    ``SharedMemory``) so several arrays of one task can be resolved and
    later released together with :func:`detach_all`.  The view is only
    valid until then.
    """
    if spec.shm_name is None:
        return np.empty(spec.shape, dtype=np.dtype(spec.dtype))
    seg = attachments.get(spec.shm_name)
    if seg is None:
        seg = _attach_segment(spec.shm_name)
        attachments[spec.shm_name] = seg
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)


#: 3.13+ can attach without touching the resource tracker at all.
_HAS_TRACK_KW = "track" in inspect.signature(shared_memory.SharedMemory.__init__).parameters


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without stealing its ownership."""
    if _HAS_TRACK_KW:
        return shared_memory.SharedMemory(name=name, track=False)
    seg = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() == "spawn":
        # Private tracker (spawn): drop the attach-side registration so a
        # worker exit cannot unlink the parent's segment.  Under fork *and*
        # forkserver the tracker is shared and the registration is the
        # parent's — leave it.
        try:
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
    return seg


def detach_all(attachments: dict) -> None:
    """Worker-side: release every attachment of one task (views die here)."""
    for seg in attachments.values():
        seg.close()
    attachments.clear()
