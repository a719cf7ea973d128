"""Shared-memory transport of packet arrays between pool processes.

Pool workers never pickle packet payloads: the parent copies each NumPy
array (tags, timestamps, recordings) once into a POSIX shared-memory
segment and ships only a tiny :class:`ArraySpec` handle — segment name,
shape, dtype — through the process pool.  Workers attach a zero-copy
view, compute, optionally write results into a shared *output* buffer
the parent allocated, and detach.  For a paper-scale trial (~1M packets,
8 MB of timestamps) this turns per-task IPC from megabytes of pickle into
a few hundred bytes.  Serial (``jobs=1``) paths never build an arena.

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
from dataclasses import dataclass, field
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

    ``share`` copies an existing array in; ``allocate`` creates a zeroed
    writable buffer (for worker outputs).  The arena owns its segments:
    :meth:`close` (or the context manager) closes and unlinks them all,
    after which worker views are invalid.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._views: dict[str, np.ndarray] = {}

    # -- construction ----------------------------------------------------
    def share(self, array: np.ndarray) -> ArraySpec:
        """Copy ``array`` into a fresh segment; return its spec."""
        array = np.ascontiguousarray(array)
        spec, view = self._new(array.shape, array.dtype)
        if view is not None:
            view[...] = array
        return spec

    def allocate(self, n: int, dtype=np.float64) -> tuple[ArraySpec, np.ndarray]:
        """A zero-initialized writable buffer of ``n`` elements.

        Returns the spec to ship to workers and the parent's view of the
        same memory (workers write their results; the parent reads them).
        """
        spec, view = self._new((int(n),), np.dtype(dtype))
        if view is None:
            return spec, np.zeros(int(n), dtype=dtype)
        view[...] = 0
        return spec, view

    def _new(self, shape, dtype) -> tuple[ArraySpec, np.ndarray | None]:
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        # Zero-length arrays cannot back a segment; the spec alone
        # describes them.
        if nbytes == 0:
            return ArraySpec(tuple(shape), dtype.str), None
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(seg)
        metrics.counter("shm.segments").add()
        metrics.counter("shm.bytes_shared").add(nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        self._views[seg.name] = view
        return ArraySpec(tuple(shape), dtype.str, shm_name=seg.name), view

    # -- parent-side access ----------------------------------------------
    def view(self, spec: ArraySpec) -> np.ndarray:
        """The parent's view of a spec created by this arena."""
        if spec.shm_name is None:
            return np.empty(spec.shape, dtype=np.dtype(spec.dtype))
        return self._views[spec.shm_name]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close and unlink every segment this arena created."""
        self._views.clear()
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
