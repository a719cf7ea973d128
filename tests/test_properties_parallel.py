"""Properties of the shared-memory transport of :mod:`repro.parallel`.

:class:`~repro.parallel.ShmArena` is the one way packet arrays reach pool
workers (sweep units, replay runs, whole pairs).  A segment holds a copy,
not a reference; zero-length arrays need no segment; allocated output
buffers start zeroed and are visible through the parent's view.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import ShmArena


class TestShmArena:
    def test_roundtrip_and_isolation(self):
        rng = np.random.default_rng(55)
        data = rng.normal(size=257)
        with ShmArena() as arena:
            spec = arena.share(data)
            view = arena.view(spec)
            assert np.array_equal(view, data)
            data[0] += 1.0  # the segment holds a copy, not a reference
            assert view[0] != data[0]

    def test_zero_length_is_inline(self):
        with ShmArena() as arena:
            spec = arena.share(np.empty(0, dtype=np.float64))
            assert spec.shm_name is None
            assert arena.view(spec).size == 0

    def test_allocate_zeroed_buffer(self):
        with ShmArena() as arena:
            spec, buf = arena.allocate(64)
            assert buf.shape == (64,) and not buf.any()
            buf[:] = 3.5
            assert np.array_equal(arena.view(spec), np.full(64, 3.5))
