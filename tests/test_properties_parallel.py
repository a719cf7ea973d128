"""Properties of the shared-memory transport of :mod:`repro.parallel`.

:class:`~repro.parallel.shm.ShmArena` is how the whole-pair fan-out's
packet arrays reach pool workers.  A segment holds a copy, not a
reference; zero-length arrays need no segment.  Segments are read here
the way a worker reads them, through :func:`~repro.parallel.shm.attach_view`.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.shm import ShmArena, attach_view, detach_all


class TestShmArena:
    def test_roundtrip_and_isolation(self):
        rng = np.random.default_rng(55)
        data = rng.normal(size=257)
        attachments: dict = {}
        with ShmArena() as arena:
            spec = arena.share(data)
            view = attach_view(spec, attachments)
            assert np.array_equal(view, data)
            data[0] += 1.0  # the segment holds a copy, not a reference
            assert view[0] != data[0]
            del view
            detach_all(attachments)

    def test_zero_length_is_inline(self):
        with ShmArena() as arena:
            spec = arena.share(np.empty(0, dtype=np.float64))
            assert spec.shm_name is None
            assert attach_view(spec, {}).size == 0
