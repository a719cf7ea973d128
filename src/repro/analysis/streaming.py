"""Streaming (chunked) computation of the timing metrics.

Paper-scale captures fit in memory comfortably, but the artifact notes
analysis time "scales with the length of the packet captures"; captures
from long rolling recordings (hours of 100 Gbps traffic) would not fit.
This module computes the **L and I numerators and denominators in
constant memory** by scanning two aligned capture streams chunk by chunk.

What streams and what doesn't, *in this module's two-unknown-streams
regime* (neither capture is held in memory):

* ``U``: streamable here under the *aligned-captures* precondition below
  (counting common packets).
* ``L``, ``I``: fully streamable — they depend only on per-packet values
  and trial endpoints, both of which accumulate.
* ``O``: not streamable *here* — the LCS is a global property of the
  whole permutation (any chunking bound can be violated by a single
  far-moved packet).  :class:`StreamingComparison` does not *compute* O;
  instead its alignment check **guarantees** O = 0 (aligned captures are
  the identity permutation), so it reports the exact float ``0.0``.

With a **known baseline**, however, O *does* stream: when trial A is
fully in memory (the paper's protocol — one recorded baseline, many
repeats compared against it) each arriving B packet's matching key and
A-position are final on arrival, and the serial patience loop
(:func:`repro.core.ordering.patience_fill`), resumed chunk by chunk,
keeps the exact serial patience-LIS state live at every chunk boundary.
:class:`repro.analysis.streamkappa.StreamKappa` implements that path —
all four components, bit-identical to the batch metrics on misordered and
droppy streams alike (``docs/streaming.md`` has the argument).  This
module's aligned-only fast path remains the right tool when *neither*
capture fits in memory and you only need timing consistency.

This follows the :class:`~repro.core.kappa.MetricVector` contract shared
by every comparison path (batch, streaming, parallel): components are
always concrete finite floats in [0, 1] — never ``None`` — and a path that
cannot compute a component must either guarantee its value by a checked
precondition (as here) or raise.  Consumers can therefore always combine,
average and render vectors from any path interchangeably.
``tests/test_metric_contract.py`` pins this for all three paths.

Precondition: the two captures must be *packet-aligned* — same packets in
the same order (the quiet-environment regime where U = O = 0, which is
where huge captures arise: nothing interesting happened, you just want
the timing consistency).  Misalignment is detected chunk-by-chunk via tag
comparison and raises rather than producing silently wrong numbers;
misordered/droppy captures need the batch path.
"""

from __future__ import annotations

import numpy as np

from ..core.kappa import MetricVector
from ..core.trial import Trial

__all__ = ["StreamingComparison", "stream_compare"]


class StreamingComparison:
    """Accumulates L and I over aligned capture chunks.

    Feed matching chunks of runs A and B via :meth:`update`; call
    :meth:`result` at end of stream.  Memory use is O(chunk), not O(capture).
    """

    def __init__(self) -> None:
        self._n = 0
        self._sum_abs_dl = 0.0
        self._sum_abs_dg = 0.0
        self._first_a: float | None = None
        self._first_b: float | None = None
        self._last_a = 0.0
        self._last_b = 0.0
        self._finalized = False

    def update(self, tags_a, times_a, tags_b, times_b) -> None:
        """Consume one aligned chunk from each capture."""
        tags_a = np.asarray(tags_a, dtype=np.int64)
        tags_b = np.asarray(tags_b, dtype=np.int64)
        a = np.asarray(times_a, dtype=np.float64)
        b = np.asarray(times_b, dtype=np.float64)
        if tags_a.shape != tags_b.shape or a.shape != b.shape or a.shape != tags_a.shape:
            raise ValueError("chunks must be equal-length and aligned")
        if not np.array_equal(tags_a, tags_b):
            raise ValueError(
                "captures are not packet-aligned; streaming comparison "
                "requires the U = O = 0 regime — use compare_trials instead"
            )
        if a.size == 0:
            return
        if self._first_a is None:
            self._first_a = float(a[0])
            self._first_b = float(b[0])
            prev_a, prev_b = float(a[0]), float(b[0])
        else:
            prev_a, prev_b = self._last_a, self._last_b

        # Latency deltas need only the first-packet anchors.
        dl = (b - self._first_b) - (a - self._first_a)
        self._sum_abs_dl += float(np.abs(dl).sum())

        # IAT deltas need one packet of carry across the chunk boundary.
        g_a = np.diff(a, prepend=prev_a)
        g_b = np.diff(b, prepend=prev_b)
        if self._n == 0:
            g_a[0] = 0.0  # the paper's base case: first packet has g = 0
            g_b[0] = 0.0
        self._sum_abs_dg += float(np.abs(g_b - g_a).sum())

        self._last_a = float(a[-1])
        self._last_b = float(b[-1])
        self._n += int(a.size)

    def result(self) -> MetricVector:
        """The metric vector under the shared all-floats contract.

        U and O are the exact float ``0.0``: the chunk-by-chunk alignment
        check made them true by construction, not unknown.  The κ of the
        returned vector is therefore the plain Equation 5, numerically
        equal to the "O-less" κ an aligned-capture regime implies.
        """
        if self._n == 0:
            return MetricVector(0.0, 0.0, 0.0, 0.0)
        span = max(
            self._last_b - self._first_a,
            self._last_a - self._first_b,
            self._last_a - self._first_a,
            self._last_b - self._first_b,
        )
        l_val = self._sum_abs_dl / (self._n * span) if span > 0 else 0.0
        denom = (self._last_a - self._first_a) + (self._last_b - self._first_b)
        i_val = self._sum_abs_dg / denom if denom > 0 else 0.0
        return MetricVector(0.0, 0.0, l_val, i_val)

    @property
    def n_packets(self) -> int:
        """Packets consumed so far."""
        return self._n


def stream_compare(a: Trial, b: Trial, chunk: int = 65536) -> MetricVector:
    """Streaming comparison of two in-memory trials (testing/validation).

    Produces bit-identical L and I to the batch path on aligned captures;
    mainly exists so the equivalence is testable, and as the reference
    for wiring :class:`StreamingComparison` to real chunked readers.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if len(a) != len(b):
        raise ValueError("streaming comparison requires aligned captures")
    sc = StreamingComparison()
    for lo in range(0, len(a), chunk):
        hi = lo + chunk
        sc.update(a.tags[lo:hi], a.times_ns[lo:hi], b.tags[lo:hi], b.times_ns[lo:hi])
    return sc.result()
