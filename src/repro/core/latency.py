"""The latency-variation metric ``L`` (Equation 3).

For each common packet ``p_i`` with positions ``j`` in A and ``k`` in B,
its relative latencies are ``l_Ai = t_Aj − t_A0`` and ``l_Bi = t_Bk − t_B0``
(arrival time minus the trial's first arrival).  The numerator is the
cumulative latency deviation used by GapReplay:

.. math::

    \\sum_i \\, \\mathrm{abs}(l_{Ai} - l_{Bi})

The paper's contribution is the normalizer: the maximum possible value
occurs when all common packets arrive at one end of A and the opposite end
of B (Figure 2), bounding each term by
``max(t_{B|B|} − t_{A0},\\ t_{A|A|} − t_{B0})``, hence

.. math::

    L_{AB} = \\frac{\\sum_i \\mathrm{abs}(l_{Ai} - l_{Bi})}
                  {|A \\cap B| \\cdot \\max(t_{B|B|} - t_{A0},\\ t_{A|A|} - t_{B0})}

Note the normalizer uses *absolute* trial endpoints, so trials must be
timestamped on a comparable clock (the recorder's clock in the paper's
setup, PTP-disciplined across nodes).

**Erratum-level extension.**  As printed, the denominator is not a true
supremum: when one trial nests strictly inside the other's time span
(e.g. A = {p₀@0, p₁@2}, B = {p₁@1}), a common packet's relative-latency
difference can reach ``max(span_A, span_B)``, which exceeds both cross
spans, and Equation 3 evaluates above 1.  Property-based testing surfaced
the counterexample.  We therefore take

.. math::

    \\max(t_{B|B|} - t_{A0},\\ t_{A|A|} - t_{B0},\\ \\mathrm{span}_A,\\ \\mathrm{span}_B)

which equals the paper's value whenever the trials overlap (the paper's
aligned-capture regime — each capture starts at its replay epoch) and
restores the [0, 1] guarantee in general.
"""

from __future__ import annotations

import numpy as np

from .matching import Matching, match_trials
from .trial import Trial

__all__ = [
    "latency_deltas_ns",
    "latency_span_ns",
    "latency_from_deltas",
    "latency_from_matching",
    "latency_variation",
    "max_latency_construction",
]


def latency_deltas_ns(a: Trial, b: Trial, matching: Matching | None = None) -> np.ndarray:
    """Signed per-packet latency deltas ``l_B − l_A`` for common packets.

    These are the series plotted in the paper's latency-delta histograms
    (Figures 4b, 6b, 7b, 8b, 10b).  Order follows A's arrival order.
    """
    m = matching if matching is not None else match_trials(a, b)
    if m.n_common == 0:
        return np.empty(0, dtype=np.float64)
    l_a = a.times_ns[m.idx_a] - a.times_ns[0]
    l_b = b.times_ns[m.idx_b] - b.times_ns[0]
    return l_b - l_a


def latency_span_ns(a: Trial, b: Trial) -> float:
    """The Equation 3 normalizing span (extended with per-trial spans).

    Paper denominator extended with the per-trial spans — identical in
    the aligned-capture regime, a true bound in general (module docs).
    Both trials must be non-empty.
    """
    return max(
        b.end_ns - a.start_ns,
        a.end_ns - b.start_ns,
        a.duration_ns,
        b.duration_ns,
    )


def latency_from_deltas(deltas: np.ndarray, n_common: int, span_ns: float) -> float:
    """Equation 3 from precomputed signed latency deltas and the span.

    The single reduction the batch, fused and streaming paths all run on
    the same delta array, so they are bit-identical.
    """
    if n_common == 0:
        return 0.0
    if span_ns <= 0.0:
        # All common packets are simultaneous: either both trials are a
        # single instant (zero deviation) or the data is degenerate; in both
        # cases there is no latency inconsistency to report.
        return 0.0
    return float(np.abs(deltas).sum() / (n_common * span_ns))


def latency_from_matching(a: Trial, b: Trial, m: Matching) -> float:
    """Equation 3 from a precomputed matching."""
    if m.n_common == 0:
        return 0.0
    deltas = latency_deltas_ns(a, b, matching=m)
    return latency_from_deltas(deltas, m.n_common, latency_span_ns(a, b))


def latency_variation(a: Trial, b: Trial) -> float:
    """Equation 3: normalized variation in latency (jitter) between trials."""
    return latency_from_matching(a, b, match_trials(a, b))


def max_latency_construction(n: int, span_ns: float = 1e6) -> tuple[Trial, Trial]:
    """Build the Figure 2 worst case, where ``L`` attains exactly 1.

    The common packets arrive at the very *end* of trial A but the very
    *start* of trial B; a non-common marker packet pins the opposite end of
    each trial so both trials span ``span_ns``.  Every common packet then
    has relative latency ``span_ns`` in A and 0 in B, and the normalizer
    ``max(t_{B|B|} − t_{A0}, t_{A|A|} − t_{B0})`` equals ``span_ns``, so
    ``L = 1``.  The property tests use this to validate that the bound is
    attained and never exceeded.

    Returns the two trials (A, B) with ``n`` common packets each plus one
    marker packet.
    """
    if n < 1:
        raise ValueError("need at least one common packet")
    if span_ns <= 0:
        raise ValueError("span_ns must be positive")
    tags = np.arange(n, dtype=np.int64)
    marker_a, marker_b = np.int64(-1), np.int64(-2)
    a = Trial(
        np.concatenate([[marker_a], tags]),
        np.concatenate([[0.0], np.full(n, span_ns)]),
        label="maxL-A",
    )
    b = Trial(
        np.concatenate([tags, [marker_b]]),
        np.concatenate([np.zeros(n), [span_ns]]),
        label="maxL-B",
    )
    return a, b
