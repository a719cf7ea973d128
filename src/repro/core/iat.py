"""The inter-arrival-time variation metric ``I`` (Equation 4).

For a common packet ``p_i`` at positions ``j`` in A and ``k`` in B, its
inter-arrival gaps are taken against the *preceding packet of the full
trial* (common or not): ``g_Ai = t_Aj − t_A(j−1)`` and
``g_Bi = t_Bk − t_B(k−1)``, with the base case ``t_X0 = t_X(−1)`` so the
first packet's gap is 0.  The numerator is GapReplay's "IAT deviation";
the paper adds the normalizer derived from the Figure 3 construction —
the total IAT budget of a trial is its duration, so

.. math::

    I_{AB} = \\frac{\\sum_i \\mathrm{abs}(g_{Ai} - g_{Bi})}
                  {(t_{B|B|} - t_{B0}) + (t_{A|A|} - t_{A0})}

Unlike ``L``, the normalizer uses only per-trial durations, so ``I`` is
meaningful even when the two trials' clocks share no epoch.
"""

from __future__ import annotations

import numpy as np

from .matching import Matching, match_trials
from .trial import Trial

__all__ = [
    "iat_deltas_ns",
    "iat_denominator_ns",
    "iat_from_deltas",
    "iat_from_matching",
    "iat_variation",
    "max_iat_construction",
]


def iat_deltas_ns(a: Trial, b: Trial, matching: Matching | None = None) -> np.ndarray:
    """Signed per-packet IAT deltas ``g_B − g_A`` for common packets.

    These are the series plotted in the paper's IAT-delta histograms
    (Figures 4a, 5, 6a, 7a, 8a, 9a, 9b, 10a).  Order follows A's arrival
    order.
    """
    m = matching if matching is not None else match_trials(a, b)
    if m.n_common == 0:
        return np.empty(0, dtype=np.float64)
    g_a = a.iats_ns()[m.idx_a]
    g_b = b.iats_ns()[m.idx_b]
    return g_b - g_a


def iat_denominator_ns(a: Trial, b: Trial) -> float:
    """The Equation 4 normalizer: the two trial durations summed.

    Both trials must be non-empty.
    """
    return (b.end_ns - b.start_ns) + (a.end_ns - a.start_ns)


def iat_from_deltas(deltas: np.ndarray, n_common: int, denom_ns: float) -> float:
    """Equation 4 from precomputed signed IAT deltas and the normalizer.

    The single reduction the batch, fused and streaming paths all run on
    the same delta array, so they are bit-identical.
    """
    if n_common == 0:
        return 0.0
    if denom_ns <= 0.0:
        # Both trials are instantaneous; all gaps are zero on both sides.
        return 0.0
    return float(np.abs(deltas).sum() / denom_ns)


def iat_from_matching(a: Trial, b: Trial, m: Matching) -> float:
    """Equation 4 from a precomputed matching."""
    if m.n_common == 0:
        return 0.0
    deltas = iat_deltas_ns(a, b, matching=m)
    return iat_from_deltas(deltas, m.n_common, iat_denominator_ns(a, b))


def iat_variation(a: Trial, b: Trial) -> float:
    """Equation 4: normalized variation in inter-arrival times between trials."""
    return iat_from_matching(a, b, match_trials(a, b))


def max_iat_construction(n: int, span_ns: float = 1e6) -> tuple[Trial, Trial]:
    """Build the Figure 3 worst case, where ``I`` attains exactly 1.

    Trial A: the first common packet at ``t=0``, all others at
    ``t=span_ns``.  Trial B: all but the last common packet at ``t=0``, the
    last at ``t=span_ns``.  The second packet then contributes an IAT
    difference of ``span_ns`` (A side) and the last contributes ``span_ns``
    (B side); all other differences are zero, and the normalizer — the two
    trial durations summed — is ``2·span_ns``, matching the numerator
    ``span_ns + span_ns``, so ``I = 1``.

    Requires ``n > 2`` (the paper notes two packets is the trivial case of
    a single IAT).
    """
    if n <= 2:
        raise ValueError("the Figure 3 construction needs more than 2 packets")
    if span_ns <= 0:
        raise ValueError("span_ns must be positive")
    tags = np.arange(n, dtype=np.int64)
    t_a = np.full(n, span_ns)
    t_a[0] = 0.0
    t_b = np.zeros(n)
    t_b[-1] = span_ns
    return (
        Trial(tags, t_a, label="maxI-A"),
        Trial(tags, t_b, label="maxI-B"),
    )
