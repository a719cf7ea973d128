"""The compound consistency score ``κ`` (Equation 5) and its extensions.

The four normalized variations form a vector ``v = ⟨U, O, L, I⟩ ∈ [0,1]^4``
whose magnitude lies in ``[0, 2]``; the paper scales this to

.. math::

    \\kappa_{AB} = 1 - \\frac{\\sqrt{U^2 + O^2 + L^2 + I^2}}{2}

so that 1 is complete consistency and 0 complete inconsistency.

Section 8.2 sketches two future-work refinements, both implemented here so
they can be ablated:

* **per-component weights** — the paper observes that in its environments
  ``I`` (varying within 1e-1) linearly overpowers ``L`` (within 1e-5);
* **nonlinear scaling** — a sub-linear exponent on ``U`` and/or ``O`` so
  that "the presence of any drops [or reordering] more heavily impacts the
  score".

Both default to the paper's plain Equation 5 behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricVector",
    "kappa_from_vector",
    "kappa_from_components",
    "KappaScaling",
]


@dataclass(frozen=True)
class KappaScaling:
    """Optional Section-8.2 refinements applied before combining metrics.

    Each component is transformed as ``weight * value ** exponent``; because
    values lie in [0, 1], exponents below 1 amplify small inconsistencies
    (e.g. ``u_exponent=0.5`` makes any drop count more) and weights rescale
    a component's reach.  Weights above 1 would break the [0, 1] range of
    κ and are rejected.
    """

    u_weight: float = 1.0
    o_weight: float = 1.0
    l_weight: float = 1.0
    i_weight: float = 1.0
    u_exponent: float = 1.0
    o_exponent: float = 1.0
    l_exponent: float = 1.0
    i_exponent: float = 1.0

    def __post_init__(self) -> None:
        for name in ("u_weight", "o_weight", "l_weight", "i_weight"):
            w = getattr(self, name)
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {w}")
        for name in ("u_exponent", "o_exponent", "l_exponent", "i_exponent"):
            e = getattr(self, name)
            if e <= 0.0:
                raise ValueError(f"{name} must be positive, got {e}")

    def apply(self, u: float, o: float, latency: float, iat: float):
        """Return the transformed ``(U, O, L, I)`` tuple."""
        return (
            self.u_weight * u**self.u_exponent,
            self.o_weight * o**self.o_exponent,
            self.l_weight * latency**self.l_exponent,
            self.i_weight * iat**self.i_exponent,
        )


#: The paper's plain Equation 5 (identity weights and exponents).
PAPER_SCALING = KappaScaling()


@dataclass(frozen=True)
class MetricVector:
    """The 4-dimensional inconsistency vector ``⟨U, O, L, I⟩`` of Section 3.

    **Contract (all comparison paths).**  Every component is a concrete,
    finite float in [0, 1] — never ``None``, never NaN; construction
    enforces this.  A path that cannot compute a component must either
    *guarantee* the component's value through a checked precondition and
    report that exact float, or refuse to produce a vector —
    partially-populated vectors do not exist.  The batch
    (:func:`repro.core.report.compare_trials`), parallel
    (:func:`repro.analysis.analyze_directory`, which runs the batch path
    per pair) and streaming paths all honor this: the known-baseline
    streaming comparator
    (:class:`repro.analysis.streamkappa.StreamKappa`) computes every
    component — including the global-LCS ordering metric, via the serial
    patience loop resumed chunk by chunk — exactly.  Vectors from any path
    therefore mix freely in series aggregation and rendering.
    """

    u: float
    o: float
    l: float
    i: float

    def __post_init__(self) -> None:
        for name in ("u", "o", "l", "i"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"metric {name.upper()} must be finite, got {v}")
            if v < -1e-12 or v > 1.0 + 1e-9:
                raise ValueError(
                    f"metric {name.upper()} must be normalized to [0, 1], got {v}"
                )

    def as_array(self) -> np.ndarray:
        """The vector as a float64 array ``[U, O, L, I]``."""
        return np.array([self.u, self.o, self.l, self.i], dtype=np.float64)

    @property
    def magnitude(self) -> float:
        """``|v|`` — Euclidean norm, in ``[0, 2]``."""
        return float(np.sqrt(self.u**2 + self.o**2 + self.l**2 + self.i**2))

    def kappa(self, scaling: KappaScaling | None = None) -> float:
        """Equation 5: the [0, 1] consistency score (1 = fully consistent)."""
        if scaling is None:
            return 1.0 - self.magnitude / 2.0
        su, so, sl, si = scaling.apply(self.u, self.o, self.l, self.i)
        return 1.0 - float(np.sqrt(su**2 + so**2 + sl**2 + si**2)) / 2.0

    @property
    def is_identical(self) -> bool:
        """True when the trials compared were exactly identical."""
        return self.magnitude == 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"U={self.u:.4g} O={self.o:.4g} L={self.l:.4g} I={self.i:.4g} "
            f"kappa={self.kappa():.4f}"
        )


def kappa_from_vector(u: float, o: float, latency: float, iat: float,
                      scaling: KappaScaling | None = None) -> float:
    """Equation 5 from the four component values directly."""
    return MetricVector(u, o, latency, iat).kappa(scaling)


def kappa_from_components(
    u, o, latency, iat, scaling: KappaScaling | None = None
) -> np.ndarray:
    """Vectorized Equation 5 over arrays of component values.

    The array twin of :meth:`MetricVector.kappa` for windowed κ series
    (:mod:`repro.analysis.streamkappa`): one κ per element of the input
    arrays, identical arithmetic to the scalar path element for element.
    """
    u = np.asarray(u, dtype=np.float64)
    o = np.asarray(o, dtype=np.float64)
    latency = np.asarray(latency, dtype=np.float64)
    iat = np.asarray(iat, dtype=np.float64)
    if scaling is not None:
        u, o, latency, iat = scaling.apply(u, o, latency, iat)
    return 1.0 - np.sqrt(u**2 + o**2 + latency**2 + iat**2) / 2.0
