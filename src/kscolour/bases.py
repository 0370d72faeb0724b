"""Fraction of orthonormal bases that the colouring colours completely.

A fully coloured basis has exactly one Black vector (in the cap) and
the rest White (in the belt), so the fraction is computed by placing
the Black vector at polar angle theta, integrating the measure of
White completions over the sphere orthogonal to it, and multiplying by
the number of slots the Black vector can occupy.

The 3D reduction is over a great circle: for a Black vector at polar
angle theta, a circle point at arc position s is White iff
|cos s| < h / sin(theta) with h the belt half-width, giving two White
arcs of width alpha = 2*arcsin(h/sin theta).  Demanding that a point
and its quarter-turn partner both stay White leaves arc measure
4*alpha - 2*pi.

The 4D reduction runs the same idea one level down: the sphere
orthogonal to the Black vector is a 2-sphere on which White means
|cos theta_1| < B with B = 1/(2 sin theta_2), and the remaining two
vectors repeat the circle computation with h replaced by B.  That
inner integral is elementary, 2*pi*(max(0, B - c) + c + 2*B - 2) with
c = sqrt(1 - B^2) for B < 1 and 2*pi above, so only theta_2 is left
to quadrature.
"""

import math
from dataclasses import dataclass

from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    integrate,
    sin_power_integral,
)

__all__ = [
    "WholeCircleWhiteError",
    "BasisFractionResult",
    "white_arc_angle",
    "white_pair_angle",
    "basis_fraction_3d",
    "belt_radius_4d",
    "orthosphere_white_integral",
    "basis_fraction_4d",
]

# Roundoff allowed above 1 in a fraction.
_RANGE_TOL = 1e-12
# Relative slack when sin(theta) lands a hair below h through roundoff
# (e.g. theta = arcsin(h) does not round-trip exactly).
_RATIO_SLACK = 1e-12


class WholeCircleWhiteError(ValueError):
    """The great circle orthogonal to the chosen vector is entirely White.

    Raised when sin(theta) < h: every point of the circle then has
    distinguished |component| below the belt bound, so there is no arc
    boundary to speak of.
    """


@dataclass(frozen=True)
class BasisFractionResult:
    """Raw orthogonal-completion integral and the fraction it normalizes to."""

    dim: int
    raw_integral: float
    normalizer: float

    def __post_init__(self) -> None:
        if self.dim < 3:
            raise ValueError("dim must be at least 3")
        if self.normalizer <= 0.0:
            raise ValueError("normalizer must be positive")
        if not (0.0 <= self.fraction <= 1.0 + _RANGE_TOL):
            raise ValueError(f"fraction {self.fraction!r} outside [0, 1]")

    @property
    def combinatorial_factor(self) -> int:
        """Slots the Black vector can occupy: one per basis vector."""
        return self.dim

    @property
    def fraction(self) -> float:
        return self.combinatorial_factor * self.raw_integral / self.normalizer


def _white_ratio(theta: float, h: float) -> float:
    if not (0.0 < h < 1.0):
        raise ValueError(f"belt half-width h must lie in (0, 1), got {h!r}")
    if not (0.0 < theta <= 0.5 * math.pi):
        raise ValueError(f"polar angle must lie in (0, pi/2], got {theta!r}")
    s = math.sin(theta)
    ratio = h / s
    if ratio > 1.0 + _RATIO_SLACK:
        raise WholeCircleWhiteError(
            f"sin(theta)={s!r} below belt half-width h={h!r}: "
            "the whole orthogonal circle is White, no arc boundary exists"
        )
    return min(ratio, 1.0)


def white_arc_angle(theta: float, h: float) -> float:
    """Width of one White arc of the circle orthogonal to a vector at theta.

    2 * arcsin(h / sin(theta)).  The circle carries two such arcs,
    centred a half-turn apart.  Requires sin(theta) >= h; below that
    the circle is entirely White and WholeCircleWhiteError is raised.
    """
    return 2.0 * math.asin(_white_ratio(theta, h))


def white_pair_angle(theta: float, h: float) -> float:
    """Arc measure of positions whose quarter-turn partner is also White.

    Exactly 4 * white_arc_angle(theta, h) - 2*pi, returned raw: the
    value is negative once the arcs are too narrow for any position to
    work, and callers integrate it only where it is non-negative.
    """
    return 4.0 * white_arc_angle(theta, h) - 2.0 * math.pi


def basis_fraction_3d(config: QuadratureConfig | None = None) -> BasisFractionResult:
    """Fraction of orthonormal bases of R^3 that are fully coloured.

    Integrates over the Black vector's polar angle theta in [0, pi/4):
    below arcsin(1/sqrt(3)) the whole orthogonal circle is White
    (measure 2*pi), above it only the paired-White measure survives.
    Normalized by 2*pi and multiplied by 3 for the Black slot choice.
    """
    cfg = config if config is not None else DEFAULT_QUADRATURE
    h = 1.0 / math.sqrt(3.0)
    split = math.asin(h)
    all_white = 2.0 * math.pi * sin_power_integral(1, 0.0, split, cfg)

    def integrand(theta: float) -> float:
        return white_pair_angle(theta, h) * math.sin(theta)

    paired = integrate(integrand, split, 0.25 * math.pi, cfg)
    return BasisFractionResult(dim=3, raw_integral=all_white + paired, normalizer=2.0 * math.pi)


def belt_radius_4d(theta2: float) -> float:
    """Whiteness bound B = 1/(2 sin(theta2)) on the orthogonal 2-sphere.

    A point of the 2-sphere orthogonal to a vector at polar angle
    theta2 is White iff |cos(theta1)| < B, with theta1 its polar angle
    on that 2-sphere.  Values above 1 mean the whole 2-sphere is White.
    Requires 0 < theta2 <= pi/2; at theta2 = 0 the bound diverges.
    """
    if not (0.0 < theta2 <= 0.5 * math.pi):
        raise ValueError(
            f"polar angle must lie in (0, pi/2], got {theta2!r}; "
            "at 0 the orthogonal 2-sphere is entirely White and the bound diverges"
        )
    return 1.0 / (2.0 * math.sin(theta2))


def orthosphere_white_integral(theta2: float) -> float:
    """Weighted White-completion measure over the 2-sphere orthogonal to
    a vector at polar angle theta2, in closed form.

    With B = belt_radius_4d(theta2), c = sqrt(1 - B^2) and weight
    sin(theta1): polar angles theta1 in (arccos B, arcsin B), a band
    that exists for B > 1/sqrt(2), put the whole next circle inside the
    White band and give 2*pi*(B - c).  Beyond arcsin B the paired-White
    measure 8*arcsin(B/sin theta1) - 2*pi, integrated by parts in
    u = cos(theta1), leaves the integral of 1/(1 - c^2 sin^2 phi) over
    [0, pi/2], pi/(2B), and gives 2*pi*(c + 2*B - 2).  At B >= 1 the
    whole 2-sphere is White and the value is 2*pi.
    """
    cap = belt_radius_4d(theta2)
    if cap >= 1.0:
        return 2.0 * math.pi
    c = math.sqrt(1.0 - cap * cap)
    return 2.0 * math.pi * (max(0.0, cap - c) + c + 2.0 * cap - 2.0)


def basis_fraction_4d(config: QuadratureConfig | None = None) -> BasisFractionResult:
    """Fraction value for R^4 from the two-level quadrature prescription.

    Outer integral over the Black vector's polar angle theta2, weighted
    by sin^2: a full-sphere 4*pi term up to arcsin(1/2) (where the
    orthogonal 2-sphere is entirely White) and the orthosphere integral
    from there to pi/4; normalized by pi^2 with combinatorial factor 4.
    """
    cfg = config if config is not None else DEFAULT_QUADRATURE
    split = math.asin(0.5)
    all_white = 4.0 * math.pi * sin_power_integral(2, 0.0, split, cfg)

    def integrand(theta2: float) -> float:
        s = math.sin(theta2)
        return orthosphere_white_integral(theta2) * s * s

    mixed = integrate(integrand, split, 0.25 * math.pi, cfg)
    return BasisFractionResult(dim=4, raw_integral=all_white + mixed, normalizer=math.pi * math.pi)
