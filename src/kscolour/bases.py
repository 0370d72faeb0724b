"""Fraction of orthonormal bases that the colouring colours completely.

A fully coloured basis has exactly one Black vector (in the cap) and
the rest White (in the belt), so the fraction places the Black vector
at polar angle theta, takes the measure of White completions over the
sphere orthogonal to it, integrates over theta and multiplies by the
number of slots the Black vector can occupy.  In R^3 and R^4 every
integral is elementary, so both fractions are short sums of
elementary terms.

The 3D reduction is over a great circle: for a Black vector at polar
angle theta, a circle point at arc position s is White iff
|cos s| < h / sin(theta) with h = 1/sqrt(3) the belt half-width,
giving two White arcs of width alpha = 2*arcsin(h/sin theta).
Demanding that a point and its quarter-turn partner both stay White
leaves arc measure 4*alpha - 2*pi.  Below arcsin(h) the whole circle
is White (measure 2*pi), so the raw integral is

    2*pi * (1 - sqrt(2/3))
    + integral over [arcsin h, pi/4] of (8*arcsin(h/sin theta) - 2*pi) sin theta.

With u = cos(theta) the arcsine integrates by parts, and u = c sin(phi),
c^2 = 1 - h^2 = 2/3, leaves the integral of 1/(1 - c^2 sin^2 phi) over
[pi/3, pi/2], which is pi/(4h).  The sum is
4*pi/(3*sqrt(3)) + sqrt(2)*pi - 4*sqrt(2)*arctan(sqrt(2)).

The 4D reduction runs the same idea one level down: the sphere
orthogonal to the Black vector is a 2-sphere on which White means
|cos theta_1| < B with B = 1/(2 sin theta_2), and the remaining two
vectors repeat the circle computation with h replaced by B.  Weighted
by sin(theta_1), polar angles in (arccos B, arcsin B) put the whole
next circle inside the belt and give 2*pi*(B - c), c = sqrt(1 - B^2);
beyond arcsin B the paired-White measure, integrated by parts as in
R^3, gives 2*pi*(c + 2*B - 2).  On the outer range [pi/6, pi/4], B runs
from 1 down to 1/sqrt(2), so the inner integral is 2*pi*(3*B - 2)
throughout and the outer one, weighted by sin^2(theta_2), is
elementary.  The prescription weighs the all-White band below pi/6
with the full-sphere 4*pi, which gives the raw integral
pi^2/6 + pi + (sqrt(3)/2)*pi - (3*sqrt(2)/2)*pi.
"""

import math
from collections.abc import Sequence
from typing import NamedTuple

from .numerics import EPS, QuadratureConfig, certify

__all__ = [
    "BasisFractionResult",
    "basis_fraction_3d",
    "basis_fraction_4d",
]

# Relative rounding of a closed form, in units of EPS per unit of
# sum(|terms|): each term carries at most six roundings of eps/2 (libm's
# atan among them) and math.fsum rounds the sum once more.
_TERMS_EPS = 4


class BasisFractionResult(NamedTuple):
    """Raw orthogonal-completion integral and the fraction it normalizes to."""

    dim: int
    raw_integral: float
    normalizer: float

    @property
    def combinatorial_factor(self) -> int:
        """Slots the Black vector can occupy: one per basis vector."""
        return self.dim

    @property
    def fraction(self) -> float:
        return self.combinatorial_factor * self.raw_integral / self.normalizer


def _closed_form(terms: Sequence[float], config: QuadratureConfig | None) -> float:
    """Sum of elementary terms, certified against ``config``'s tolerance."""
    return certify(math.fsum(terms), _TERMS_EPS * EPS * math.fsum(map(abs, terms)), config)


def basis_fraction_3d(config: QuadratureConfig | None = None) -> BasisFractionResult:
    """Fraction of orthonormal bases of R^3 that are fully coloured.

    Raw integral 4*pi/(3*sqrt(3)) + sqrt(2)*pi - 4*sqrt(2)*arctan(sqrt(2))
    over the Black vector's polar angle in [0, pi/4) (see the module
    docstring), normalized by 2*pi and multiplied by 3 for the Black
    slot choice.  Raises QuadratureError when ``config`` asks for less
    than the rounding of that sum.
    """
    root2 = math.sqrt(2.0)
    raw = _closed_form(
        (4.0 * math.pi / (3.0 * math.sqrt(3.0)), root2 * math.pi, -4.0 * root2 * math.atan(root2)),
        config,
    )
    return BasisFractionResult(dim=3, raw_integral=raw, normalizer=2.0 * math.pi)


def basis_fraction_4d(config: QuadratureConfig | None = None) -> BasisFractionResult:
    """Fraction value for R^4 from the two-level prescription.

    Raw integral pi^2/6 + pi + (sqrt(3)/2)*pi - (3*sqrt(2)/2)*pi: the
    all-White band weighed with 4*pi up to arcsin(1/2) and the
    orthosphere integral from there to pi/4 (see the module docstring);
    normalized by pi^2 with combinatorial factor 4, so the fraction is
    2/3 + (4 + 2*sqrt(3) - 6*sqrt(2))/pi.  Raises QuadratureError when
    ``config`` asks for less than the rounding of that sum.
    """
    raw = _closed_form(
        (
            math.pi * math.pi / 6.0,
            math.pi,
            0.5 * math.sqrt(3.0) * math.pi,
            -1.5 * math.sqrt(2.0) * math.pi,
        ),
        config,
    )
    return BasisFractionResult(dim=4, raw_integral=raw, normalizer=math.pi * math.pi)
