"""Surface-area fractions of the coloured regions on the unit sphere in R^N.

White is an equatorial belt of half-width 1/sqrt(N) in the
distinguished component, Black is the pair of polar caps beyond
1/sqrt(2).  Fractions are exact surface integrals: the marginal of the
distinguished component t on S^(N-1) has density proportional to
(1 - t^2)^((N-3)/2), which in polar-angle form turns every fraction
into a sin^(N-2) integral weighted by the equator-to-sphere surface
ratio.
"""

import math
from dataclasses import dataclass

from .numerics import QuadratureConfig, sin_power_integral, surface_ratio

__all__ = [
    "AreaBreakdown",
    "white_fraction",
    "black_fraction",
    "total_fraction",
    "scan",
    "argmin_total",
    "asymptotic_limit",
    "limit_series",
]

# Roundoff allowed above 1 in a fraction; a total beyond it means the
# white and black regions overlap.
_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class AreaBreakdown:
    """White, Black, and combined coloured area fractions for one dimension."""

    dim: int
    white_fraction: float
    black_fraction: float

    def __post_init__(self) -> None:
        if self.dim < 3:
            raise ValueError("dim must be at least 3")
        for name in ("white_fraction", "black_fraction", "total_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0 + _RANGE_TOL):
                raise ValueError(f"{name} {v!r} outside [0, 1]")

    @property
    def total_fraction(self) -> float:
        return self.white_fraction + self.black_fraction

    @property
    def uncoloured_fraction(self) -> float:
        return 1.0 - self.total_fraction


def _belt_edge_angle(n_dim: int) -> float:
    # Polar angle where the belt ends: cos(theta) = 1/sqrt(N).  (The
    # arcsine of sin(theta) would magnify its rounding by sqrt(N).)
    return math.acos(1.0 / math.sqrt(n_dim))


def _check_dim(n_dim: int) -> None:
    if not isinstance(n_dim, int) or isinstance(n_dim, bool):
        raise ValueError("dimension must be an integer")
    if n_dim < 3:
        raise ValueError("dimension must be at least 3")


def white_fraction(n_dim: int, config: QuadratureConfig | None = None) -> float:
    """Fraction of the sphere's surface strictly inside the white belt.

    2 * (vol(S^(N-2))/vol(S^(N-1))) * integral of sin^(N-2)(theta) for
    theta from arcsin(sqrt((N-1)/N)) to pi/2: the band where the
    distinguished |component| stays below 1/sqrt(N).
    """
    _check_dim(n_dim)
    edge = _belt_edge_angle(n_dim)
    return 2.0 * surface_ratio(n_dim) * sin_power_integral(n_dim - 2, edge, 0.5 * math.pi, config)


def black_fraction(n_dim: int, config: QuadratureConfig | None = None) -> float:
    """Fraction of the sphere's surface strictly inside the two black caps.

    Each cap spans polar angles [0, pi/4), i.e. distinguished
    |component| above 1/sqrt(2); both caps together give the factor 2.
    """
    _check_dim(n_dim)
    return 2.0 * surface_ratio(n_dim) * sin_power_integral(n_dim - 2, 0.0, 0.25 * math.pi, config)


def total_fraction(n_dim: int, config: QuadratureConfig | None = None) -> AreaBreakdown:
    """White plus Black coverage for one dimension, as an AreaBreakdown."""
    return AreaBreakdown(n_dim, white_fraction(n_dim, config), black_fraction(n_dim, config))


def scan(n_min: int, n_max: int, config: QuadratureConfig | None = None) -> list[AreaBreakdown]:
    """AreaBreakdown rows for every dimension in [n_min, n_max]."""
    _check_dim(n_min)
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError("dimension must be an integer")
    if n_max < n_min:
        raise ValueError(f"empty scan range [{n_min}, {n_max}]")
    return [total_fraction(n, config) for n in range(n_min, n_max + 1)]


def argmin_total(n_min: int, n_max: int, config: QuadratureConfig | None = None) -> tuple[int, float]:
    """Dimension in [n_min, n_max] whose combined coloured fraction is least.

    Returns (dimension, total fraction).  Ties are impossible in
    practice; the scan is resolved far below the gaps between
    neighbouring totals.
    """
    rows = scan(n_min, n_max, config)
    best = min(rows, key=lambda r: r.total_fraction)
    return best.dim, best.total_fraction


def asymptotic_limit() -> float:
    """Large-N limit of the combined coloured fraction: erf(1/sqrt(2)).

    The belt shrinks like 1/sqrt(N) while the marginal of the
    distinguished component concentrates like a Gaussian of standard
    deviation 1/sqrt(N), so the white fraction tends to the central
    Gaussian mass within one standard deviation and the caps' share
    vanishes.
    """
    return math.erf(1.0 / math.sqrt(2.0))


def limit_series(k_max: int) -> float:
    """Partial sum through k = k_max of sum_k (-1)^k / (2^k k! (2k+1)).

    The exact sum is sqrt(pi/2) * erf(1/sqrt(2)), i.e. the asymptotic
    limit rescaled by sqrt(pi/2); the series is alternating with terms
    shrinking fast enough that k_max = 30 already reaches 1e-12
    agreement.  Terms are built by running ratio, so no factorials or
    powers are formed explicitly.  The term underflows to zero at
    k = 156, and the sum stops there, so any k_max costs at most 156
    steps.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool):
        raise ValueError("k_max must be an integer")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    total = 1.0
    term = 1.0
    for k in range(1, k_max + 1):
        term *= -(2 * k - 1) / (2.0 * k * (2 * k + 1))
        if term == 0.0:
            break
        total += term
    return total
