"""Surface-area fractions of the coloured regions on the unit sphere in R^N.

White is an equatorial belt of half-width 1/sqrt(N) in the
distinguished component, Black is the pair of polar caps beyond
1/sqrt(2).  The squared distinguished component t^2 of a uniform unit
vector follows Beta(1/2, (N-1)/2), so each fraction is a regularized
incomplete beta function: White is I_{1/N}(1/2, (N-1)/2) and Black is
I_{1/2}((N-1)/2, 1/2).  Both are summed as the positive-term series
of DLMF 8.17.8, with B(1/2, (N-1)/2) = 1 / surface_ratio(N).

The terms of Black's series at N are the prefactors of the rows N+2,
N+4, ... (the a -> a+1 recurrence of DLMF 8.17(iv)), so a scan sums
the series only for the top two dimensions of a block and takes every
lower row as black(N) = pre(N) + black(N+2).  Its error bound is the
bound of row N+2 plus the roundings of pre(N) and of the addition, and
every row is certified.  That Black is within a few eps of scipy's
betaincc (2.4 eps over N = 3..400).  ``iter_scan`` holds one block of
1024 dimensions at a time, so its memory stays bounded for any range.
"""

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .numerics import EPS, RANGE_TOL, QuadratureConfig, certify, check_dimension, surface_ratio

__all__ = [
    "AreaBreakdown",
    "white_fraction",
    "black_fraction",
    "total_fraction",
    "iter_scan",
    "scan",
    "argmin_total",
    "asymptotic_limit",
    "limit_series",
]

# Relative rounding of a series prefactor, in units of EPS: up to 2.2
# from surface_ratio (largest at N = 51), and a few for the powers and
# products around it.  Against mpmath the whole prefactor errs by at
# most 2.5 eps over N = 3..2000 and near each power of ten up to 1e7.
_PREFACTOR_EPS = 8

# Dimensions per block of ``iter_scan``.
_SCAN_BLOCK = 1024


@dataclass(frozen=True)
class AreaBreakdown:
    """White, Black, and combined coloured area fractions for one dimension."""

    dim: int
    white_fraction: float
    black_fraction: float

    def __post_init__(self) -> None:
        check_dimension(self.dim)
        for name in ("white_fraction", "black_fraction", "total_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0 + RANGE_TOL):
                raise ValueError(f"{name} {v!r} outside [0, 1]")

    @property
    def total_fraction(self) -> float:
        return self.white_fraction + self.black_fraction

    @property
    def uncoloured_fraction(self) -> float:
        return 1.0 - self.total_fraction


def _beta_series(x: float, a: float, b: float, prefactor: float) -> tuple[float, float]:
    """I_x(a, b) = prefactor * sum_n (a+b)_n / (a+1)_n * x^n, and its error bound.

    prefactor is x^a (1-x)^b / (a B(a, b)).  Every term is positive and
    the term ratio x(a+b+n)/(a+1+n) tends monotonically to x < 1, so
    all ratios after the last one are at most rho = max(last ratio, x)
    and the dropped tail is at most term * rho / (1 - rho).  Summing
    stops once a term falls below eps times the sum.  Each term carries
    three roundings per step and each addition one, so the sum errs by
    at most 2n eps relative after n terms.  The caller certifies the
    pair (see ``numerics.certify``).
    """
    total = term = 1.0
    n = 0
    while term > EPS * total:
        ratio = x * (a + b + n) / (a + 1.0 + n)
        term *= ratio
        total += term
        n += 1
    rho = max(ratio, x)
    bound = prefactor * (term * rho / (1.0 - rho) + (2 * n + _PREFACTOR_EPS) * EPS * total)
    return prefactor * total, bound


def _white(n_dim: int, surface: float, config: QuadratureConfig | None) -> float:
    x = 1.0 / n_dim
    b = 0.5 * (n_dim - 1)
    prefactor = 2.0 * math.sqrt(x) * math.exp(b * math.log1p(-x)) * surface
    value, bound = _beta_series(x, 0.5, b, prefactor)
    return certify(value, bound, config)


def _black(n_dim: int, surface: float, config: QuadratureConfig | None) -> float:
    a = 0.5 * (n_dim - 1)
    value, bound = _beta_series(0.5, a, 0.5, 0.5 ** (0.5 * n_dim) * surface / a)
    return certify(value, bound, config)


def white_fraction(n_dim: int, config: QuadratureConfig | None = None) -> float:
    """Fraction of the sphere's surface strictly inside the white belt.

    The distinguished |component| stays below 1/sqrt(N):
    I_{1/N}(1/2, (N-1)/2), summed to within ``config``'s tolerance.
    Raises QuadratureError when that tolerance is out of reach.
    """
    check_dimension(n_dim)
    return _white(n_dim, surface_ratio(n_dim), config)


def black_fraction(n_dim: int, config: QuadratureConfig | None = None) -> float:
    """Fraction of the sphere's surface strictly inside the two black caps.

    The distinguished |component| exceeds 1/sqrt(2), so 1 - t^2 stays
    below 1/2: I_{1/2}((N-1)/2, 1/2), summed to within ``config``'s
    tolerance.  Raises QuadratureError when that tolerance is out of
    reach.
    """
    check_dimension(n_dim)
    return _black(n_dim, surface_ratio(n_dim), config)


def total_fraction(n_dim: int, config: QuadratureConfig | None = None) -> AreaBreakdown:
    """White plus Black coverage for one dimension, as an AreaBreakdown."""
    check_dimension(n_dim)
    surface = surface_ratio(n_dim)
    return AreaBreakdown(n_dim, _white(n_dim, surface, config), _black(n_dim, surface, config))


def _scan_block(n_min: int, n_max: int, config: QuadratureConfig | None) -> list[AreaBreakdown]:
    """AreaBreakdown rows for every dimension in [n_min, n_max], one sweep.

    White is summed per row as in ``total_fraction``.  Black is summed
    by the series only for n_max and n_max - 1; every lower row takes
    black(N) = pre(N) + black(N+2), the a -> a+1 recurrence of DLMF
    8.17(iv), pre(N) being the series prefactor
    0.5^(N/2) surface_ratio(N) / ((N-1)/2).  Each row's error bound is
    bound(N+2) + _PREFACTOR_EPS eps pre(N) + eps black(N), the rounding
    of the prefactor and of the addition on top of the row above, and
    is certified like the series'.  Over N = 3..400 this Black agrees
    with scipy's betaincc to 2.4 eps and with the per-row series to
    4.2 eps.
    """
    dims = range(n_min, n_max + 1)
    surfaces = [surface_ratio(n) for n in dims]
    blacks = [0.0] * len(dims)
    # Walked from the top down; bounds[i % 2] holds the bound of row i + 2.
    bounds = [0.0, 0.0]
    for i in reversed(range(len(dims))):
        # Black's series prefactor as _black forms it, so the top two rows
        # carry black_fraction's bits.
        a = 0.5 * (dims[i] - 1)
        pre = 0.5 ** (0.5 * dims[i]) * surfaces[i] / a
        if i + 2 < len(dims):
            blacks[i] = pre + blacks[i + 2]
            bounds[i % 2] += _PREFACTOR_EPS * EPS * pre + EPS * blacks[i]
        else:
            blacks[i], bounds[i % 2] = _beta_series(0.5, a, 0.5, pre)
        certify(blacks[i], bounds[i % 2], config)
    return [AreaBreakdown(n, _white(n, s, config), b) for n, s, b in zip(dims, surfaces, blacks)]


def iter_scan(n_min: int, n_max: int, config: QuadratureConfig | None = None) -> Iterator[AreaBreakdown]:
    """AreaBreakdown rows for every dimension in [n_min, n_max], in order.

    Rows come one ``_scan_block`` of up to _SCAN_BLOCK dimensions at a
    time.  The range is checked and the first block computed on call,
    so a refused range or an unreachable tolerance raises before any row.
    """
    check_dimension(n_min)
    check_dimension(n_max)
    if n_max < n_min:
        raise ValueError(f"empty scan range [{n_min}, {n_max}]")

    def block(lo: int) -> list[AreaBreakdown]:
        return _scan_block(lo, min(lo + _SCAN_BLOCK - 1, n_max), config)

    rest = range(n_min + _SCAN_BLOCK, n_max + 1, _SCAN_BLOCK)
    return itertools.chain(block(n_min), itertools.chain.from_iterable(map(block, rest)))


def scan(n_min: int, n_max: int, config: QuadratureConfig | None = None) -> list[AreaBreakdown]:
    """The rows of ``iter_scan`` as one list."""
    return list(iter_scan(n_min, n_max, config))


def argmin_total(n_min: int, n_max: int, config: QuadratureConfig | None = None) -> tuple[int, float]:
    """Dimension in [n_min, n_max] whose combined coloured fraction is least.

    Returns (dimension, total fraction).  Ties are impossible in
    practice; the scan is resolved far below the gaps between
    neighbouring totals.
    """
    best = min(iter_scan(n_min, n_max, config), key=lambda r: r.total_fraction)
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
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    total = 1.0
    term = 1.0
    for k in range(1, k_max + 1):
        term *= -(2 * k - 1) / (2.0 * k * (2 * k + 1))
        if term == 0.0:
            break
        total += term
    return total
