"""Surface-area fractions of the coloured regions on the unit sphere in R^N.

White is an equatorial belt of half-width 1/sqrt(N) in the
distinguished component, Black is the pair of polar caps beyond
1/sqrt(2).  The squared distinguished component t^2 of a uniform unit
vector follows Beta(1/2, (N-1)/2), so each fraction is a regularized
incomplete beta function: White is I_{1/N}(1/2, (N-1)/2) and Black is
I_{1/2}((N-1)/2, 1/2).  Each is a prefactor times the positive-term
series of DLMF 8.17.8, with B(1/2, (N-1)/2) = 1 / surface_ratio(N).

White's series at y = 1/N is one function of y for every N,
F(y) = sum_n prod_(k<n) (1/2 + k y)/(3/2 + k).  ``_white`` sums it as
its Taylor polynomial in y, from a table of 41 coefficients.  N's
octave (its bit length) fixes the degree, and one bound on the dropped
terms holds for every octave, so a row sums no series and takes no
logarithm to choose its degree.  Black's series is summed term by term
by ``_beta_series``.

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

# Taylor coefficients E_0..E_40 in y of White's series
# F(y) = sum_n prod_(k<n) (1/2 + k y)/(3/2 + k), each the double nearest
# its value summed in 60-digit mpmath.  All are positive.
_WHITE_COEFFS = (
    1.410686134642448, 0.205343067321224, 0.13912165626465933, 0.106010950736377,
    0.08597519435537462, 0.07247691254801221, 0.06273321682431773, 0.055352662939305144,
    0.04955966288184442, 0.04488655675773351, 0.04103403759209696, 0.03780136373058519,
    0.035048715890990755, 0.03267562654007306, 0.030607992597061696, 0.028789926964573616,
    0.02717846440957583, 0.02574001732797399, 0.024447940487844867, 0.023280819183013585,
    0.02222124141764816, 0.021254901322327293, 0.020369933834298762, 0.019556413782623867,
    0.018805973766708495, 0.018111509148982668, 0.017466947797419648, 0.016867068552739922,
    0.016307356779631816, 0.015783888439297622, 0.015293236311237073, 0.014832393571114072,
    0.014398711083059198, 0.013989845613771503, 0.013603716808171424, 0.013238471241898295,
    0.012892452226745685, 0.012564174321172463, 0.0122523017108962, 0.011955629789949455,
    0.01167306940195838,
)

# F is analytic for |y| < 1 and its coefficients are positive, so
# E_j <= F(R) / R^j (Cauchy) and the terms after degree J sum to at most
# F(R) (y/R)^(J+1) / (1 - y/R).  _WHITE_F_AT_RADIUS is F(R), rounded up.
# The octave degrees below are derived from these two; the tests check
# that derivation against mpmath.
_WHITE_RADIUS = 0.9
_WHITE_F_AT_RADIUS = 2.0772070161182

# Octave L = N.bit_length() holds 2^(L-1) <= N < 2^L, and its largest y
# is 1/max(3, 2^(L-1)).  _WHITE_DEGREES[L - 2] is the least degree J
# whose Cauchy tail there is at most _WHITE_TAIL; the last entry, J = 0,
# serves every N >= 2^58.
_WHITE_TAIL = EPS / 16
_WHITE_DEGREES = (
    40, 31, 20, 14, 11, 9, 8, 7, 6, 5, 5, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0,
)

# Per octave, E_J..E_0: the coefficients in the order Horner's rule reads them.
_WHITE_HORNER = tuple(_WHITE_COEFFS[j::-1] for j in _WHITE_DEGREES)


@dataclass(frozen=True)
class AreaBreakdown:
    """White, Black, and combined coloured area fractions for one dimension."""

    dim: int
    white_fraction: float
    black_fraction: float

    def __post_init__(self) -> None:
        check_dimension(self.dim)
        # Two non-negative shares whose sum is in range are each in range too.
        if not (0.0 <= self.white_fraction and 0.0 <= self.black_fraction and self.total_fraction <= 1.0 + RANGE_TOL):
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
    pair (see ``numerics.certify``).  The library sums Black's series
    with it; White's, in the tests, is a second route to ``_white``.
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
    """White's share I_{1/N}(1/2, (N-1)/2), certified against ``config``.

    The prefactor 2 sqrt(y) (1-y)^((N-1)/2) surface_ratio(N), y = 1/N,
    times F(y) summed by Horner's rule to the degree J of N's octave.
    The dropped terms are at most _WHITE_TAIL.  Horner's 2J roundings on
    positive terms err by at most about J eps of F, and the table's and
    y's roundings by under 1 eps; the bound allows (2J + 2) eps for
    these and _PREFACTOR_EPS eps for the prefactor.
    """
    y = 1.0 / n_dim
    octave = n_dim.bit_length()
    coeffs = _WHITE_HORNER[octave - 2] if octave < len(_WHITE_HORNER) + 2 else _WHITE_HORNER[-1]
    total = 0.0
    for c in coeffs:
        total = total * y + c
    prefactor = 2.0 * math.sqrt(y) * math.exp(0.5 * (n_dim - 1) * math.log1p(-y)) * surface
    bound = prefactor * (_WHITE_TAIL + (2 * len(coeffs) + _PREFACTOR_EPS) * EPS * total)
    return certify(prefactor * total, bound, config)


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

    The sweep runs from n_max down, and each row is built in one step:
    its surface ratio, Black, White by ``_white``, certification, the
    record.  Black is summed by the series only for n_max and n_max - 1;
    every lower row takes black(N) = pre(N) + black(N+2), the a -> a+1
    recurrence of DLMF 8.17(iv), pre(N) being the series prefactor
    0.5^(N/2) surface_ratio(N) / ((N-1)/2).  Each row's error bound is
    bound(N+2) + _PREFACTOR_EPS eps pre(N) + eps black(N), the rounding
    of the prefactor and of the addition on top of the row above, and
    is certified like the series'.  Over N = 3..400 this Black agrees
    with scipy's betaincc to 2.4 eps and with the per-row series to
    4.2 eps.
    """
    rows = []
    # blacks[N % 2] and bounds[N % 2] hold row N + 2's until row N replaces them.
    blacks = [0.0, 0.0]
    bounds = [0.0, 0.0]
    for n in range(n_max, n_min - 1, -1):
        surface = surface_ratio(n)
        # Black's series prefactor as _black forms it, so the top two rows
        # carry black_fraction's bits.
        a = 0.5 * (n - 1)
        pre = 0.5 ** (0.5 * n) * surface / a
        k = n % 2
        if n < n_max - 1:
            blacks[k] = pre + blacks[k]
            bounds[k] += _PREFACTOR_EPS * EPS * pre + EPS * blacks[k]
        else:
            blacks[k], bounds[k] = _beta_series(0.5, a, 0.5, pre)
        rows.append(AreaBreakdown(n, _white(n, surface, config), certify(blacks[k], bounds[k], config)))
    rows.reverse()
    return rows


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
