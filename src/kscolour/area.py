"""Surface-area fractions of the coloured regions on the unit sphere in R^N.

White is an equatorial belt of half-width 1/sqrt(N) in the
distinguished component, Black is the pair of polar caps beyond
1/sqrt(2).  The squared distinguished component t^2 of a uniform unit
vector follows Beta(1/2, (N-1)/2), so each fraction is a regularized
incomplete beta function: White is I_{1/N}(1/2, (N-1)/2) and Black is
I_{1/2}((N-1)/2, 1/2).  Each is a prefactor times the positive-term
series of DLMF 8.17.8, with B(1/2, (N-1)/2) = 1 / surface_ratio(N).

White's series at y = 1/N is one function of y for every N,
F(y) = sum_n prod_(k<n) (1/2 + k y)/(3/2 + k).  It is summed as its
Taylor polynomial in y, from a table of 41 coefficients.  N's octave
(its bit length) fixes the degree, and one bound on the dropped terms
holds for every octave, so a row sums no series and takes no logarithm
to choose its degree.  Black's series is summed term by term by
``_black_series``.

Every row, White and Black together, comes from one pass of
``_scan_block``'s loop, the only row builder: ``total_fraction`` is its
one-row block and ``iter_scan`` reads it a block at a time.  The loop
keeps its running values in locals and looks up White's coefficients
once per octave, so per-row interpreter work stays small.  The terms
of Black's series at N are the prefactors of the rows N+2, N+4, ...
(the a -> a+1 recurrence of DLMF 8.17(iv)), so a block sums the series
only for its top two dimensions and takes every lower row as
black(N) = pre(N) + black(N+2).  Its error bound is
the bound of row N+2 plus the roundings of pre(N) and of the addition.
Every row is certified, and a row outside [0, 1] raises
QuadratureError.  That Black is within a few eps of scipy's betaincc
(2.4 eps over N = 3..400).  ``iter_scan`` holds one block of 1024
dimensions at a time, so its memory stays bounded for any range.
"""

import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

from .numerics import DEFAULT_QUADRATURE, EPS, RANGE_TOL, QuadratureConfig, QuadratureError, certify, check_dimension, surface_ratio

__all__ = [
    "AreaBreakdown",
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


class AreaBreakdown(NamedTuple):
    """White, Black, and combined coloured area fractions for one dimension."""

    dim: int
    white_fraction: float
    black_fraction: float

    @property
    def total_fraction(self) -> float:
        return self.white_fraction + self.black_fraction

    @property
    def uncoloured_fraction(self) -> float:
        return 1.0 - self.total_fraction


def _black_series(a: float, prefactor: float) -> tuple[float, float]:
    """I_{1/2}(a, 1/2) = prefactor * sum_n (a+1/2)_n / (a+1)_n * 2^-n, and its error bound.

    prefactor is 2^-(a+1/2) / (a B(a, 1/2)).  Every term is positive and
    the term ratio p / (2 (p + 1/2)), p = a+1/2+n, rises monotonically
    towards 1/2, so the dropped tail is at most the last term (a
    geometric tail of ratio 1/2).  p is a half-integer below 2^52, so
    ``p += 1.0`` and ``p + 0.5`` are exact.  Summing stops once a term
    falls below eps times the sum.  Each term carries three roundings
    per step and each addition one, so the sum errs by at most 2n eps
    relative after n terms.  The caller certifies the pair (see
    ``numerics.certify``).  A prefactor that has underflowed to 0 (from
    N = 2139 on) gives (0.0, 0.0) without summing.
    """
    if prefactor == 0.0:
        return 0.0, 0.0
    total = term = 1.0
    p = start = a + 0.5
    while term > EPS * total:
        term *= 0.5 * p / (p + 0.5)
        total += term
        p += 1.0
    bound = prefactor * (term + (2 * (p - start) + _PREFACTOR_EPS) * EPS * total)
    return prefactor * total, bound


def total_fraction(n_dim: int, config: QuadratureConfig | None = None) -> AreaBreakdown:
    """White plus Black coverage for one dimension, as an AreaBreakdown.

    The row is ``_scan_block``'s one-row block: each share is summed to
    within ``config``'s tolerance, or QuadratureError is raised.
    """
    check_dimension(n_dim)
    return _scan_block(n_dim, n_dim, config)[0]


def _scan_block(n_min: int, n_max: int, config: QuadratureConfig | None) -> list[AreaBreakdown]:
    """AreaBreakdown rows for every dimension in [n_min, n_max], one sweep.

    The sweep runs from n_max down, and each row is built in one pass
    of the loop: its surface ratio, Black, White, certification, the
    range check (QuadratureError unless both shares are non-negative
    and sum to at most 1 + RANGE_TOL), the record.

    White is the prefactor 2 sqrt(y) (1-y)^((N-1)/2) surface_ratio(N),
    y = 1/N, times F(y) summed by Horner's rule to the degree J of N's
    octave, whose coefficients and slack are looked up when the sweep
    enters the octave.  The dropped terms are at most _WHITE_TAIL.
    Horner's 2J roundings on positive terms err by at most about J eps
    of F, and the table's and y's roundings by under 1 eps; the bound
    allows (2J + 2) eps for these and _PREFACTOR_EPS eps for the
    prefactor.

    Black is summed by the series only for n_max and n_max - 1; every
    lower row takes black(N) = pre(N) + black(N+2), the a -> a+1
    recurrence of DLMF 8.17(iv), pre(N) being the series prefactor
    0.5^(N/2) surface_ratio(N) / ((N-1)/2).  Each row's error bound is
    bound(N+2) + _PREFACTOR_EPS eps pre(N) + eps black(N), the rounding
    of the prefactor and of the addition on top of the row above, and
    is certified like the series'.  Over N = 3..400 this Black agrees
    with scipy's betaincc to 2.4 eps and with Black's series summed at
    each row to 4.2 eps.

    Each share passes when its bound meets ``certify``'s rule, tested
    here inline; a share that fails it goes to ``certify``, which
    raises with the message.
    """
    abs_tol, rel_tol = config if config is not None else DEFAULT_QUADRATURE
    exp, log1p, sqrt = math.exp, math.log1p, math.sqrt
    # Rows skip AreaBreakdown's Python-level __new__; the fields are in order.
    new_row = tuple.__new__
    rows = []
    append = rows.append
    # Row N + 1's Black and bound, then row N + 2's.
    black1 = bound1 = black2 = bound2 = 0.0
    octave_floor = n_max + 1
    for n in range(n_max, n_min - 1, -1):
        surface = surface_ratio(n)
        a = 0.5 * (n - 1)
        pre = 0.5 ** (0.5 * n) * surface / a
        if n < n_max - 1:
            black = pre + black2
            bound = bound2 + (_PREFACTOR_EPS * EPS * pre + EPS * black)
        else:
            black, bound = _black_series(a, pre)
        black2, bound2, black1, bound1 = black1, bound1, black, bound

        if n < octave_floor:
            octave = n.bit_length()
            octave_floor = 1 << (octave - 1)
            coeffs = _WHITE_HORNER[min(octave, len(_WHITE_HORNER) + 1) - 2]
            slack = (2 * len(coeffs) + _PREFACTOR_EPS) * EPS
        y = 1.0 / n
        white = 0.0
        for c in coeffs:
            white = white * y + c
        white_pre = 2.0 * sqrt(y) * exp(a * log1p(-y)) * surface
        white_bound = white_pre * (_WHITE_TAIL + slack * white)
        white *= white_pre

        if not (white_bound <= abs_tol or white_bound <= rel_tol * white):
            certify(white, white_bound, config)
        if not (bound <= abs_tol or bound <= rel_tol * black):
            certify(black, bound, config)
        # Two non-negative shares whose sum is in range are each in range too.
        if not (0.0 <= white and 0.0 <= black and white + black <= 1.0 + RANGE_TOL):
            raise QuadratureError(f"area shares at N = {n} out of range: white {white!r}, black {black!r}")
        append(new_row(AreaBreakdown, (n, white, black)))
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
