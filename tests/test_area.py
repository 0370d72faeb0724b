import hashlib
import math
import struct
import sys
import tracemalloc

import pytest
from helpers import belt_edge_angle, quad

from kscolour import area, cli
from kscolour.area import (
    AreaBreakdown,
    argmin_total,
    asymptotic_limit,
    iter_scan,
    limit_series,
    scan,
    total_fraction,
)
from kscolour.bases import basis_fraction_3d, basis_fraction_4d
from kscolour.numerics import QuadratureConfig, QuadratureError, surface_ratio


def sin_power_exact(p: int, a: float, b: float) -> float:
    """Closed-form integral of sin^p by downward reduction; oracle route."""
    if p == 0:
        return b - a
    if p == 1:
        return math.cos(a) - math.cos(b)
    boundary = (math.sin(b) ** (p - 1) * math.cos(b) - math.sin(a) ** (p - 1) * math.cos(a)) / p
    return -boundary + (p - 1) / p * sin_power_exact(p - 2, a, b)


def white_exact(n_dim: int) -> float:
    ratio = math.exp(math.lgamma(n_dim / 2) - math.lgamma((n_dim - 1) / 2)) / math.sqrt(math.pi)
    edge = math.asin(math.sqrt((n_dim - 1) / n_dim))
    return 2.0 * ratio * sin_power_exact(n_dim - 2, edge, math.pi / 2)


def black_exact(n_dim: int) -> float:
    ratio = math.exp(math.lgamma(n_dim / 2) - math.lgamma((n_dim - 1) / 2)) / math.sqrt(math.pi)
    return 2.0 * ratio * sin_power_exact(n_dim - 2, 0.0, math.pi / 4)


def test_closed_forms_dim3():
    row = total_fraction(3)
    assert row.white_fraction == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert row.black_fraction == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
    assert row.total_fraction == pytest.approx(
        1.0 - 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(3.0), abs=1e-12
    )


def test_closed_forms_dim4():
    row = total_fraction(4)
    assert row.white_fraction == pytest.approx(1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi), abs=1e-12)
    assert row.black_fraction == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-12)


def test_fractions_match_reduction_oracle():
    # Independent evaluation through the closed-form antiderivative
    # chain; no quadrature involved.
    for n in list(range(3, 41)) + [60, 101]:
        row = total_fraction(n)
        assert row.white_fraction == pytest.approx(white_exact(n), abs=1e-10)
        assert row.black_fraction == pytest.approx(black_exact(n), abs=1e-10)


def test_breakdown_consistency():
    row = total_fraction(7)
    assert row.total_fraction == row.white_fraction + row.black_fraction
    assert row.uncoloured_fraction == pytest.approx(1.0 - row.total_fraction, abs=1e-15)
    assert 0.0 < row.black_fraction < row.white_fraction < 1.0


def test_breakdown_validation():
    row = AreaBreakdown(dim=3, white_fraction=0.5, black_fraction=0.2)
    assert row.total_fraction == 0.7
    assert repr(row) == "AreaBreakdown(dim=3, white_fraction=0.5, black_fraction=0.2)"
    with pytest.raises(AttributeError):
        row.white_fraction = 0.1  # type: ignore[misc]
    with pytest.raises(TypeError):
        AreaBreakdown(dim=3, white_fraction=0.5, black_fraction=0.2, total_fraction=0.7)


@pytest.mark.parametrize("target", [1.5, -1e-300])
def test_a_computed_row_out_of_range_is_a_numerical_failure(target, monkeypatch, capsys):
    # White's prefactor is a product with surface_ratio(N), so scaling the
    # ratio at N = 13 by a power of two scales White there exactly.  The
    # signed power nearest target / White(13) puts White near the target:
    # 1.33, above 1, or -9.9e-301, just below 0.  Black scales too.
    # This call keeps Black's series sum at N = 13, so the rows below run
    # with it kept and still fail: the kept sum hides no patched prefactor.
    white = total_fraction(13).white_fraction
    scale = math.copysign(2.0 ** round(math.log2(abs(target) / white)), target)
    bad_white = scale * white
    surface = area.surface_ratio
    monkeypatch.setattr(area, "surface_ratio", lambda n: scale * surface(n) if n == 13 else surface(n))
    for compute in (lambda: total_fraction(13), lambda: scan(3, 20)):
        with pytest.raises(QuadratureError, match=f"N = 13 .*white {bad_white!r}"):
            compute()
    assert cli.main(["area", "--dim", "13"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "numerical failure" in err


def test_dimension_validation():
    for bad in (2, 0, -3, 3.5, True, 10**400):
        with pytest.raises(ValueError):
            total_fraction(bad)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="at most"):
        total_fraction(10**400)
    assert 0.0 < total_fraction(int(sys.float_info.max)).white_fraction < 1.0
    with pytest.raises(ValueError):
        scan(3, 2)
    with pytest.raises(ValueError):
        scan(2, 10)


def test_scan_rows_and_shape():
    rows = scan(3, 20)
    assert [r.dim for r in rows] == list(range(3, 21))
    blacks = [r.black_fraction for r in rows]
    assert all(a > b for a, b in zip(blacks, blacks[1:]))  # caps lose mass with dimension
    whites = [r.white_fraction for r in rows]
    assert all(a < b for a, b in zip(whites, whites[1:]))


def test_total_dips_then_recovers():
    rows = scan(3, 200)
    totals = {r.dim: r.total_fraction for r in rows}
    # strictly decreasing up to dimension 13, strictly increasing after
    for n in range(3, 13):
        assert totals[n] > totals[n + 1]
    for n in range(13, 200):
        assert totals[n] < totals[n + 1]


def test_argmin_is_thirteen_by_direct_computation():
    # The reduction oracle agrees: the scan bottoms out at N=13, with
    # N=12 a strict runner-up.  See the README section "Two numbers to
    # read carefully".
    arg, value = argmin_total(3, 200)
    assert arg == 13
    exact13 = white_exact(13) + black_exact(13)
    assert value == pytest.approx(exact13, abs=1e-10)
    assert white_exact(12) + black_exact(12) > exact13


def test_argmin_is_thirteen_by_mpmath_betainc():
    # Independent of both the quadrature and the reduction oracle: the
    # belt and cap shares are regularised incomplete beta functions of
    # the squared axis component, which is Beta(1/2, (N-1)/2).
    mpmath = pytest.importorskip("mpmath")
    half = mpmath.mpf(1) / 2

    def total_mp(n_dim):
        b = mpmath.mpf(n_dim - 1) / 2
        white = mpmath.betainc(half, b, 0, mpmath.mpf(1) / n_dim, regularized=True)
        black = mpmath.betainc(half, b, half, 1, regularized=True)
        return white + black

    with mpmath.workdps(30):
        totals = {n: total_mp(n) for n in range(3, 201)}
    arg_mp = min(totals, key=totals.get)
    assert arg_mp == 13
    arg, value = argmin_total(3, 200)
    assert arg == arg_mp
    assert value == pytest.approx(float(totals[13]), abs=1e-10)


def test_argmin_on_subrange():
    arg, value = argmin_total(3, 6)
    assert arg == 6
    assert value == pytest.approx(total_fraction(6).total_fraction, abs=0.0)


def test_asymptotic_limit_value():
    assert asymptotic_limit() == math.erf(1.0 / math.sqrt(2.0))


def test_distance_to_limit_shrinks_beyond_thirteen():
    limit = asymptotic_limit()
    gaps = [abs(total_fraction(n).total_fraction - limit) for n in (13, 20, 50, 120, 500, 2000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_large_dimension_approaches_limit():
    assert total_fraction(10**4).total_fraction == pytest.approx(asymptotic_limit(), abs=1e-3)


def test_limit_series_first_terms():
    assert limit_series(0) == 1.0
    assert limit_series(1) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_limit_series_converges_to_rescaled_limit():
    target = math.sqrt(math.pi / 2.0) * math.erf(1.0 / math.sqrt(2.0))
    assert limit_series(30) == pytest.approx(target, abs=1e-12)
    assert limit_series(60) == pytest.approx(target, abs=1e-14)


def test_limit_series_alternating_bound():
    # Truncation error of an alternating series is at most the first
    # dropped term; the dropped term is rebuilt independently here.
    target = math.sqrt(math.pi / 2.0) * math.erf(1.0 / math.sqrt(2.0))
    for k in range(0, 26):
        dropped = 1.0 / (2 ** (k + 1) * math.factorial(k + 1) * (2 * k + 3))
        assert abs(limit_series(k) - target) <= dropped + 1e-15


def test_limit_series_stops_once_terms_underflow():
    # The running term is 0.0 from k = 156 on, so a huge k_max returns
    # at once with the same bits as a sum that adds every zero.
    def every_term(k_max):
        total = term = 1.0
        for k in range(1, k_max + 1):
            term *= -(2 * k - 1) / (2.0 * k * (2 * k + 1))
            total += term
        return total

    for k in (155, 156, 157, 400):
        assert limit_series(k) == every_term(k)
    assert limit_series(10**15) == limit_series(200)


def test_limit_series_validation():
    with pytest.raises(ValueError):
        limit_series(-1)
    with pytest.raises(ValueError):
        limit_series(2.5)  # type: ignore[arg-type]


def _oracle_dims():
    # Every N in 3..400, then each power of ten up to 1e7 with the odd N
    # within 9 of it.
    return list(range(3, 401)) + [10**e + k for e in range(3, 8) for k in range(-9, 10) if k == 0 or k % 2]


def test_fractions_match_betainc_within_requested_tolerance():
    # The squared distinguished component of a uniform unit vector in R^N
    # is Beta(1/2, (N-1)/2): White is t^2 < 1/N, Black is t^2 > 1/2.
    special = pytest.importorskip("scipy.special")
    worst = 0.0
    for n_dim in _oracle_dims():
        b = 0.5 * (n_dim - 1)
        row = total_fraction(n_dim)
        for got, ref in (
            (row.white_fraction, float(special.betainc(0.5, b, 1.0 / n_dim))),
            (row.black_fraction, float(special.betaincc(0.5, b, 0.5))),
        ):
            worst = max(worst, abs(got - ref) / max(1e-12, 1e-10 * abs(ref)))
    assert worst <= 1.0, f"worst error is {worst:.3g} of the requested abs 1e-12 / rel 1e-10"


def test_fractions_match_betainc_strictly():
    # Where both shares are normal doubles they hold to a few ulps, far
    # inside what the default abs 1e-12 floor would allow for the small
    # Black shares (Black(400) is 5.0e-62).
    special = pytest.importorskip("scipy.special")
    for n_dim in range(3, 401):
        b = 0.5 * (n_dim - 1)
        row = total_fraction(n_dim)
        assert row.white_fraction == pytest.approx(float(special.betainc(0.5, b, 1.0 / n_dim)), rel=1e-13, abs=0.0)
        assert row.black_fraction == pytest.approx(float(special.betaincc(0.5, b, 0.5)), rel=1e-13, abs=0.0)


def test_fractions_match_quadrature_route():
    # Adaptive quadrature stays an independent route: the polar-angle
    # form 2 * surface_ratio(N) * integral of sin^(N-2), from the belt
    # edge to pi/2 for White and over [0, pi/4] for Black.  Above
    # N = 400 the betainc tests carry on up to 1e7.
    for n_dim in range(3, 401):

        def sin_power(t, p=n_dim - 2):
            return math.sin(t) ** p

        weight = 2.0 * surface_ratio(n_dim)
        white = weight * quad(sin_power, belt_edge_angle(n_dim), 0.5 * math.pi, epsabs=0.0)
        black = weight * quad(sin_power, 0.0, 0.25 * math.pi, epsabs=0.0)
        row = total_fraction(n_dim)
        assert row.white_fraction == pytest.approx(white, rel=1e-12, abs=0.0)
        assert row.black_fraction == pytest.approx(black, rel=1e-12, abs=0.0)


def test_unreachable_tolerance_raises():
    # The series' rounding bound is tens of eps of the value, and so is
    # that of the basis closed forms, so these tolerances cannot be
    # certified.
    unreachable = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError):
        total_fraction(3, unreachable)
    with pytest.raises(QuadratureError):
        scan(3, 5, unreachable)
    for fn in (basis_fraction_3d, basis_fraction_4d):
        with pytest.raises(QuadratureError):
            fn(unreachable)


def test_white_alone_out_of_reach_raises():
    # From N = 2139 on Black is exactly 0 with bound 0, so only White's
    # certification can refuse these rows; N = 5000 is each block's top row.
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    white = r"^error bound 2\.735e-15 exceeds tolerance max\(1\.000e-300, 1\.000e-300 \* 6\.826411e-01\)$"
    with pytest.raises(QuadratureError, match=white):
        total_fraction(5000, cfg)
    with pytest.raises(QuadratureError, match=white):
        scan(4990, 5000, cfg)


def test_black_alone_out_of_reach_raises():
    # At N = 200 and rel 1e-14 White is certified and Black is not, so
    # these reach Black's own certification, on its series (the top row).
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-14)
    black = r"error bound 2\.182e-45 exceeds .* 8\.868775e-32\)"
    with pytest.raises(QuadratureError, match=black):
        total_fraction(200, cfg)
    with pytest.raises(QuadratureError, match=black):
        scan(3, 200, cfg)


# scan sums Black's series only for its top two dimensions and takes
# every lower row as black(N) = pre(N) + black(N+2); these tests hold
# that shared tail to the oracles and to total_fraction, a one-row block
# that sums the series.


def test_scan_matches_betainc_strictly():
    special = pytest.importorskip("scipy.special")
    for row in scan(3, 400):
        b = 0.5 * (row.dim - 1)
        assert row.white_fraction == pytest.approx(float(special.betainc(0.5, b, 1.0 / row.dim)), rel=1e-13, abs=0.0)
        assert row.black_fraction == pytest.approx(float(special.betaincc(0.5, b, 0.5)), rel=1e-13, abs=0.0)


def test_scan_rows_within_a_few_eps_of_total_fraction():
    eps = math.ulp(1.0)
    for row in scan(3, 400):
        direct = total_fraction(row.dim)
        assert row.white_fraction == direct.white_fraction
        assert abs(row.black_fraction - direct.black_fraction) <= 16 * eps * direct.black_fraction
        assert abs(row.total_fraction - direct.total_fraction) <= 16 * eps * direct.total_fraction


@pytest.mark.parametrize("n", [3, 4, 49, 50, 51])
@pytest.mark.parametrize("width", [0, 1, 2])
def test_scan_short_ranges(n, width):
    # Up to two rows are all series; the third is the first recurrence step.
    eps = math.ulp(1.0)
    rows = scan(n, n + width)
    assert [r.dim for r in rows] == list(range(n, n + width + 1))
    for row in rows:
        direct = total_fraction(row.dim)
        assert row.white_fraction == direct.white_fraction
        if row.dim >= n + width - 1:
            assert row.black_fraction == direct.black_fraction
        assert abs(row.black_fraction - direct.black_fraction) <= 16 * eps * direct.black_fraction


@pytest.mark.parametrize("n_min, n_max", [(2000, 2300), (10**6, 10**6 + 40)])
def test_scan_through_underflow_and_far_out(n_min, n_max):
    # Black(2000) is 3.3e-303 and underflows to 0 within this range;
    # at N = 1e6 it is 0 throughout and White is near its limit.
    special = pytest.importorskip("scipy.special")
    rows = scan(n_min, n_max)
    assert [r.dim for r in rows] == list(range(n_min, n_max + 1))
    for row in rows:
        b = 0.5 * (row.dim - 1)
        for got, ref in (
            (row.white_fraction, float(special.betainc(0.5, b, 1.0 / row.dim))),
            (row.black_fraction, float(special.betaincc(0.5, b, 0.5))),
        ):
            assert abs(got - ref) <= max(1e-12, 1e-10 * abs(ref))


def test_black_after_its_prefactor_underflows_keeps_its_bits():
    # From N = 2139 on, Black's series prefactor is exactly 0 and so is
    # Black.  The values were taken from the series summed in full, like
    # the digest of scan(2100, 2200) in test_rows_keep_their_bits.
    pins = ((2138, 0.6825762762199026, 1e-323), (2139, 0.682576329167833, 0.0), (10**4, 0.6826652932497427, 0.0))
    for n, white, black in pins:
        row = total_fraction(n)
        assert (row.white_fraction, row.black_fraction) == (white, black)


def _rows_digest(rows) -> str:
    """SHA-256 of the rows, each packed as struct "<qdd" (dim, white, black)."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(struct.pack("<qdd", row.dim, row.white_fraction, row.black_fraction))
    return digest.hexdigest()


_TOTAL_FRACTION_DIMS = (*range(3, 5001), 10**5, 10**7, 2**58, 2**62)
_TOTAL_FRACTION_DIGEST = "8fc2f1740b80c428cb434858f1bbb2f1d5e889f2845b43a16ab60025ec602bab"


@pytest.mark.parametrize(
    "rows, expected",
    [
        (lambda: scan(2100, 2200), "f108511e11be0e62ffac20eccc69a54936e4e174fd732640fb8b1374e6f85e68"),
        (lambda: scan(3, 5000), "01907e2991378f0e3bf324e5ace21f7c42b850b8a4ea6b576a5b2edda1869e06"),
        (lambda: map(total_fraction, _TOTAL_FRACTION_DIMS), _TOTAL_FRACTION_DIGEST),
    ],
    ids=["scan_2100_2200", "scan_3_5000", "total_fraction"],
)
def test_rows_keep_their_bits(rows, expected):
    # Digests taken from earlier builds of the rows; the row loop must
    # reproduce every bit, out to N = 2^62.
    assert _rows_digest(rows()) == expected


def test_black_sums_are_kept_per_dimension_bounded_and_bit_for_bit(monkeypatch):
    # Black's series sum is kept per dimension only while its prefactor is
    # non-zero, that is for N = 3..2138: 2136 sums, whatever is computed.
    area._black_sum.cache_clear()
    cold = _rows_digest(map(total_fraction, _TOTAL_FRACTION_DIMS))
    for n in range(3, 10**4 + 1):
        total_fraction(n)
    scan(3, 20000)
    kept = area._black_sum.cache_info()
    assert kept.currsize <= 2136
    # Each of the 2136 sums of N = 3..2138 is found kept, so no other is.
    for n in range(3, 2139):
        area._black_sum(0.5 * (n - 1))
    assert area._black_sum.cache_info().misses == kept.misses
    warm = _rows_digest(map(total_fraction, _TOTAL_FRACTION_DIMS))
    assert cold == warm == _TOTAL_FRACTION_DIGEST
    # Only the sum is kept: halving surface_ratio(13) halves the
    # prefactor, and so Black, exactly.
    black = total_fraction(13).black_fraction
    surface = area.surface_ratio
    monkeypatch.setattr(area, "surface_ratio", lambda n: 0.5 * surface(n) if n == 13 else surface(n))
    assert total_fraction(13).black_fraction == 0.5 * black


def test_every_certified_bound_keeps_its_bits(monkeypatch):
    # Under tolerances no share meets, every non-zero share of scan(3, 5000)
    # goes to certify, here a recorder that passes it.  The digest of the
    # (value, bound) pairs, each packed as struct "<dd" and taken from an
    # earlier build of the rows, pins every error bound, which no row shows.
    pairs = []

    def record(value, bound, config):
        pairs.append((value, bound))
        return value

    monkeypatch.setattr(area, "certify", record)
    scan(3, 5000, QuadratureConfig(1e-300, 1e-300))
    assert len(pairs) == 6882
    digest = hashlib.sha256(b"".join(struct.pack("<dd", *pair) for pair in pairs))
    assert digest.hexdigest() == "47cbfb7d2fc8d260c166231a9e84bbfbbbcf94862ea1beaae68d1baef73e0433"


def test_scan_unreachable_tolerance_raises_over_the_shared_tail():
    with pytest.raises(QuadratureError):
        scan(3, 200, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300))


@pytest.mark.parametrize("n_min, n_max", [(3, 2100), (1000, 1030), (1026, 1027)])
def test_iter_scan_across_block_boundaries(n_min, n_max):
    # Each block sums Black's series afresh at its top two rows, so the
    # rows either side of a boundary stay within a few eps of the series,
    # where Black is normal; from N = 2035 on it is subnormal.
    eps = math.ulp(1.0)
    rows = list(iter_scan(n_min, n_max))
    assert scan(n_min, n_max) == rows
    assert [r.dim for r in rows] == list(range(n_min, n_max + 1))
    for row in rows:
        direct = total_fraction(row.dim)
        assert row.white_fraction == direct.white_fraction
        assert abs(row.black_fraction - direct.black_fraction) <= 16 * eps * direct.black_fraction + sys.float_info.min


@pytest.mark.parametrize(
    "args, error",
    [
        ((5, 4), ValueError),
        ((2, 10), ValueError),
        ((3, 200, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)), QuadratureError),
    ],
    ids=["empty", "dim2", "unreachable"],
)
def test_iter_scan_raises_when_called(args, error):
    # The range is checked and the first block computed before any row
    # is read, so nothing is iterated here.
    with pytest.raises(error):
        iter_scan(*args)


def test_argmin_total_holds_one_block_at_a_time():
    # Holding all 19998 rows at once peaked at about 4.5 MB.
    tracemalloc.start()
    try:
        arg, _ = argmin_total(3, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arg == 13
    assert peak < 2e6, f"argmin_total peaked at {peak / 1e6:.2f} MB"


# White is F(1/N) times its prefactor, F summed as a Taylor polynomial in
# y = 1/N whose degree is fixed per octave of N.  These tests hold the
# coefficient table and the octave degrees to mpmath, and the sums to
# scipy and to the term-by-term series of DLMF 8.17.8.


def _white_taylor_mp(mpmath, degree):
    # E_j is the y^j coefficient of sum_n prod_(k<n) (1/2 + k y)/(3/2 + k);
    # term n's coefficients shrink like 1/n!, and 150 terms leave them
    # unchanged at 50 digits.
    term = [mpmath.mpf(1)] + [mpmath.mpf(0)] * degree
    coeffs = [mpmath.mpf(0)] * (degree + 1)
    for k in range(150):
        coeffs = [c + t for c, t in zip(coeffs, term)]
        term = [(term[j] / 2 + (k * term[j - 1] if j else 0)) / (k + mpmath.mpf(3) / 2) for j in range(degree + 1)]
    return coeffs


def _white_f_mp(mpmath, y):
    # The same series in closed form: 2F1(1/(2y), 1; 3/2; y).
    return mpmath.hyp2f1(1 / (2 * y), 1, mpmath.mpf(3) / 2, y)


def test_white_coefficients_within_an_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = _white_taylor_mp(mpmath, len(area._WHITE_COEFFS) - 1)
        for stored, true in zip(area._WHITE_COEFFS, exact):
            assert abs(mpmath.mpf(stored) - true) <= math.ulp(stored)


def test_white_octave_degrees_bound_the_dropped_terms():
    # F(R) as stored is an upper bound, each octave's degree is the least
    # whose Cauchy tail at the octave's largest y meets _WHITE_TAIL, and
    # the true remainder there is within _WHITE_TAIL as well.  The terms
    # are positive, so the largest y is the octave's worst case.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        radius = mpmath.mpf(area._WHITE_RADIUS)
        assert mpmath.mpf(area._WHITE_F_AT_RADIUS) >= _white_f_mp(mpmath, radius)
        coeffs = _white_taylor_mp(mpmath, len(area._WHITE_COEFFS) - 1)
        tail_bound = mpmath.mpf(area._WHITE_TAIL)

        def cauchy_tail(y, degree):
            q = y / radius
            return mpmath.mpf(area._WHITE_F_AT_RADIUS) * q ** (degree + 1) / (1 - q)

        for octave, degree in enumerate(area._WHITE_DEGREES, start=2):
            y = mpmath.mpf(1) / max(3, 2 ** (octave - 1))
            assert cauchy_tail(y, degree) <= tail_bound
            assert degree == 0 or cauchy_tail(y, degree - 1) > tail_bound
            remainder = _white_f_mp(mpmath, y) - mpmath.fsum(coeffs[j] * y**j for j in range(degree + 1))
            assert 0 <= remainder <= tail_bound
        assert area._WHITE_DEGREES[-1] == 0


def _white_by_series(n_dim):
    # The term-by-term route: I_x(1/2, b) = prefactor * sum_n (1/2+b)_n / (3/2)_n x^n
    # (DLMF 8.17.8) at x = 1/N, b = (N-1)/2, summed until a term drops
    # below eps of the sum, with the prefactor ``_scan_block`` uses for White.
    eps = math.ulp(1.0)
    x = 1.0 / n_dim
    b = 0.5 * (n_dim - 1)
    prefactor = 2.0 * math.sqrt(x) * math.exp(b * math.log1p(-x)) * surface_ratio(n_dim)
    total = term = 1.0
    n = 0
    while term > eps * total:
        term *= x * (0.5 + b + n) / (1.5 + n)
        total += term
        n += 1
    return prefactor * total


def test_white_where_the_degree_changes_matches_betainc():
    # The last and first N of each octave from N = 3 on, the top of the
    # documented range, and the last octave of the table and one above it.
    special = pytest.importorskip("scipy.special")
    dims = [n for k in range(2, 24) for n in (2**k - 1, 2**k)] + [10**7, 2**58, 2**62]
    for n_dim in dims:
        ref = float(special.betainc(0.5, 0.5 * (n_dim - 1), 1.0 / n_dim))
        assert total_fraction(n_dim).white_fraction == pytest.approx(ref, rel=1e-13, abs=0.0), n_dim


def test_white_matches_the_series_route():
    eps = math.ulp(1.0)
    for n_dim in range(3, 5001):
        series = _white_by_series(n_dim)
        assert abs(total_fraction(n_dim).white_fraction - series) <= 8 * eps * series, n_dim


def test_scan_cli_prints_the_series_route_digits(capsys):
    assert cli.main(["scan", "--from", "3", "--to", "5000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [cli.CSV_HEADER]
    for row in scan(3, 5000):
        white = _white_by_series(row.dim)
        black = row.black_fraction
        expected.append(f"{row.dim},{cli._fmt(white)},{cli._fmt(black)},{cli._fmt(white + black)}")
    assert lines[: len(expected)] == expected
