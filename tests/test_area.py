import math

import pytest
from helpers import belt_edge_angle

from kscolour.area import (
    AreaBreakdown,
    argmin_total,
    asymptotic_limit,
    black_fraction,
    limit_series,
    scan,
    total_fraction,
    white_fraction,
)
from kscolour.numerics import QuadratureConfig, QuadratureError, sin_power_integral, surface_ratio


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
    assert white_fraction(3) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert black_fraction(3) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
    row = total_fraction(3)
    assert row.total_fraction == pytest.approx(
        1.0 - 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(3.0), abs=1e-12
    )


def test_closed_forms_dim4():
    assert white_fraction(4) == pytest.approx(1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi), abs=1e-12)
    assert black_fraction(4) == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-12)


def test_fractions_match_reduction_oracle():
    # Independent evaluation through the closed-form antiderivative
    # chain; no quadrature involved.
    for n in list(range(3, 41)) + [60, 101]:
        assert white_fraction(n) == pytest.approx(white_exact(n), abs=1e-10)
        assert black_fraction(n) == pytest.approx(black_exact(n), abs=1e-10)


def test_breakdown_consistency():
    row = total_fraction(7)
    assert row.total_fraction == row.white_fraction + row.black_fraction
    assert row.uncoloured_fraction == pytest.approx(1.0 - row.total_fraction, abs=1e-15)
    assert 0.0 < row.black_fraction < row.white_fraction < 1.0


def test_breakdown_validation():
    row = AreaBreakdown(dim=3, white_fraction=0.5, black_fraction=0.2)
    assert row.total_fraction == 0.7
    with pytest.raises(ValueError):
        AreaBreakdown(dim=3, white_fraction=-0.1, black_fraction=0.2)
    with pytest.raises(ValueError):
        AreaBreakdown(dim=2, white_fraction=0.1, black_fraction=0.2)
    # Overlapping regions: each share is a fraction, their sum is not.
    with pytest.raises(ValueError, match="total_fraction"):
        AreaBreakdown(dim=3, white_fraction=0.7, black_fraction=0.4)
    with pytest.raises(TypeError):
        AreaBreakdown(dim=3, white_fraction=0.5, black_fraction=0.2, total_fraction=0.7)


def test_dimension_validation():
    for bad in (2, 0, -3, 3.5, True):
        with pytest.raises(ValueError):
            white_fraction(bad)  # type: ignore[arg-type]
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
        assert white_fraction(n_dim) == pytest.approx(float(special.betainc(0.5, b, 1.0 / n_dim)), rel=1e-13, abs=0.0)
        assert black_fraction(n_dim) == pytest.approx(float(special.betaincc(0.5, b, 0.5)), rel=1e-13, abs=0.0)


def test_fractions_match_quadrature_route():
    # Adaptive quadrature stays an independent route: the polar-angle
    # form 2 * surface_ratio(N) * integral of sin^(N-2), from the belt
    # edge to pi/2 for White and over [0, pi/4] for Black.
    for n_dim in _oracle_dims():
        quad = 2.0 * surface_ratio(n_dim)
        white = quad * sin_power_integral(n_dim - 2, belt_edge_angle(n_dim), 0.5 * math.pi)
        black = quad * sin_power_integral(n_dim - 2, 0.0, 0.25 * math.pi)
        assert white_fraction(n_dim) == pytest.approx(white, abs=1e-12, rel=1e-10)
        assert black_fraction(n_dim) == pytest.approx(black, abs=1e-12, rel=1e-10)


def test_unreachable_tolerance_raises():
    # The series' rounding bound is tens of eps of the value, so these
    # tolerances cannot be certified.
    unreachable = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    for fn in (total_fraction, white_fraction, black_fraction):
        with pytest.raises(QuadratureError):
            fn(3, unreachable)
    with pytest.raises(QuadratureError):
        scan(3, 5, unreachable)
