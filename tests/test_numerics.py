import math

import pytest
from helpers import belt_edge_angle
from hypothesis import given, strategies as st

from kscolour import numerics
from kscolour.numerics import (
    QuadratureConfig,
    QuadratureError,
    integrate,
    sin_power_integral,
    surface_ratio,
)


def test_integrate_sine_half_period():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_integrate_smooth_gaussian():
    value = integrate(lambda t: math.exp(-t * t), 0.0, 2.0)
    # 0.5*sqrt(pi)*erf(2)
    assert value == pytest.approx(0.5 * math.sqrt(math.pi) * math.erf(2.0), abs=1e-12)


def test_integrate_endpoint_singularity():
    # Integrable singularity at 0; nodes stay strictly interior.
    value = integrate(lambda t: 0.5 / math.sqrt(t), 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_integrate_empty_interval_is_exact_zero():
    assert integrate(math.sin, 1.25, 1.25) == 0.0


def test_integrate_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0)


def test_integrate_non_finite_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(math.sin, 0.0, math.inf)


def test_integrate_divergent_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / t, 0.0, 1.0)


def test_integrate_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda t: math.nan, 0.0, 1.0)


def test_integrate_subdivision_budget_respected(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 50)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError, match="after 50 subdivisions"):
        integrate(math.sin, 0.0, math.pi, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-8)
    with pytest.raises(TypeError):
        QuadratureConfig(max_subdivisions=50)


@given(
    coeffs=st.tuples(*[st.floats(-3.0, 3.0) for _ in range(4)]),
    a=st.floats(-4.0, 4.0),
    width=st.floats(0.0, 5.0),
)
def test_integrate_matches_cubic_antiderivative(coeffs, a, width):
    c0, c1, c2, c3 = coeffs
    b = a + width

    def f(t: float) -> float:
        return c0 + t * (c1 + t * (c2 + t * c3))

    def antider(t: float) -> float:
        return t * (c0 + t * (c1 / 2 + t * (c2 / 3 + t * c3 / 4)))

    scale = 1.0 + abs(antider(b) - antider(a))
    assert integrate(f, a, b) == pytest.approx(antider(b) - antider(a), abs=1e-10 * scale)


@given(a=st.floats(0.0, 2.0), mid=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0))
def test_integrate_additive_over_splits(a, mid, b):
    lo, m, hi = sorted((a, mid, b))
    whole = integrate(math.exp, lo, hi)
    parts = integrate(math.exp, lo, m) + integrate(math.exp, m, hi)
    assert whole == pytest.approx(parts, abs=1e-10 * (1.0 + abs(whole)))


def test_sin_power_zero_exponent_is_length():
    assert sin_power_integral(0, 0.2, 1.7) == 1.7 - 0.2


def test_sin_power_one():
    assert sin_power_integral(1, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_sin_power_two_quarter():
    expected = math.pi / 8.0 - 0.25
    assert sin_power_integral(2, 0.0, math.pi / 4.0) == pytest.approx(expected, abs=1e-12)


def test_sin_power_validation():
    with pytest.raises(ValueError):
        sin_power_integral(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        sin_power_integral(1.5, 0.0, 1.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        sin_power_integral(2, -0.1, 1.0)
    with pytest.raises(ValueError):
        sin_power_integral(2, 0.0, math.pi + 0.1)
    with pytest.raises(ValueError):
        sin_power_integral(2, 1.0, 0.5)


@given(
    p=st.integers(min_value=2, max_value=40),
    lo=st.floats(0.0, math.pi),
    hi=st.floats(0.0, math.pi),
)
def test_sin_power_reduction_identity(p, lo, hi):
    # integral(sin^p) = [-sin^(p-1) cos / p] + (p-1)/p * integral(sin^(p-2))
    a, b = sorted((lo, hi))
    boundary = (
        math.sin(b) ** (p - 1) * math.cos(b) - math.sin(a) ** (p - 1) * math.cos(a)
    ) / p
    lhs = sin_power_integral(p, a, b)
    rhs = -boundary + (p - 1) / p * sin_power_integral(p - 2, a, b)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sin_power_large_exponent_stays_finite():
    p = 10**6
    edge = math.asin(math.sqrt((p + 1) / (p + 2)))
    val = sin_power_integral(p, edge, math.pi / 2.0)
    assert 0.0 < val < math.pi / 2.0


def _wallis(mpmath, p):
    # Integral of sin^p over [0, pi/2].
    return mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(p + 1) / 2) / (2 * mpmath.gamma(mpmath.mpf(p) / 2 + 1))


def test_sin_power_large_exponent_keeps_relative_precision():
    # Over the peak at pi/2 (12 widths of it; the rest is below e^-72)
    # the integral is Wallis's sqrt(pi) Gamma((p+1)/2) / (2 Gamma(p/2+1)).
    # Taking log of the rounded sine there would cost about p * eps.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for p in (10**6 - 1, 10**6, 10**7 - 7, 10**7 - 3, 10**7, 10**7 + 5):
            got = sin_power_integral(p, 0.5 * math.pi - 12.0 / math.sqrt(p), 0.5 * math.pi)
            assert got == pytest.approx(float(_wallis(mpmath, p)), rel=2e-12, abs=0.0)


def test_sin_power_wallis_over_wide_intervals():
    # The peak at pi/2 is about 1/sqrt(p) wide: a first panel over
    # [0, pi/2] whose nodes all miss it would report a tiny integral
    # with a tiny error estimate.  The absolute tolerance is set out of
    # the way so that rel 1e-10 is what is asked for.
    mpmath = pytest.importorskip("mpmath")
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10)
    with mpmath.workdps(30):
        for p in (10**3, 10**4, 10**5, 10**6, 3 * 10**6, 10**7):
            half = float(_wallis(mpmath, p))
            assert sin_power_integral(p, 0.0, 0.5 * math.pi, cfg) == pytest.approx(half, rel=1e-10, abs=0.0)
            assert sin_power_integral(p, 0.0, math.pi, cfg) == pytest.approx(2.0 * half, rel=1e-10, abs=0.0)


def test_sin_power_asymmetric_intervals_around_the_peak():
    # mpmath's tanh-sinh rule at 30 digits, on pieces one peak width
    # long out to 40 widths from pi/2 (beyond, sin^p is below e^-800
    # of the peak).
    mpmath = pytest.importorskip("mpmath")
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10)
    with mpmath.workdps(30):
        for p in (10**3, 10**5, 3 * 10**6, 10**7):
            w = 1.0 / math.sqrt(p)
            for a, b in (
                (0.3, 0.5 * math.pi + 0.5 * w),
                (0.5 * math.pi - 0.25 * w, 3.0),
                (0.5 * math.pi - 7.0 * w, 0.5 * math.pi + 2.5 * w),
                (0.0, 0.5 * math.pi - 3.0 * w),
                (0.5 * math.pi + 1.5 * w, math.pi),
                (1.0, 0.5 * math.pi + 40.0 * w),
            ):
                pieces = [a, *(x for k in range(-40, 41) if a < (x := 0.5 * math.pi + k * w) < b), b]
                ref = float(mpmath.quad(lambda t: mpmath.sin(t) ** p, pieces))
                got = sin_power_integral(p, a, b, cfg)
                assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (p, a, b)


def test_surface_ratio_small_dimensions():
    assert surface_ratio(2) == pytest.approx(1.0 / math.pi, abs=1e-14)
    assert surface_ratio(3) == pytest.approx(0.5, abs=1e-14)
    assert surface_ratio(4) == pytest.approx(2.0 / math.pi, abs=1e-14)


def test_surface_ratio_rebuilds_sphere_volumes():
    # vol(S^(n-1)) follows from vol(S^0)=2 by dividing out the ratios.
    vol = 2.0
    expected = {2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}
    for n in range(2, 5):
        vol = vol / surface_ratio(n)
        assert vol == pytest.approx(expected[n], abs=1e-12)


def test_surface_ratio_asymptotics():
    n = 10**6
    assert surface_ratio(n) == pytest.approx(math.sqrt(n / (2.0 * math.pi)), rel=1e-5)
    assert math.isfinite(surface_ratio(10**7))


def test_surface_ratio_against_mpmath_gamma():
    # Both sides of the switch from log-gammas to the asymptotic series
    # at N = 50, and the largest dimensions the area fractions promise.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in (3, 4, 7, 12, 48, 49, 50, 51, 64, 199, 1000, 12345, 10**5, 10**6 + 1, 10**7, 10**7 + 3):
            ref = mpmath.gamma(mpmath.mpf(n) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n - 1) / 2))
            assert surface_ratio(n) == pytest.approx(float(ref), rel=2e-14, abs=0.0)


def test_surface_ratio_validation():
    with pytest.raises(ValueError):
        surface_ratio(1)
    with pytest.raises(ValueError):
        surface_ratio(3.0)  # type: ignore[arg-type]


def test_simplex_circumradius_monotone_to_one():
    # sin of the belt edge in dimension n + 1 is the n-simplex
    # circumradius sqrt(n/(n+1)): it rises towards 1, so the belt narrows
    # towards the equator as N grows.
    values = [math.sin(belt_edge_angle(n + 1)) for n in range(1, 60)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_simplex_circumradius_complements_belt_bound():
    # The belt edge sits where sin(theta) is the (N-1)-simplex
    # circumradius sqrt((N-1)/N), so cos(theta) = 1/sqrt(N).
    for n_dim in (3, 4, 7, 25):
        assert math.cos(belt_edge_angle(n_dim)) == pytest.approx(1.0 / math.sqrt(n_dim), abs=1e-12)


def test_erf_against_direct_quadrature():
    # Independent route: integrate the Gaussian directly.
    for z in (0.25, 0.5, 1.0 / math.sqrt(2.0), 1.0, 2.0, 3.0):
        direct = 2.0 / math.sqrt(math.pi) * integrate(lambda t: math.exp(-t * t), 0.0, z)
        assert math.erf(z) == pytest.approx(direct, abs=1e-13)
