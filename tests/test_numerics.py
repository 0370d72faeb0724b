import math
import sys

import pytest
from helpers import belt_edge_angle, quad

from kscolour.numerics import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError, certify, surface_ratio


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-8)
    with pytest.raises(TypeError):
        QuadratureConfig(max_subdivisions=50)
    # _replace builds a new config, so it is checked too.
    with pytest.raises(ValueError):
        DEFAULT_QUADRATURE._replace(abs_tol=math.inf)
    assert DEFAULT_QUADRATURE._replace(rel_tol=1e-8) == QuadratureConfig(1e-12, 1e-8)


def test_config_is_a_read_only_record():
    cfg = QuadratureConfig(abs_tol=1e-13)
    assert repr(cfg) == "QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)"
    assert repr(DEFAULT_QUADRATURE) == "QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)"
    with pytest.raises(AttributeError):
        cfg.abs_tol = 1e-6


def test_certify_checks_bound_against_abs_or_rel_tolerance():
    # The bound must stay within max(abs_tol, rel_tol * value).
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    assert certify(2.0, 2e-10, cfg) == 2.0
    assert certify(1e-6, 1e-12, cfg) == 1e-6
    assert certify(0.5, 1e-13, None) == 0.5
    # A NaN bound certifies nothing.
    for value, bound in ((2.0, 2.1e-10), (1e-6, 1.1e-12), (0.5, math.nan)):
        with pytest.raises(QuadratureError, match="exceeds tolerance"):
            certify(value, bound, cfg)


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
    # A few eps below the switch to the asymptotic series at N = 50,
    # where a difference of log-gammas near 50 would err by up to 32 eps;
    # then both sides of the switch and the largest dimensions the area
    # fractions promise.
    mpmath = pytest.importorskip("mpmath")

    def ref(n):
        return float(mpmath.gamma(mpmath.mpf(n) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n - 1) / 2)))

    with mpmath.workdps(40):
        for n in range(3, 50):
            assert surface_ratio(n) == pytest.approx(ref(n), rel=3.0 * math.ulp(1.0), abs=0.0), n
        for n in (48, 49, 50, 51, 64, 199, 1000, 12345, 10**5, 10**6 + 1, 10**7, 10**7 + 3):
            assert surface_ratio(n) == pytest.approx(ref(n), rel=2e-14, abs=0.0)


def test_surface_ratio_validation():
    with pytest.raises(ValueError):
        surface_ratio(1)
    with pytest.raises(ValueError):
        surface_ratio(3.0)  # type: ignore[arg-type]
    # The largest accepted dimension is the largest float, as an integer.
    largest = int(sys.float_info.max)
    assert math.isfinite(surface_ratio(largest))
    for bad in (largest + 1, 10**400):
        with pytest.raises(ValueError, match="at most"):
            surface_ratio(bad)


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
        direct = 2.0 / math.sqrt(math.pi) * quad(lambda t: math.exp(-t * t), 0.0, z)
        assert math.erf(z) == pytest.approx(direct, abs=1e-13)
