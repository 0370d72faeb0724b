import math

import numpy as np
import pytest
from helpers import bounds_stand_in, quad

from kscolour.bases import BasisFractionResult, basis_fraction_3d, basis_fraction_4d
from kscolour.colouring import ColouringParams, colour_masks
from kscolour.numerics import QuadratureConfig

H3 = 1.0 / math.sqrt(3.0)
# The R^4 prescription in closed form, and the Haar probability that an
# R^4 basis is fully coloured.
PRESCRIPTION_4D = 2.0 / 3.0 + (4.0 + 2.0 * math.sqrt(3.0) - 6.0 * math.sqrt(2.0)) / math.pi
HAAR_4D = (8.0 + 6.0 * math.sqrt(3.0) - 12.0 * math.sqrt(2.0)) / math.pi
# The R^3 raw integral in closed form: 8 * arcsin(h / sqrt(1 - u^2)),
# u = cos(theta), integrated by parts.
RAW_3D = 4.0 * math.pi / (3.0 * math.sqrt(3.0)) + math.sqrt(2.0) * math.pi - 4.0 * math.sqrt(2.0) * math.atan(math.sqrt(2.0))

# Endpoint references computed independently (plain trigonometry).
ARC_AT_EQUATOR = 2.0 * math.asin(H3)            # 1.2309594173407747
ARC_AT_CAP_EDGE = 2.0 * math.asin(math.sqrt(2.0 / 3.0))  # 1.9106332362490186


# The reductions behind the closed forms, written as the integrands of
# the quadrature routes that check them.


def white_arc_angle(theta: float, h: float) -> float:
    """Width of one White arc of the circle orthogonal to a vector at theta.

    2 * arcsin(h / sin(theta)).  The circle carries two such arcs,
    centred a half-turn apart, and is entirely White (two arcs of pi)
    once sin(theta) <= h.
    """
    return 2.0 * math.asin(min(h / math.sin(theta), 1.0))


def white_pair_angle(theta: float, h: float) -> float:
    """Arc measure of positions whose quarter-turn partner is also White.

    4 * white_arc_angle(theta, h) - 2*pi; negative once the arcs are
    too narrow for any position to work.
    """
    return 4.0 * white_arc_angle(theta, h) - 2.0 * math.pi


def belt_radius_4d(theta2: float) -> float:
    """Whiteness bound B = 1/(2 sin(theta2)) on the orthogonal 2-sphere.

    A point of the 2-sphere orthogonal to a vector at polar angle theta2
    is White iff |cos(theta1)| < B; from B = 1 on, all of it is White.
    """
    return 0.5 / math.sin(theta2)


def orthosphere_white_integral(theta2: float) -> float:
    """Weighted White-completion measure over the 2-sphere orthogonal to
    a vector at polar angle theta2, by quadrature.

    Weight 2*pi where the whole next circle is White, the paired-White
    arc measure beyond arcsin(min(B, 1)), each times sin(theta1).
    """
    cap = belt_radius_4d(theta2)
    b = min(cap, 1.0)
    lo = math.acos(b)
    hi = math.asin(b)
    total = 0.0
    if lo < hi:
        total += 2.0 * math.pi * quad(math.sin, lo, hi)
    if hi < 0.5 * math.pi:
        total += quad(lambda t: white_pair_angle(t, cap) * math.sin(t), hi, 0.5 * math.pi)
    return total


def orthosphere_closed_form(theta2: float) -> float:
    """The same inner integral in closed form, as the bases module derives it.

    With B = belt_radius_4d(theta2) and c = sqrt(1 - B^2), it is
    2*pi*(max(0, B - c) + c + 2*B - 2) for B < 1, and the whole
    2-sphere, 2*pi, from B = 1 on.
    """
    cap = belt_radius_4d(theta2)
    if cap >= 1.0:
        return 2.0 * math.pi
    c = math.sqrt(1.0 - cap * cap)
    return 2.0 * math.pi * (max(0.0, cap - c) + c + 2.0 * cap - 2.0)


def test_white_arc_angle_at_equator():
    assert white_arc_angle(math.pi / 2.0, H3) == pytest.approx(ARC_AT_EQUATOR, abs=1e-14)


def test_white_arc_angle_at_belt_edge_is_full_half():
    # sin(theta) == h: the two arcs just touch and cover everything.
    assert white_arc_angle(math.asin(H3), H3) == pytest.approx(math.pi, abs=1e-12)


def test_white_arc_angle_at_cap_edge():
    assert white_arc_angle(math.pi / 4.0, H3) == pytest.approx(ARC_AT_CAP_EDGE, abs=1e-14)


def test_white_pair_angle_against_grid_overlap():
    # Independent route: count arc positions s where both s and its
    # quarter-turn partner land in the white set |cos s| < h/sin(theta).
    for theta, h in ((math.pi / 4.0, H3), (1.2, 0.75), (0.9, H3)):
        bound = h / math.sin(theta)
        n = 400_000
        hits = 0
        for k in range(n):
            s = 2.0 * math.pi * (k + 0.5) / n
            if abs(math.cos(s)) < bound and abs(math.sin(s)) < bound:
                hits += 1
        grid = 2.0 * math.pi * hits / n
        assert white_pair_angle(theta, h) == pytest.approx(grid, abs=2e-4)


def test_white_pair_angle_endpoints():
    assert white_pair_angle(math.asin(H3), H3) == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert white_pair_angle(math.pi / 4.0, H3) == pytest.approx(1.3593476378164883, abs=1e-12)
    # arcs of width exactly pi/2 leave no paired-white positions
    assert white_pair_angle(math.pi / 2.0, math.sqrt(0.5)) == pytest.approx(0.0, abs=1e-13)


def test_basis_fraction_3d_structure():
    r = basis_fraction_3d()
    assert r.dim == 3
    assert r.normalizer == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert r.combinatorial_factor == 3
    assert r.fraction == pytest.approx(3.0 * r.raw_integral / (2.0 * math.pi), abs=1e-15)


def test_basis_fraction_3d_value():
    r = basis_fraction_3d()
    assert r.raw_integral == pytest.approx(1.4571952196223377, abs=1e-9)
    assert r.fraction == pytest.approx(0.6957594667583252, abs=1e-9)


def test_basis_fraction_3d_matches_closed_form():
    # A quadrature-free oracle for criterion 05.
    assert RAW_3D == pytest.approx(1.457195219622336, abs=1e-15)
    r = basis_fraction_3d()
    assert r.raw_integral == pytest.approx(RAW_3D, abs=1e-12)
    assert r.fraction == pytest.approx(3.0 * RAW_3D / (2.0 * math.pi), abs=1e-12)
    assert 3.0 * RAW_3D / (2.0 * math.pi) == pytest.approx(0.6957594667583245, abs=1e-15)


def test_basis_fraction_3d_all_white_band_closed_form():
    # Below arcsin(1/sqrt(3)) the whole orthogonal circle is white;
    # that band alone contributes 2*pi*(1 - sqrt(2/3)).
    split = math.asin(H3)
    band = 2.0 * math.pi * quad(math.sin, 0.0, split)
    assert band == pytest.approx(2.0 * math.pi * (1.0 - math.sqrt(2.0 / 3.0)), abs=1e-12)
    r = basis_fraction_3d()
    assert r.raw_integral - band == pytest.approx(0.3042092330902069, abs=1e-9)


def test_basis_fraction_3d_matches_quadrature_route():
    # The whole orthogonal circle up to arcsin(h), the paired-White
    # measure from there to pi/4, both weighted by sin(theta).
    split = math.asin(H3)
    band = 2.0 * math.pi * quad(math.sin, 0.0, split)
    paired = quad(lambda t: white_pair_angle(t, H3) * math.sin(t), split, 0.25 * math.pi)
    assert basis_fraction_3d().raw_integral == pytest.approx(band + paired, abs=1e-12)


def test_basis_fraction_3d_stable_under_tighter_tolerances():
    loose = basis_fraction_3d().raw_integral
    tight = basis_fraction_3d(QuadratureConfig(abs_tol=5e-13, rel_tol=5e-11)).raw_integral
    assert abs(loose - tight) < 1e-6


def test_integrand_continuity_at_3d_branch_point():
    # At theta = arcsin(1/sqrt(3)) the paired-white branch takes over
    # from the all-white branch with the same value 2*pi*sin(theta).
    split = math.asin(H3)
    all_white_branch = 2.0 * math.pi * math.sin(split)
    paired_branch = white_pair_angle(split, H3) * math.sin(split)
    assert paired_branch == pytest.approx(all_white_branch, abs=1e-9)


def test_belt_radius_4d_values():
    assert belt_radius_4d(math.pi / 6.0) == pytest.approx(1.0, abs=1e-12)
    assert belt_radius_4d(math.pi / 4.0) == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert belt_radius_4d(math.pi / 2.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "theta2",
    # B >= 1; 1/sqrt(2) <= B < 1; B < 1/sqrt(2) (from pi/4 on).
    [0.2, math.pi / 6.0 - 1e-9, math.pi / 6.0 + 1e-9, 0.53, 0.7, math.pi / 4.0, 0.8, 1.0, 1.3, math.pi / 2.0],
)
def test_orthosphere_closed_form_matches_nested_quadrature(theta2):
    assert orthosphere_closed_form(theta2) == pytest.approx(orthosphere_white_integral(theta2), abs=1e-11)


def test_orthosphere_integral_all_white_regime():
    # Below arcsin(1/2) the bound exceeds 1 and the whole 2-sphere is
    # white: the integral is exactly the full spherical measure 2*pi.
    for theta2 in (0.1, 0.3, 0.5):
        assert orthosphere_white_integral(theta2) == pytest.approx(2.0 * math.pi, abs=1e-10)


def test_orthosphere_integral_continuous_at_unit_bound():
    just_above = orthosphere_white_integral(math.pi / 6.0 + 1e-12)
    assert just_above == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_orthosphere_integral_at_cap_edge():
    assert orthosphere_white_integral(math.pi / 4.0) == pytest.approx(0.762278200115927, abs=1e-9)


def test_outer_first_term_weight_is_double_the_boundary_value():
    # The prescription weighs the all-white band with the full-sphere
    # 4*pi although the orthosphere integral approaches 2*pi at the
    # band's edge; the factor-2 step is a deliberate part of the
    # prescription and is what separates it from the sampled fraction.
    split = math.asin(0.5)
    band = 4.0 * math.pi * quad(lambda t: math.sin(t) ** 2, 0.0, split)
    assert band == pytest.approx(4.0 * math.pi * (math.pi / 12.0 - math.sqrt(3.0) / 8.0), abs=1e-12)
    edge_value = orthosphere_white_integral(math.pi / 6.0 + 1e-12)
    assert 4.0 * math.pi == pytest.approx(2.0 * edge_value, rel=1e-6)


def test_basis_fraction_4d_structure_and_value():
    r = basis_fraction_4d()
    assert r.dim == 4
    assert r.normalizer == pytest.approx(math.pi**2, abs=1e-15)
    assert r.combinatorial_factor == 4
    assert r.fraction == pytest.approx(PRESCRIPTION_4D, abs=1e-12)
    band = 4.0 * math.pi * (math.pi / 12.0 - math.sqrt(3.0) / 8.0)
    assert r.raw_integral - band == pytest.approx(0.2737322722066709, abs=1e-8)


def test_basis_fraction_4d_matches_two_level_quadrature():
    # The whole prescription with no closed form: the all-White band
    # weighed with 4*pi up to arcsin(1/2), then the inner integral over
    # the orthogonal 2-sphere, itself by quadrature, up to pi/4; both
    # weighted by sin^2(theta2).
    split = math.asin(0.5)
    band = 4.0 * math.pi * quad(lambda t: math.sin(t) ** 2, 0.0, split)
    mixed = quad(lambda t: orthosphere_white_integral(t) * math.sin(t) ** 2, split, 0.25 * math.pi)
    r = basis_fraction_4d()
    assert r.raw_integral == pytest.approx(band + mixed, abs=1e-12)
    assert r.fraction == pytest.approx(4.0 * (band + mixed) / math.pi**2, abs=1e-12)


def test_basis_closed_forms_against_mpmath():
    # Within a few eps of their 40-digit values, well inside the
    # rounding bound that the closed forms certify.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        pi, root2, root3 = mpmath.pi, mpmath.sqrt(2), mpmath.sqrt(3)
        raw_3d = 4 * pi / (3 * root3) + root2 * pi - 4 * root2 * mpmath.atan(root2)
        raw_4d = pi**2 / 6 + pi + root3 / 2 * pi - 3 * root2 / 2 * pi
        for got, ref in ((basis_fraction_3d().raw_integral, raw_3d), (basis_fraction_4d().raw_integral, raw_4d)):
            assert got == pytest.approx(float(ref), rel=16.0 * math.ulp(1.0), abs=0.0)


def test_doubling_the_mixed_term_gives_the_haar_value_4d():
    # The prescription weighs the all-White band with the full-sphere
    # 4*pi, but its mixed term with the orthosphere integral, which
    # reaches only 2*pi at the band's edge.  Doubling the mixed term puts
    # both on the same footing, and the result is exactly the Haar value.
    band = 4.0 * math.pi * (math.pi / 12.0 - math.sqrt(3.0) / 8.0)
    mixed = basis_fraction_4d().raw_integral - band
    assert 4.0 / math.pi**2 * (band + 2.0 * mixed) == pytest.approx(HAAR_4D, abs=1e-12)


def test_basis_fraction_4d_stable_under_tighter_tolerances():
    loose = basis_fraction_4d().fraction
    tight = basis_fraction_4d(QuadratureConfig(abs_tol=5e-13, rel_tol=5e-11)).fraction
    assert abs(loose - tight) < 1e-6


def test_result_validation():
    r = BasisFractionResult(dim=4, raw_integral=1.0, normalizer=8.0)
    assert (r.combinatorial_factor, r.fraction) == (4, 0.5)
    with pytest.raises(TypeError):
        BasisFractionResult(dim=3, raw_integral=1.0, normalizer=6.0, fraction=0.5)


def sampled_white_circle_measure(theta: float, h: float, points: int = 100_000) -> float:
    """Sampling oracle for the White measure of one orthogonal great circle.

    Classifies a midpoint grid around the circle orthogonal to the unit
    vector at polar angle theta in R^3 under belt half-width h, and
    returns the White count scaled to arc measure.  Agrees with
    2 * white_arc_angle(theta, h) up to the grid resolution; at
    sin(theta) < h it returns the full 2*pi.
    """
    if not (0.0 < theta <= 0.5 * math.pi):
        raise ValueError(f"polar angle must lie in (0, pi/2], got {theta!r}")
    if points < 1:
        raise ValueError("points must be positive")
    params = bounds_stand_in(3, h, ColouringParams(dim=3).black_bound)
    u1 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    u2 = np.array([0.0, 1.0, 0.0])
    s = 2.0 * math.pi * (np.arange(points) + 0.5) / points
    grid = np.cos(s)[:, None] * u1 + np.sin(s)[:, None] * u2
    white, _ = colour_masks(np.abs(grid[:, -1]), params)
    return 2.0 * math.pi * int(white.sum()) / points


def test_sampled_circle_measure_matches_arc_formula():
    measured = sampled_white_circle_measure(math.pi / 2.0, H3)
    assert measured == pytest.approx(2.0 * white_arc_angle(math.pi / 2.0, H3), abs=5e-4)
    measured = sampled_white_circle_measure(math.pi / 4.0, H3, points=40_000)
    assert measured == pytest.approx(2.0 * white_arc_angle(math.pi / 4.0, H3), abs=8e-4)


def test_sampled_circle_measure_all_white_below_edge():
    assert sampled_white_circle_measure(0.3, H3, points=20_000) == pytest.approx(
        2.0 * math.pi, abs=1e-12
    )


def test_sampled_circle_measure_validation():
    with pytest.raises(ValueError):
        sampled_white_circle_measure(math.pi / 2.0, H3, points=0)
    with pytest.raises(ValueError):
        sampled_white_circle_measure(-1.0, H3)


def test_montecarlo_agrees_with_3d_quadrature():
    from kscolour.montecarlo import estimate_basis_fraction

    reference = basis_fraction_3d().fraction
    estimate = estimate_basis_fraction(3, 200_000, seed=1906)
    assert abs(estimate.value - reference) < 4.0 * estimate.std_error
