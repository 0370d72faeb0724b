import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kscolour.colouring import (
    Colour,
    ColouringParams,
    OrthonormalBasis,
    classify_basis,
    colour_masks,
    ks_satisfied,
)
from kscolour.montecarlo import sample_basis

from helpers import bounds_stand_in, column_colours, is_fully_coloured

P3 = ColouringParams(dim=3)
P4 = ColouringParams(dim=4)


def _tilted_basis_3d() -> OrthonormalBasis:
    # Rows of this orthogonal matrix are chosen so every column has
    # last component exactly 1/sqrt(3).
    r3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    r1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    r2 = np.cross(r3, r1)
    m = np.vstack([r1, r2, r3])
    return OrthonormalBasis(m)


def test_params_defaults():
    assert P3.white_bound == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert P3.black_bound == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert P4.white_bound == 0.5


def test_params_white_always_below_black():
    for dim in (3, 4, 5, 12, 100, 10**6):
        p = ColouringParams(dim=dim)
        assert 0.0 < p.white_bound < p.black_bound < 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        ColouringParams(dim=2)
    with pytest.raises(ValueError, match="at most"):
        ColouringParams(dim=10**400)
    # The dimension fixes both bounds; neither is a constructor argument.
    with pytest.raises(TypeError):
        ColouringParams(dim=3, white_bound=0.5)


def test_basis_construction_and_matrix_roundtrip():
    b = OrthonormalBasis(np.eye(4))
    assert b.dim == 4
    assert np.array_equal(b.matrix, np.eye(4))
    again = OrthonormalBasis(b.matrix)
    assert np.array_equal(again.matrix, np.eye(4))


def test_basis_refuses_small_column_deviation():
    # A column off unit norm by 2e-10 is refused, not renormalised.
    m = np.eye(3)
    m[:, 1] *= 1.0 + 2e-10
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthonormalBasis(m)


def test_basis_rejects_large_column_deviation():
    # A column off unit norm by 1e-6, scaled to 1.5, zero, or so large
    # that its squared norm overflows (refused without a warning).
    for column, scale in ((2, 1.0 + 1e-6), (2, 1.5), (1, 0.0), (0, 1e200)):
        m = np.eye(3)
        m[:, column] *= scale
        with pytest.raises(ValueError, match="not orthonormal"):
            OrthonormalBasis(m)


def test_basis_gram_tolerance_boundary():
    # An inner product of 5e-13 is within ORTHO_TOLERANCE and keeps its
    # bits; one of 2e-12 is refused.
    m = np.eye(3)
    m[0, 1] = 5e-13
    assert np.array_equal(OrthonormalBasis(m).matrix, m)
    m[0, 1] = 2e-12
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthonormalBasis(m)


def test_basis_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        m = np.eye(3)
        m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            OrthonormalBasis(m)


def test_basis_rejects_complex_input():
    # Casting to float would drop the imaginary parts and accept the identity.
    for bad in (np.eye(3) + 1j * np.ones((3, 3)), np.eye(3, dtype=complex), [[1j, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="must be real"):
            OrthonormalBasis(bad)


def test_basis_rejects_non_orthogonal():
    s = math.sqrt(0.5)
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthonormalBasis(np.array([[1.0, s, 0.0], [0.0, s, 0.0], [0.0, 0.0, 1.0]]))


def test_basis_rejects_wrong_count():
    # Two unit columns of R^3 are too few for a basis.
    with pytest.raises(ValueError, match="square"):
        OrthonormalBasis(np.eye(3)[:, :2])


def test_basis_rejects_mixed_dimensions():
    # Rows of two and three components make no matrix.
    with pytest.raises(ValueError):
        OrthonormalBasis([[1.0, 0.0], [0.0, 1.0, 0.0]])


def test_basis_rejects_non_square():
    # Three columns of two components, one vector, and nothing at all.
    for bad in (np.eye(3)[:2, :], np.array([1.0, 0.0, 0.0]), np.empty((0, 0)), np.empty(0)):
        with pytest.raises(ValueError, match="square"):
            OrthonormalBasis(bad)


def test_classify_cap_belt_and_gap():
    # Columns with last components 0, 0.6 and 0.8: 0.6 sits between
    # 1/sqrt(3) and 1/sqrt(2).
    b = OrthonormalBasis(np.array([[1.0, 0.0, 0.0], [0.0, 0.8, -0.6], [0.0, 0.6, 0.8]]))
    assert classify_basis(b, P3) == [Colour.WHITE, Colour.UNCOLOURED, Colour.BLACK]


def test_colour_masks_on_arrays_match_scalars():
    # The estimators classify arrays of |components| with the predicate
    # the basis predicates apply to one component, boundaries included.
    w, b = P3.white_bound, P3.black_bound
    t = np.array(
        [0.0, np.nextafter(w, 0.0), w, np.nextafter(w, 1.0), 0.65, np.nextafter(b, 0.0), b, np.nextafter(b, 1.0), 1.0]
    )
    white, black = colour_masks(t, P3)
    assert white.tolist() == [True, True] + [False] * 7
    assert black.tolist() == [False] * 7 + [True, True]
    assert [colour_masks(float(x), P3) for x in t] == list(zip(white.tolist(), black.tolist()))


def test_classify_standard_basis():
    b = OrthonormalBasis(np.eye(3))
    assert classify_basis(b, P3) == [Colour.WHITE, Colour.WHITE, Colour.BLACK]
    assert is_fully_coloured(b, P3)
    assert ks_satisfied(b, P3)


def test_classify_tilted_basis_all_uncoloured():
    b = _tilted_basis_3d()
    assert classify_basis(b, P3) == [Colour.UNCOLOURED] * 3
    assert not is_fully_coloured(b, P3)
    assert ks_satisfied(b, P3)  # no black pair, not all white


def test_ks_violations_under_nonstandard_bounds():
    # Shrinking the cap bound lets two orthogonal vectors both go Black.
    s = math.sqrt(0.5)
    tilted = OrthonormalBasis(
        np.array([[s, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, s]])
    )
    two_black = bounds_stand_in(3, 0.1, 0.2)
    assert not ks_satisfied(tilted, two_black)
    # Widening the belt swallows a whole basis in White.
    all_white = bounds_stand_in(3, 0.8, 0.9)
    b = _tilted_basis_3d()
    assert classify_basis(b, all_white) == [Colour.WHITE] * 3
    assert is_fully_coloured(b, all_white)
    assert not ks_satisfied(b, all_white)


@given(st.integers(min_value=0, max_value=10**6), st.integers(0, 2))
def test_antipodal_symmetry(index, column):
    b = sample_basis(3, np.random.default_rng(index))
    m = b.matrix.copy()
    m[:, column] *= -1.0
    assert classify_basis(OrthonormalBasis(m), P3) == classify_basis(b, P3)


@given(st.integers(min_value=0, max_value=10**6), st.floats(0.0, 2.0 * math.pi))
def test_rotation_about_axis_preserves_colour(index, angle):
    b = sample_basis(3, np.random.default_rng(index))
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert classify_basis(OrthonormalBasis(rot @ b.matrix), P3) == classify_basis(b, P3)


def _random_orthonormal_pairs(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, 2) orthonormal 2-frames, plain Gram-Schmidt."""
    a = rng.standard_normal((count, dim, 2))
    u = a[:, :, 0] / np.linalg.norm(a[:, :, 0], axis=1)[:, None]
    w = a[:, :, 1] - np.einsum("ij,ij->i", u, a[:, :, 1])[:, None] * u
    w /= np.linalg.norm(w, axis=1)[:, None]
    return np.stack([u, w], axis=2)


def test_no_orthogonal_black_pair_exists():
    # The cap bound 1/sqrt(2) makes two orthogonal Black vectors
    # geometrically impossible: their axis components would need
    # squared sum above 1.
    rng = np.random.default_rng(2024_08_19)
    for dim in (3, 4, 6, 8):
        frames = _random_orthonormal_pairs(dim, 250_000, rng)
        t = np.abs(frames[:, -1, :])
        both_black = (t > 1.0 / math.sqrt(2.0)).all(axis=1)
        assert int(both_black.sum()) == 0


def test_fully_coloured_implies_exactly_one_black():
    rng = np.random.default_rng(7)
    for dim in (3, 4, 5):
        params = ColouringParams(dim=dim)
        for _ in range(200):
            b = sample_basis(dim, rng)
            colours = classify_basis(b, params)
            assert ks_satisfied(b, params)
            if Colour.UNCOLOURED not in colours:
                assert colours.count(Colour.BLACK) == 1


def _per_vector(basis: OrthonormalBasis, params: ColouringParams) -> tuple[list[Colour], bool]:
    """Colours and the two constraints, each vector coloured on its own."""
    colours = column_colours(basis, params)
    return colours, colours.count(Colour.BLACK) <= 1 and colours.count(Colour.WHITE) < len(colours)


def _boundary_bases() -> list[tuple[OrthonormalBasis, ColouringParams]]:
    s = math.sqrt(0.5)
    # Last row (s, 0, s): two components exactly on the cap bound.
    on_cap = OrthonormalBasis(np.array([[s, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, s]]))
    # Hadamard / 2: every component exactly on the dim-4 belt bound.
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    # Last row (w, 0, c): the first component exactly on the dim-3 belt bound.
    w = P3.white_bound
    c = math.sqrt(1.0 - w * w)
    on_belt_3d = OrthonormalBasis(np.array([[c, 0.0, -w], [0.0, 1.0, 0.0], [w, 0.0, c]]))
    return [(on_cap, P3), (OrthonormalBasis(h), P4), (_tilted_basis_3d(), P3), (on_belt_3d, P3)]


def test_basis_predicates_match_per_vector_colours():
    rng = np.random.default_rng(2026)
    cases = [(OrthonormalBasis(np.eye(dim)), ColouringParams(dim=dim)) for dim in (3, 4, 8)]
    cases += _boundary_bases()
    for dim in (3, 4, 5, 8, 16):
        cases += [(sample_basis(dim, rng), ColouringParams(dim=dim)) for _ in range(100)]
    # Bounds under which the constraints can fail.
    cases += [(sample_basis(3, rng), bounds_stand_in(3, 0.6, 0.65)) for _ in range(100)]
    cases += [(sample_basis(3, rng), bounds_stand_in(3, 0.1, 0.2)) for _ in range(100)]
    satisfied = set()
    for basis, params in cases:
        colours, ok = _per_vector(basis, params)
        assert classify_basis(basis, params) == colours
        assert ks_satisfied(basis, params) is ok
        satisfied.add(ok)
    assert satisfied == {True, False}


def test_basis_components_on_a_bound_stay_uncoloured():
    on_cap, on_belt, tilted, on_belt_3d = (classify_basis(b, p) for b, p in _boundary_bases())
    assert on_cap == [Colour.UNCOLOURED, Colour.WHITE, Colour.UNCOLOURED]
    assert on_belt == [Colour.UNCOLOURED] * 4
    assert tilted == [Colour.UNCOLOURED] * 3
    assert on_belt_3d == [Colour.UNCOLOURED, Colour.WHITE, Colour.BLACK]


def test_basis_predicates_dimension_mismatch():
    b = OrthonormalBasis(np.eye(4))
    with pytest.raises(ValueError):
        classify_basis(b, P3)
    with pytest.raises(ValueError):
        ks_satisfied(b, P3)


def test_basis_matrix_is_read_only():
    source = np.eye(3)
    b = OrthonormalBasis(source)
    with pytest.raises(ValueError):
        b.matrix[0, 0] = 0.5
    source[0, 0] = 0.5
    assert b.matrix is b.matrix
    assert np.array_equal(b.matrix, np.eye(3))
