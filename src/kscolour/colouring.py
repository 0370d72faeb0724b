"""Cap-and-belt colouring of unit vectors in R^N and the basis predicates.

The distinguished component of a vector is its last coordinate.  A
direction is Black when that component exceeds the cap bound in
absolute value, White when it is smaller than the belt bound, and
Uncoloured in the closed ring between.  Both comparisons are strict,
so vectors sitting exactly on either boundary stay Uncoloured.  Black plays the role of truth value 1, White of 0;
the two constraints a colouring must respect on orthonormal bases are
"never two Black vectors" and "never an all-White basis".
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import check_dimension

__all__ = [
    "Colour",
    "ColouringParams",
    "UnitVector",
    "OrthonormalBasis",
    "colour_masks",
    "colour_of",
    "classify_basis",
    "ks_satisfied",
    "NORM_TOLERANCE",
    "RENORM_TOLERANCE",
    "ORTHO_TOLERANCE",
]

# |norm - 1| up to NORM_TOLERANCE is accepted as already unit; up to
# RENORM_TOLERANCE the vector is silently renormalized; beyond that
# construction fails.
NORM_TOLERANCE = 1e-12
RENORM_TOLERANCE = 1e-9
ORTHO_TOLERANCE = 1e-12

# math.sqrt(0.5) is the correctly rounded double for 1/sqrt(2);
# 1.0/math.sqrt(2.0) lands one ulp below it.
_BLACK_BOUND_DEFAULT = math.sqrt(0.5)


class Colour(Enum):
    WHITE = "white"
    BLACK = "black"
    UNCOLOURED = "uncoloured"

    @property
    def truth_value(self) -> int | None:
        """1 for Black, 0 for White, None when no value is assigned."""
        if self is Colour.BLACK:
            return 1
        if self is Colour.WHITE:
            return 0
        return None


@dataclass(frozen=True)
class ColouringParams:
    """Dimension and the two strict bounds; the last coordinate is distinguished.

    ``white_bound`` defaults to 1/sqrt(dim) (the belt that just
    excludes any basis from being all White) and ``black_bound`` to
    1/sqrt(2) (caps narrow enough that two Black vectors can never be
    orthogonal).
    """

    dim: int
    white_bound: float | None = None
    black_bound: float = _BLACK_BOUND_DEFAULT

    def __post_init__(self) -> None:
        check_dimension(self.dim)
        if self.white_bound is None:
            object.__setattr__(self, "white_bound", 1.0 / math.sqrt(self.dim))
        if not (0.0 < self.white_bound < self.black_bound < 1.0):
            raise ValueError(
                f"bounds must satisfy 0 < white_bound < black_bound < 1, "
                f"got white_bound={self.white_bound!r}, black_bound={self.black_bound!r}"
            )


def _unit_columns(m: np.ndarray) -> np.ndarray:
    """``m``, a float matrix, with every column of unit norm.

    A column whose norm deviates from 1 by more than ``NORM_TOLERANCE``
    but at most ``RENORM_TOLERANCE`` is divided by its norm; a larger
    deviation, or a non-finite entry, raises ValueError.  The other
    columns keep their bits.
    """
    sq_norms = np.einsum("ij,ij->j", m, m)
    # Only a non-finite sum of squares can hide a non-finite entry, so
    # the matrix is scanned only then.
    if not np.isfinite(sq_norms).all() and not np.isfinite(m).all():
        raise ValueError("components must be finite")
    norms = np.sqrt(sq_norms)
    deviation = np.abs(norms - 1.0)
    worst = int(deviation.argmax())
    if deviation[worst] > RENORM_TOLERANCE:
        raise ValueError(f"norm {float(norms[worst])!r} deviates from 1 by more than {RENORM_TOLERANCE}")
    renorm = deviation > NORM_TOLERANCE
    if renorm.any():
        m = m / np.where(renorm, norms, 1.0)
    return m


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A unit vector in R^N with a frozen component array.

    Inputs whose norm deviates from 1 by more than ``NORM_TOLERANCE``
    but at most ``RENORM_TOLERANCE`` are renormalized; larger
    deviations are rejected.
    """

    components: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.components, dtype=float)
        if arr.ndim != 1:
            raise ValueError("components must be one-dimensional")
        if arr.shape[0] < 1:
            raise ValueError("components must be non-empty")
        arr = _unit_columns(arr[:, None])[:, 0]
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.components)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An ordered orthonormal basis of R^N: column j of ``matrix`` is vector j.

    The matrix is copied to float and must be square and non-empty.  Its
    columns must be unit vectors, under the rule UnitVector applies, and
    pairwise orthogonal.  The copy is kept read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
        m = _unit_columns(m)
        gram = m.T @ m
        np.fill_diagonal(gram, 0.0)
        worst = float(np.abs(gram).max())
        if worst > ORTHO_TOLERANCE:
            raise ValueError(f"vectors are not pairwise orthogonal: |<u,v>| up to {worst:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        """One UnitVector per column, in basis order."""
        return (UnitVector(column) for column in self.matrix.T)


def colour_masks(t: float | np.ndarray, params: ColouringParams) -> tuple:
    """(white, black) tests on absolute distinguished components ``t``.

    Strictly below the belt bound is White, strictly above the cap
    bound is Black, anything else Uncoloured.  ``t`` may be a float,
    giving two bools, or an ndarray, giving two boolean arrays.
    """
    return t < params.white_bound, t > params.black_bound


def _colour(white: bool, black: bool) -> Colour:
    if black:
        return Colour.BLACK
    if white:
        return Colour.WHITE
    return Colour.UNCOLOURED


def colour_of(vector: UnitVector, params: ColouringParams) -> Colour:
    """Colour of one unit vector under the given cap and belt bounds."""
    if vector.dim != params.dim:
        raise ValueError(f"vector dimension {vector.dim} does not match params dimension {params.dim}")
    return _colour(*colour_masks(abs(float(vector.components[-1])), params))


def _row_masks(basis: OrthonormalBasis, params: ColouringParams) -> list[tuple[bool, bool]]:
    """(white, black) of each basis vector, in basis order.

    Reads the distinguished row of the basis matrix once, as floats:
    for the few components of one basis, scalar tests are faster than
    array ones.
    """
    if basis.dim != params.dim:
        raise ValueError(f"basis dimension {basis.dim} does not match params dimension {params.dim}")
    return [colour_masks(abs(t), params) for t in basis.matrix[-1].tolist()]


def classify_basis(basis: OrthonormalBasis, params: ColouringParams) -> list[Colour]:
    """Colours of the basis vectors, in basis order."""
    return [_colour(white, black) for white, black in _row_masks(basis, params)]


def ks_satisfied(basis: OrthonormalBasis, params: ColouringParams) -> bool:
    """True when the basis violates neither colouring constraint.

    The constraints: at most one Black vector, and not every vector
    White.  A fully coloured basis that satisfies both has exactly one
    Black vector.
    """
    masks = _row_masks(basis, params)
    return sum(black for _, black in masks) <= 1 and not all(white for white, _ in masks)
