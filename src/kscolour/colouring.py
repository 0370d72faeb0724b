"""Cap-and-belt colouring of unit vectors in R^N and the basis predicates.

A direction is Black when its distinguished component exceeds the cap
bound in absolute value, White when that component is smaller than the
belt bound, and Uncoloured in the closed ring between.  Both
comparisons are strict, so vectors sitting exactly on either boundary
stay Uncoloured.  Black plays the role of truth value 1, White of 0;
the two constraints a colouring must respect on orthonormal bases are
"never two Black vectors" and "never an all-White basis".
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Colour",
    "ColouringParams",
    "UnitVector",
    "OrthonormalBasis",
    "colour_masks",
    "colour_of",
    "classify_basis",
    "is_fully_coloured",
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
    """Dimension, the two strict bounds, and which axis is distinguished.

    ``white_bound`` defaults to 1/sqrt(dim) (the belt that just
    excludes any basis from being all White) and ``black_bound`` to
    1/sqrt(2) (caps narrow enough that two Black vectors can never be
    orthogonal).  ``axis_index`` defaults to the last coordinate.
    """

    dim: int
    white_bound: float | None = None
    black_bound: float = _BLACK_BOUND_DEFAULT
    axis_index: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ValueError("dim must be an integer")
        if self.dim < 3:
            raise ValueError("dim must be at least 3")
        if self.white_bound is None:
            object.__setattr__(self, "white_bound", 1.0 / math.sqrt(self.dim))
        if self.axis_index is None:
            object.__setattr__(self, "axis_index", self.dim - 1)
        if not (0.0 < self.white_bound < self.black_bound < 1.0):
            raise ValueError(
                f"bounds must satisfy 0 < white_bound < black_bound < 1, "
                f"got white_bound={self.white_bound!r}, black_bound={self.black_bound!r}"
            )
        if not isinstance(self.axis_index, int) or isinstance(self.axis_index, bool):
            raise ValueError("axis_index must be an integer")
        if not (0 <= self.axis_index < self.dim):
            raise ValueError(f"axis_index {self.axis_index!r} out of range for dim {self.dim}")


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
        if not np.isfinite(arr).all():
            raise ValueError("components must be finite")
        norm = float(np.linalg.norm(arr))
        deviation = abs(norm - 1.0)
        if deviation > RENORM_TOLERANCE:
            raise ValueError(f"norm {norm!r} deviates from 1 by more than {RENORM_TOLERANCE}")
        if deviation > NORM_TOLERANCE:
            arr = arr / norm
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.components)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An ordered orthonormal basis of R^N, one UnitVector per dimension."""

    vectors: tuple[UnitVector, ...]

    def __post_init__(self) -> None:
        vecs = tuple(self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise ValueError("basis must contain at least one vector")
        if not all(isinstance(v, UnitVector) for v in vecs):
            raise ValueError("basis entries must be UnitVector instances")
        dim = vecs[0].dim
        if any(v.dim != dim for v in vecs):
            raise ValueError("basis vectors must share one dimension")
        if len(vecs) != dim:
            raise ValueError(f"basis in dimension {dim} needs exactly {dim} vectors, got {len(vecs)}")
        m = self.matrix
        gram = m.T @ m
        off = gram - np.diag(np.diag(gram))
        worst = float(np.abs(off).max())
        if worst > ORTHO_TOLERANCE:
            raise ValueError(f"vectors are not pairwise orthogonal: |<u,v>| up to {worst:.3e}")

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    @property
    def matrix(self) -> np.ndarray:
        """Matrix whose column j is basis vector j."""
        return np.column_stack([v.components for v in self.vectors])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "OrthonormalBasis":
        """Build a basis from the columns of a square orthogonal matrix."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        return cls(tuple(UnitVector(m[:, j]) for j in range(m.shape[1])))

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)


def colour_masks(t: float | np.ndarray, params: ColouringParams) -> tuple:
    """(white, black) tests on absolute distinguished components ``t``.

    Strictly below the belt bound is White, strictly above the cap
    bound is Black, anything else Uncoloured.  ``t`` may be a float,
    giving two bools, or an ndarray, giving two boolean arrays.
    """
    return t < params.white_bound, t > params.black_bound


def colour_of(vector: UnitVector, params: ColouringParams) -> Colour:
    """Colour of one unit vector under the given cap and belt bounds."""
    if vector.dim != params.dim:
        raise ValueError(f"vector dimension {vector.dim} does not match params dimension {params.dim}")
    white, black = colour_masks(abs(float(vector.components[params.axis_index])), params)
    if black:
        return Colour.BLACK
    if white:
        return Colour.WHITE
    return Colour.UNCOLOURED


def classify_basis(basis: OrthonormalBasis, params: ColouringParams) -> list[Colour]:
    """Colours of the basis vectors, in basis order."""
    return [colour_of(v, params) for v in basis]


def is_fully_coloured(basis: OrthonormalBasis, params: ColouringParams) -> bool:
    """True when no vector of the basis is Uncoloured."""
    return Colour.UNCOLOURED not in classify_basis(basis, params)


def ks_satisfied(basis: OrthonormalBasis, params: ColouringParams) -> bool:
    """True when the basis violates neither colouring constraint.

    The constraints: at most one Black vector, and not every vector
    White.  A fully coloured basis that satisfies both has exactly one
    Black vector.
    """
    colours = classify_basis(basis, params)
    blacks = sum(1 for c in colours if c is Colour.BLACK)
    whites = sum(1 for c in colours if c is Colour.WHITE)
    return blacks <= 1 and whites < len(colours)
