"""Cap-and-belt colouring of R^N and its predicates on orthonormal bases.

The distinguished component of a vector is its last coordinate.  A
direction is Black when that component exceeds the cap bound in
absolute value, White when it is smaller than the belt bound, and
Uncoloured in the closed ring between.  Both comparisons are strict,
so vectors sitting exactly on either boundary stay Uncoloured.  The
dimension fixes both bounds: the caps start at 1/sqrt(2) and the belt
ends at 1/sqrt(dim), as in Appleby's construction carried to R^N.
Black plays the role of truth value 1, White of 0; the two constraints
a colouring must respect on orthonormal bases are "never two Black
vectors" and "never an all-White basis".  A basis is a real matrix M
of columns, |M^T M - I| <= ORTHO_TOLERANCE entrywise, never renormalised.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import check_dimension

__all__ = [
    "Colour",
    "ColouringParams",
    "OrthonormalBasis",
    "colour_masks",
    "classify_basis",
    "ks_satisfied",
    "ORTHO_TOLERANCE",
]

# The largest entry of |M^T M - I| a basis matrix M may have.
ORTHO_TOLERANCE = 1e-12

# math.sqrt(0.5) is the correctly rounded double for 1/sqrt(2);
# 1.0/math.sqrt(2.0) lands one ulp below it.
_BLACK_BOUND = math.sqrt(0.5)


class Colour(Enum):
    WHITE = "white"
    BLACK = "black"
    UNCOLOURED = "uncoloured"


@dataclass(frozen=True)
class ColouringParams:
    """The colouring of the unit sphere in R^dim; the last coordinate is distinguished.

    The dimension fixes both strict bounds, which are stored, not
    settable: ``white_bound`` is 1/sqrt(dim), the belt that just
    excludes any basis from being all White, and ``black_bound`` is
    1/sqrt(2), caps narrow enough that two Black vectors can never be
    orthogonal.
    """

    dim: int
    white_bound: float = field(init=False)
    black_bound: float = field(init=False, default=_BLACK_BOUND)

    def __post_init__(self) -> None:
        check_dimension(self.dim)
        object.__setattr__(self, "white_bound", 1.0 / math.sqrt(self.dim))


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An ordered orthonormal basis of R^N: column j of ``matrix`` is vector j.

    The matrix must be real (a complex one is refused, not truncated);
    it is copied to float and must be square, non-empty and finite.  One
    check covers unit norms and orthogonality: every entry of M^T M - I
    must be at most ``ORTHO_TOLERANCE`` in absolute value.  Nothing is
    renormalised: the copy keeps its bits and is kept read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.dtype.kind == "c":
            raise ValueError(f"matrix must be real, got dtype {m.dtype}")
        m = np.array(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
        # An entry above about 1e154 overflows the product: refused, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m.T @ m
            gram.flat[:: len(m) + 1] -= 1.0
            worst = float(np.abs(gram).max())
        if not worst <= ORTHO_TOLERANCE:
            # A non-finite entry leaves a non-finite diagonal, so it is refused here.
            if not np.isfinite(m).all():
                raise ValueError("components must be finite")
            raise ValueError(f"matrix is not orthonormal: |M^T M - I| up to {worst:.3e} exceeds {ORTHO_TOLERANCE}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def classify_basis(basis: OrthonormalBasis, params: ColouringParams) -> list[Colour]:
    """Colours of the basis vectors, in basis order.

    Reads the distinguished row of the basis matrix once, as floats:
    for the few components of one basis, scalar tests are faster than
    array ones.
    """
    if basis.dim != params.dim:
        raise ValueError(f"basis dimension {basis.dim} does not match params dimension {params.dim}")
    return [_colour(*colour_masks(abs(t), params)) for t in basis.matrix[-1].tolist()]


def ks_satisfied(basis: OrthonormalBasis, params: ColouringParams) -> bool:
    """True when the basis violates neither colouring constraint.

    The constraints: at most one Black vector, and not every vector
    White.  A fully coloured basis that satisfies both has exactly one
    Black vector.
    """
    colours = classify_basis(basis, params)
    return colours.count(Colour.BLACK) <= 1 and colours.count(Colour.WHITE) < len(colours)
