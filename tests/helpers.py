"""Test-only helpers on top of the colouring and Monte Carlo layers.

The library has no use for these; the quadrature routes to the area
and basis fractions and the distribution, determinism and whole-basis
checks do.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kscolour import montecarlo
from kscolour.colouring import Colour, ColouringParams, OrthonormalBasis
from kscolour.numerics import check_run


def belt_edge_angle(n_dim: int) -> float:
    """Polar angle where the White belt ends: cos(theta) = 1/sqrt(N).

    The arcsine of sin(theta) = sqrt((N-1)/N) would magnify its
    rounding by sqrt(N).
    """
    return math.acos(1.0 / math.sqrt(n_dim))


def quad(f, a: float, b: float, epsabs: float = 1e-14) -> float:
    """Integral of ``f`` over [a, b] by scipy's adaptive quadrature.

    The suite's quadrature route, independent of the library's closed
    forms and series.  Asks for max(epsabs, 1e-13 * |integral|) and
    turns scipy's warning that this was not reached into an error;
    epsabs = 0 keeps the digits of tiny integrals.  Skips the calling
    test when scipy is missing.
    """
    integrate = pytest.importorskip("scipy.integrate")
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, epsabs=epsabs, epsrel=1e-13, limit=200)
    return value


def sample_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One uniformly distributed unit vector in R^dim."""
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("dimension must be a positive integer")
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def axis_component_samples(dim: int, samples: int, seed: int) -> np.ndarray:
    """Distinguished components of uniformly sampled unit vectors.

    Returns the signed last coordinate of each sampled vector, drawn
    with the same chunked streams the estimators use, for distribution
    checks against the exact marginal density proportional to
    (1 - t^2)^((dim-3)/2).
    """
    check_run(dim, samples, seed)
    out = np.empty(samples)
    start = 0
    for rows, norms in montecarlo._row_stream(dim, samples, seed):
        out[start : start + len(rows)] = rows[:, -1] / norms
        start += len(rows)
    return out


def column_colours(basis: OrthonormalBasis, params: ColouringParams) -> list[Colour]:
    """Colours of the basis vectors, each column coloured on its own.

    Compares each column's |last component| with the bounds by explicit
    strict ``<`` and ``>``, sharing no code with the library's predicate.
    """
    colours = []
    for j in range(basis.dim):
        t = abs(float(basis.matrix[-1, j]))
        if t > params.black_bound:
            colours.append(Colour.BLACK)
        elif t < params.white_bound:
            colours.append(Colour.WHITE)
        else:
            colours.append(Colour.UNCOLOURED)
    return colours


def is_fully_coloured(basis: OrthonormalBasis, params: ColouringParams) -> bool:
    """True when no vector of the basis is Uncoloured, by ``column_colours``."""
    return Colour.UNCOLOURED not in column_colours(basis, params)


def bounds_stand_in(dim: int, white_bound: float, black_bound: float) -> SimpleNamespace:
    """A stand-in for ColouringParams with bounds of the caller's choice.

    ColouringParams derives both bounds from the dimension; the
    predicates read only ``dim``, ``white_bound`` and ``black_bound``,
    so tests that need a colouring under which the constraints can
    fail, or a belt of another width, pass this instead.
    """
    return SimpleNamespace(dim=dim, white_bound=white_bound, black_bound=black_bound)
