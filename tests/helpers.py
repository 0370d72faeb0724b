"""Test-only helpers on top of the colouring and Monte Carlo layers.

The library has no use for these; the quadrature route to the area
fractions and the distribution, determinism and whole-basis checks do.
"""

import math

import numpy as np

from kscolour import montecarlo
from kscolour.colouring import Colour, ColouringParams, OrthonormalBasis, UnitVector, classify_basis


def belt_edge_angle(n_dim: int) -> float:
    """Polar angle where the White belt ends: cos(theta) = 1/sqrt(N).

    The arcsine of sin(theta) = sqrt((N-1)/N) would magnify its
    rounding by sqrt(N).
    """
    return math.acos(1.0 / math.sqrt(n_dim))


def sample_unit_vector(dim: int, rng: np.random.Generator) -> UnitVector:
    """One uniformly distributed unit vector in R^dim."""
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("dimension must be a positive integer")
    return UnitVector(montecarlo._unit_rows(dim, 1, rng)[0])


def axis_component_samples(dim: int, samples: int, seed: int) -> np.ndarray:
    """Distinguished components of uniformly sampled unit vectors.

    Returns the signed last coordinate of each sampled vector, drawn
    with the same chunked streams the estimators use, for distribution
    checks against the exact marginal density proportional to
    (1 - t^2)^((dim-3)/2).
    """
    montecarlo._check_run(dim, samples, seed)
    out = np.empty(samples)
    start = 0
    for rows in montecarlo._row_stream(dim, samples, seed):
        out[start : start + len(rows)] = rows[:, -1]
        start += len(rows)
    return out


def is_fully_coloured(basis: OrthonormalBasis, params: ColouringParams) -> bool:
    """True when no vector of the basis is Uncoloured."""
    return Colour.UNCOLOURED not in classify_basis(basis, params)
