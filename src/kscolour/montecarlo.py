"""Monte Carlo oracle for the colouring: samples vectors and bases
uniformly and measures the coloured fractions empirically.

Sampling is organised in fixed-size chunks of 65536 draws.  Chunk j of
a run with seed s uses its own counter-based generator keyed by
(s, j), so the stream for a chunk depends only on the seed and the
chunk index.  Each chunk is drawn in row slices of at most
_SLICE_DOUBLES normals (8 MiB), and runs above dimension 2^20, whose
one row would exceed that, are refused.  Philox yields the same
normals whether a chunk is drawn in one call or in slices, so results
are integer counts that do not depend on the slice size.

Each row's norm is formed once, as the square root of its
``einsum("ij,ij->i")`` sum of squares.  A count divides only the
absolute components it reads by that norm: the vector estimator its
distinguished column, the basis estimators the whole row, in place.
The einsum norm may differ from ``np.linalg.norm`` by a few ulp, which
moved none of the counts the tests pin for given (dim, samples, seed),
so a change to the stream or to this arithmetic shows as a failure.

A basis is fully coloured, or breaks a constraint, according to the
distinguished components of its vectors, which form one row of its
matrix.  A row of a Haar-random orthogonal matrix is a uniform unit
vector (the transpose of a Haar matrix is Haar), so the basis
estimators sample that row directly.  Each row's White count and Black
count are the mat-vec products of its masks with a vector of ones:
float sums, exact for any row length allowed.  A row is fully coloured
when the two counts add up to the dimension.  That holds only because
the masks are disjoint, which needs the belt bound below the cap bound:
1/sqrt(N) < 1/sqrt(2) for every N >= 3.  Whole bases, for callers that
want them, come from the QR decomposition of a Gaussian matrix with
the signs of R's diagonal moved into Q (Mezzadri, Notices AMS 54,
2007), which makes Q Haar-distributed.
"""

import math
from typing import Iterator, NamedTuple

import numpy as np

from .colouring import ColouringParams, OrthonormalBasis, colour_masks
from .numerics import MAX_SAMPLED_DIM, check_dimension, check_run

__all__ = [
    "CHUNK_SAMPLES",
    "RNG_FAMILY",
    "Estimate",
    "ViolationReport",
    "sample_basis",
    "estimate_vector_fractions",
    "estimate_basis_fraction",
    "verify_constraints",
]

CHUNK_SAMPLES = 1 << 16
RNG_FAMILY = "philox4x64"

# Most normals one draw asks for (8 MiB of doubles).  A full chunk fits
# up to dimension 16; beyond that a chunk is drawn in several slices,
# down to one row per slice at MAX_SAMPLED_DIM.
_SLICE_DOUBLES = MAX_SAMPLED_DIM
_DEGENERATE = 1e-8


class Estimate(NamedTuple):
    """A Bernoulli Monte Carlo estimate with its exact-formula standard error."""

    value: float
    samples: int
    seed: int

    @property
    def std_error(self) -> float:
        return math.sqrt(self.value * (1.0 - self.value) / self.samples)


class ViolationReport(NamedTuple):
    """Counts of colouring-constraint violations over sampled bases."""

    samples: int
    black_pair_count: int
    all_white_count: int
    full_without_one_black_count: int

    @property
    def total_violations(self) -> int:
        return self.black_pair_count + self.all_white_count + self.full_without_one_black_count

    @property
    def clean(self) -> bool:
        return self.total_violations == 0


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _slices(dim: int, samples: int) -> Iterator[tuple[int, list[int]]]:
    """(chunk index, rows of each draw from that chunk's stream) per chunk."""
    step = max(1, _SLICE_DOUBLES // dim)
    for index, start in enumerate(range(0, samples, CHUNK_SAMPLES)):
        count = min(CHUNK_SAMPLES, samples - start)
        yield index, [min(step, count - offset) for offset in range(0, count, step)]


def _normal_rows(dim: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(count, dim) Gaussian rows, none near the origin, and their norms.

    A row divided by its norm is a uniformly distributed unit vector.
    """
    rows = rng.standard_normal((count, dim))
    while True:
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        idx = np.flatnonzero(norms < _DEGENERATE)
        if not idx.size:
            return rows, norms
        rows[idx] = rng.standard_normal((idx.size, dim))


def _row_stream(dim: int, samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The run's Gaussian rows and their norms, one slice at a time."""
    for index, sizes in _slices(dim, samples):
        rng = _chunk_rng(seed, index)
        for rows in sizes:
            yield _normal_rows(dim, rows, rng)


def _abs_unit_rows(dim: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Absolute components of the run's uniform unit rows, one slice at a time."""
    for rows, norms in _row_stream(dim, samples, seed):
        np.abs(rows, out=rows)
        rows /= norms[:, None]
        yield rows


def _colour_counts(t: np.ndarray, params: ColouringParams) -> tuple[np.ndarray, np.ndarray]:
    """Each row's White count and Black count, as floats.

    The masks are disjoint (white_bound < black_bound), so the counts
    add up to the row length exactly when every component is coloured.
    """
    white, black = colour_masks(t, params)
    ones = np.ones(t.shape[1])
    return white @ ones, black @ ones


def sample_basis(dim: int, rng: np.random.Generator) -> OrthonormalBasis:
    """One Haar-uniform ordered orthonormal basis of R^dim.

    QR of a Gaussian matrix, with column j of Q multiplied by the sign
    of R[j, j]: the factorisation with positive diagonal, whose Q is
    Haar-distributed.
    """
    check_dimension(dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return OrthonormalBasis(q * np.copysign(1.0, r.diagonal()))


def estimate_vector_fractions(dim: int, samples: int, seed: int) -> tuple[Estimate, Estimate, Estimate]:
    """Empirical (white, black, uncoloured) area fractions in R^dim.

    Parameters
    ----------
    dim : int
        Dimension, at least 3.  Bounds are the defaults for that
        dimension: belt 1/sqrt(dim), caps 1/sqrt(2), last axis.
    samples : int
        Number of unit vectors to draw.
    seed : int
        Unsigned 64-bit stream seed.

    Returns
    -------
    (white, black, uncoloured) Estimates.  The uncoloured value is the
    complement 1 - white - black, so the three values sum to 1 exactly.
    """
    check_run(dim, samples, seed)
    params = ColouringParams(dim=dim)
    white_count = 0
    black_count = 0
    for rows, norms in _row_stream(dim, samples, seed):
        t = np.abs(rows[:, -1])
        t /= norms
        white, black = colour_masks(t, params)
        white_count += int(np.count_nonzero(white))
        black_count += int(np.count_nonzero(black))
    white_value = white_count / samples
    black_value = black_count / samples
    uncoloured_value = 1.0 - (white_value + black_value)
    return (
        Estimate(white_value, samples, seed),
        Estimate(black_value, samples, seed),
        Estimate(uncoloured_value, samples, seed),
    )


def estimate_basis_fraction(dim: int, samples: int, seed: int) -> Estimate:
    """Empirical fraction of Haar-random bases that are fully coloured.

    A basis counts when every vector is strictly White or strictly
    Black under the default bounds for ``dim``.  Each basis is
    represented by its distinguished row, drawn from the same chunked
    streams as estimate_vector_fractions.
    """
    check_run(dim, samples, seed)
    params = ColouringParams(dim=dim)
    hits = 0
    for t in _abs_unit_rows(dim, samples, seed):
        whites, blacks = _colour_counts(t, params)
        hits += int(np.count_nonzero(whites + blacks == dim))
    return Estimate(hits / samples, samples, seed)


def verify_constraints(dim: int, samples: int, seed: int) -> ViolationReport:
    """Count colouring-constraint violations over Haar-random bases.

    Checks, per sampled basis: an orthogonal Black pair (two or more
    Black vectors), an all-White basis, and a fully coloured basis
    whose Black count is not exactly one.  Under the default bounds
    all three counts must be zero; any non-zero count falsifies the
    geometry, not the sampler.
    """
    check_run(dim, samples, seed)
    params = ColouringParams(dim=dim)
    pairs = 0
    all_white = 0
    bad_full = 0
    for t in _abs_unit_rows(dim, samples, seed):
        whites, blacks = _colour_counts(t, params)
        pairs += int(np.count_nonzero(blacks >= 2))
        all_white += int(np.count_nonzero(whites == dim))
        bad_full += int(np.count_nonzero((whites + blacks == dim) & (blacks != 1)))
    return ViolationReport(
        samples=samples,
        black_pair_count=pairs,
        all_white_count=all_white,
        full_without_one_black_count=bad_full,
    )
