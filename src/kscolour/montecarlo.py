"""Monte Carlo oracle for the colouring: samples vectors and bases
uniformly and measures the coloured fractions empirically.

Every estimator reads one stream, and ``_row_stream`` is the one place
that keys it, slices it and takes its norms.  Sampling is organised in
fixed-size chunks of 65536 draws.  Chunk j of a run with seed s uses
its own counter-based generator keyed by (s, j), so the stream for a
chunk depends only on the seed and the chunk index.  Each chunk is
drawn in row slices of at most _SLICE_DOUBLES normals (64 KiB), or of
one row where a row is longer.  ``numerics.MAX_SAMPLED_DIM`` caps a
row at 2^20 normals (8 MiB), and longer runs are refused.  Philox
yields the same normals whether a chunk is drawn in one call or in
slices, so results are integer counts that do not depend on the slice
size.  Each slice is drawn once and never re-drawn, because a row
fails to divide to a unit vector only when every component is below
about 1e-154 in size, which a standard normal draw is with probability
below 1e-150.

Each row's norm is formed once, as the square root of its
``einsum("ij,ij->i")`` sum of squares.  A count divides only the
absolute components it reads by that norm: the vector estimator its
distinguished column, ``_count_table`` the whole row, in place.
The einsum norm may differ from ``np.linalg.norm`` by a few ulp, which
moved none of the counts the tests pin for given (dim, samples, seed),
so a change to the stream or to this arithmetic shows as a failure.

A basis is fully coloured, or breaks a constraint, according to the
distinguished components of its vectors, which form one row of its
matrix.  A row of a Haar-random orthogonal matrix is a uniform unit
vector (the transpose of a Haar matrix is Haar), so the basis
estimators sample that row directly.  ``_count_table`` alone colours
it and reduces rows to counts, and both basis estimators read cells of
its table.  Twice a row's White and Black counts are the mat-vecs of
its masks with a vector of twos: float sums, exact for any row length
allowed.  A row has an Uncoloured vector when the two counts add up to
less than the dimension.  That holds only because the masks are
disjoint, which needs the belt bound below the cap bound:
1/sqrt(N) < 1/sqrt(2) for every N >= 3.  Whole bases, for callers that
want them, come from the QR decomposition of a Gaussian matrix with
the signs of R's diagonal moved into Q (Mezzadri, Notices AMS 54,
2007), which makes Q Haar-distributed.

Those mat-vecs are the only BLAS calls, and one thread is enough for
them.  ``cli.run()`` holds OpenBLAS to one thread.  A caller that
imports this module runs it at its default thread count, but a 64 KiB
slice keeps each mat-vec too small to wake the sleeping workers, which
would busy-wait on the caller's CPU.  At dimensions 200, 5000 and 9000
``verify_constraints`` took CPU time equal to its wall time on two
threads; with 8 MiB slices it took twice its wall time (median of 15
calls after a first one, 2-vCPU Xeon VM).  A row of 20000 components,
drawn one row per slice, still wakes them, so callers that sample such
rows should set ``OPENBLAS_NUM_THREADS=1`` before numpy loads.
"""

import math
from typing import Iterator, NamedTuple

import numpy as np

from .colouring import ColouringParams, OrthonormalBasis, colour_masks
from .numerics import check_dimension, check_run

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

# Most normals one slice holds, unless one row is longer: 64 KiB of
# doubles, 512 rows of R^16 or 2730 of R^3.  A slice this size fits in
# cache, and its arrays stay under glibc's 128 KiB mmap threshold, so
# they are reused from the heap instead of mapped and faulted in afresh:
# over 24 requests of perfbench's sampled mix (2-vCPU Xeon VM), 2^13
# took 7 minor faults and 2^15 to 2^17 took 7k-11k.  Its mat-vecs stay
# on one BLAS thread.  2^12 and 2^14 were slower in the median of 5.
_SLICE_DOUBLES = 1 << 13


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
    def clean(self) -> bool:
        return self.black_pair_count == self.all_white_count == self.full_without_one_black_count == 0


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _row_stream(dim: int, samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The run's Gaussian rows and their norms, one slice at a time.

    Chunk j, the run's rows from j * CHUNK_SAMPLES on, is drawn in
    order from ``_chunk_rng(seed, j)``, in slices of at most
    _SLICE_DOUBLES normals but at least one row.  A row divided by its
    norm is a uniformly distributed unit vector.  Each slice is drawn
    once and never re-drawn: no component exceeds its row's norm, and
    the norm is exact to rounding unless every component is below about
    1e-154 in size.
    """
    step = max(1, _SLICE_DOUBLES // dim)
    for index, start in enumerate(range(0, samples, CHUNK_SAMPLES)):
        rng = _chunk_rng(seed, index)
        count = min(CHUNK_SAMPLES, samples - start)
        for offset in range(0, count, step):
            rows = rng.standard_normal((min(step, count - offset), dim))
            yield rows, np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _count_table(dim: int, samples: int, seed: int) -> np.ndarray:
    """The run's rows counted by Black and by Uncoloured components.

    Cell (b, u) of the (3, 2) int64 table counts the rows with b = 0, 1
    or 2+ Black components and u = 0 or 1+ Uncoloured ones, under the
    default bounds for ``dim``.  A row's bincount key is 2 * min(b, 2) + u.
    """
    params = ColouringParams(dim=dim)
    twos = np.full(dim, 2.0)
    table = np.zeros(6, dtype=np.int64)
    for rows, norms in _row_stream(dim, samples, seed):
        np.abs(rows, out=rows)
        rows /= norms[:, None]
        white, black = colour_masks(rows, params)
        keys = black @ twos  # 2b
        uncoloured = white @ twos + keys < 2 * dim
        np.minimum(keys, 4.0, out=keys)
        keys += uncoloured
        table += np.bincount(keys.astype(np.intp), minlength=6)
    return table.reshape(3, 2)


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
    streams as estimate_vector_fractions.  The hits are the u = 0 column
    of ``_count_table``.
    """
    check_run(dim, samples, seed)
    hits = int(_count_table(dim, samples, seed)[:, 0].sum())
    return Estimate(hits / samples, samples, seed)


def verify_constraints(dim: int, samples: int, seed: int) -> ViolationReport:
    """Count colouring-constraint violations over Haar-random bases.

    Checks, per sampled basis: an orthogonal Black pair (two or more
    Black vectors), an all-White basis, and a fully coloured basis
    whose Black count is not exactly one.  Under the default bounds
    all three counts must be zero; any non-zero count falsifies the
    geometry, not the sampler.  They are ``_count_table``'s b = 2+ row,
    its cell (0, 0), and its cells (0, 0) and (2+, 0).
    """
    check_run(dim, samples, seed)
    table = _count_table(dim, samples, seed)
    return ViolationReport(
        samples=samples,
        black_pair_count=int(table[2].sum()),
        all_white_count=int(table[0, 0]),
        full_without_one_black_count=int(table[0, 0] + table[2, 0]),
    )
