"""Numerical kernels shared by the geometry modules.

The tolerance every exact result is certified against, and the sphere
surface ratio that the area fractions are written in terms of.
"""

import math
import sys
from collections import namedtuple

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "surface_ratio",
]


class QuadratureError(ArithmeticError):
    """A result could not be certified to the requested tolerance.

    Raised when the error bound of an area-fraction series or of a
    basis fraction's closed form exceeds the tolerance, and when a
    computed area row's shares fall outside [0, 1].  The name dates
    from when those results came from adaptive quadrature; the CLI maps
    it to exit code 2.
    """


class QuadratureConfig(namedtuple("QuadratureConfig", ("abs_tol", "rel_tol"))):
    """Tolerances for the area-fraction series and the basis closed forms.

    A result must have its error bound below
    ``max(abs_tol, rel_tol * result)``; see :func:`certify`.  Both come
    from the CLI's flags or from callers, so both are checked here.
    """

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-12, rel_tol: float = 1e-10):
        if not (abs_tol > 0 and math.isfinite(abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if not (rel_tol > 0 and math.isfinite(rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        return super().__new__(cls, abs_tol, rel_tol)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks.
        return cls(*iterable)


DEFAULT_QUADRATURE = QuadratureConfig()


# certify, check_dimension and the roundoff constants are shared by the
# layer modules and kept out of __all__ like DEFAULT_QUADRATURE: they are
# plumbing, not part of the package's surface.  RANGE_TOL is the roundoff
# allowed above 1 in a fraction; a total beyond it means the white and
# black regions overlap.
RANGE_TOL = 1e-12
EPS = math.ulp(1.0)
# The largest accepted dimension: the largest float, as an integer, since
# every layer computes with the dimension as a float.
MAX_DIM = int(sys.float_info.max)


def certify(value: float, bound: float, config: QuadratureConfig | None) -> float:
    """Return ``value`` once its error ``bound`` meets ``config``'s tolerance.

    Raises QuadratureError unless ``bound <= abs_tol`` or
    ``bound <= rel_tol * value``, so a NaN bound is refused.
    """
    cfg = config if config is not None else DEFAULT_QUADRATURE
    if not (bound <= cfg.abs_tol or bound <= cfg.rel_tol * value):
        raise QuadratureError(
            f"error bound {bound:.3e} exceeds tolerance "
            f"max({cfg.abs_tol:.3e}, {cfg.rel_tol:.3e} * {value:.6e})"
        )
    return value


def check_dimension(n_dim: int, least: int = 3) -> None:
    """Raise ValueError unless ``n_dim`` is an integer from ``least`` to MAX_DIM.

    The colouring, its area and basis fractions and the Monte Carlo
    runs are all defined from R^3 on, and computed in floats, so the
    dimension must also convert to one.
    """
    if not isinstance(n_dim, int) or isinstance(n_dim, bool):
        raise ValueError("dimension must be an integer")
    if n_dim < least:
        raise ValueError(f"dimension must be at least {least}, got {n_dim}")
    if n_dim > MAX_DIM:
        raise ValueError(f"dimension must be at most {sys.float_info.max!r}, the largest float")


# One Monte Carlo row holds at most MAX_SAMPLED_DIM normals (8 MiB), so a
# run above that dimension is refused and no draw exceeds it.  The run
# checks live here, without numpy, so that the CLI refuses a bad run
# before it loads the sampling layer.
MAX_SAMPLED_DIM = 1 << 20
SEED_LIMIT = 1 << 64


def check_run(dim: int, samples: int, seed: int) -> None:
    """Raise ValueError unless (dim, samples, seed) is a Monte Carlo run that can be drawn.

    The seed must be an unsigned 64-bit integer.
    """
    check_dimension(dim)
    if dim > MAX_SAMPLED_DIM:
        raise ValueError(f"dimension must be at most {MAX_SAMPLED_DIM}, where one row fills a draw")
    if not isinstance(samples, int) or isinstance(samples, bool):
        raise ValueError("samples must be an integer")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if not (0 <= seed < SEED_LIMIT):
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def surface_ratio(n_dim: int) -> float:
    """vol(S^(n-2)) / vol(S^(n-1)), the equator-to-sphere surface ratio in R^n.

    Gamma(x + 1/2) / (sqrt(pi) * Gamma(x)) with x = (n-1)/2, as a ratio
    of gammas below n = 50 (Gamma(24.5) is about 1e23, far from
    overflow).  Above, the large-x series log(Gamma(x + 1/2) / Gamma(x)) =
    log(x)/2 - 1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7) - ...
    (Tricomi and Erdelyi, Pacific J. Math. 1 (1951) 133) is used; its
    next term is below 1e-15 at x = 24.5.  Against mpmath the worst
    error is 1.5 eps below n = 50 and 2.2 eps above (at n = 51).  Grows
    like sqrt(n / (2*pi)).
    """
    # A plain int in range, as every row of a scan is, skips the full check.
    if type(n_dim) is not int or not 2 <= n_dim <= MAX_DIM:
        check_dimension(n_dim, least=2)
    if n_dim < 50:
        return math.gamma(0.5 * n_dim) / (math.gamma(0.5 * (n_dim - 1)) * math.sqrt(math.pi))
    x = 0.5 * (n_dim - 1)
    r = 1.0 / (x * x)
    tail = (((17.0 / 14336.0 * r - 1.0 / 640.0) * r + 1.0 / 192.0) * r - 0.125) / x
    return math.sqrt(x / math.pi) * math.exp(tail)
