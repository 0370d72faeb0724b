"""Numerical kernels shared by the geometry modules.

Adaptive Gauss-Kronrod quadrature, the sin-power integral and the
sphere surface ratio that the colouring integrals are written in
terms of.
"""

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "integrate",
    "sin_power_integral",
    "surface_ratio",
]


class QuadratureError(ArithmeticError):
    """Adaptive subdivision failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for :func:`integrate`.

    The integrator stops once its error estimate drops below
    ``max(abs_tol, rel_tol * |result|)``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")


DEFAULT_QUADRATURE = QuadratureConfig()
# Panel bisections :func:`integrate` may spend before it gives up.
_MAX_SUBDIVISIONS = 2000

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
# Rows: (node, Kronrod weight, Gauss weight); Gauss weight is zero on
# the Kronrod-only nodes.
_G7K15 = (
    (-0.9914553711208126, 0.0229353220105292, 0.0),
    (-0.9491079123427585, 0.0630920926299786, 0.1294849661688697),
    (-0.8648644233597691, 0.1047900103222502, 0.0),
    (-0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (-0.5860872354676911, 0.1690047266392679, 0.0),
    (-0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (-0.2077849550078985, 0.2044329400752989, 0.0),
    (0.0, 0.2094821410847278, 0.4179591836734694),
    (0.2077849550078985, 0.2044329400752989, 0.0),
    (0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (0.8648644233597691, 0.1047900103222502, 0.0),
    (0.9491079123427585, 0.0630920926299786, 0.1294849661688697),
    (0.9914553711208126, 0.0229353220105292, 0.0),
)

_EPS = math.ulp(1.0)


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One G7/K15 pass over [a, b]: (Kronrod value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = []
    for node, _, _ in _G7K15:
        x = mid + half * node
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand returned non-finite value {y!r} at x={x!r}")
        vals.append(y)
    kron = half * math.fsum(w * y for (_, w, _), y in zip(_G7K15, vals))
    gauss = half * math.fsum(w * y for (_, _, w), y in zip(_G7K15, vals))
    # Scaled error in the QUADPACK style: raw |K - G| is sharpened
    # through the panel's own variation so smooth panels are not
    # overcharged and rough ones not trusted.
    resabs = abs(half) * math.fsum(w * abs(y) for (_, w, _), y in zip(_G7K15, vals))
    mean = kron / (b - a) if b != a else 0.0
    resasc = abs(half) * math.fsum(w * abs(y - mean) for (_, w, _), y in zip(_G7K15, vals))
    err = abs(kron - gauss)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * _EPS * resabs)
    return kron, err


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive bisection of G7/K15 panels.

    Parameters
    ----------
    f : callable
        Real integrand.  Evaluations happen strictly inside the open
        interval, so integrable endpoint singularities are fine.
    a, b : float
        Bounds with ``a <= b``.
    config : QuadratureConfig, optional
        Tolerances; defaults to ``DEFAULT_QUADRATURE``.

    Raises
    ------
    QuadratureError
        If the error estimate still exceeds the tolerance after the
        subdivision budget is spent, or the integrand misbehaves.
    """
    cfg = config if config is not None else DEFAULT_QUADRATURE
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("bounds must be finite")
    if a > b:
        raise ValueError(f"lower bound {a!r} exceeds upper bound {b!r}")
    if a == b:
        return 0.0

    value, err = _panel(f, a, b)
    total = value
    total_err = err
    heap = [(-err, 0, a, b, value, err)]
    tick = 1
    for _ in range(_MAX_SUBDIVISIONS):
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        _, _, lo, hi, old_val, old_err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise QuadratureError(
                f"interval [{lo!r}, {hi!r}] collapsed below machine resolution "
                f"with error estimate {old_err:.3e} still above tolerance"
            )
        left_val, left_err = _panel(f, lo, mid)
        right_val, right_err = _panel(f, mid, hi)
        total += (left_val + right_val) - old_val
        total_err += (left_err + right_err) - old_err
        heapq.heappush(heap, (-left_err, tick, lo, mid, left_val, left_err))
        heapq.heappush(heap, (-right_err, tick + 1, mid, hi, right_val, right_err))
        tick += 2
    else:
        if total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            raise QuadratureError(
                f"no convergence after {_MAX_SUBDIVISIONS} subdivisions: "
                f"error estimate {total_err:.3e} exceeds tolerance "
                f"max({cfg.abs_tol:.3e}, {cfg.rel_tol:.3e} * |{total:.6e}|)"
            )
    return math.fsum(entry[4] for entry in heap)


def sin_power_integral(
    p: int,
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
) -> float:
    """Integral of sin(t)**p over [a, b] for integer p >= 0, 0 <= a <= b <= pi.

    The integrand is evaluated as exp(p * log sin t) so that large
    powers (polar-cap integrals in dimensions up to 1e7) do not
    underflow pairwise products.  Within pi/4 of the peak at pi/2,
    log sin t is taken as log(cos u) = log1p(-2 sin^2(u/2)) with
    u = pi/2 - t: the log of a rounded sine errs by eps there, which p
    multiplies.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError("power p must be an integer")
    if p < 0:
        raise ValueError("power p must be non-negative")
    if not (0.0 <= a <= b <= math.pi):
        raise ValueError(f"bounds must satisfy 0 <= a <= b <= pi, got [{a!r}, {b!r}]")
    if p == 0:
        return b - a
    half_pi = 0.5 * math.pi

    def integrand(t: float) -> float:
        u = half_pi - t
        if abs(u) < 0.25 * math.pi:
            h = math.sin(0.5 * u)
            return math.exp(p * math.log1p(-2.0 * h * h))
        s = math.sin(t)
        if s <= 0.0:
            return 0.0
        return math.exp(p * math.log(s))

    return integrate(integrand, a, b, config)


def surface_ratio(n_dim: int) -> float:
    """vol(S^(n-2)) / vol(S^(n-1)), the equator-to-sphere surface ratio in R^n.

    Gamma(x + 1/2) / (sqrt(pi) * Gamma(x)) with x = (n-1)/2, from
    log-gammas below n = 50.  Above, their difference would lose about
    n * eps, so the large-x series log(Gamma(x + 1/2) / Gamma(x)) =
    log(x)/2 - 1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7) - ...
    (Tricomi and Erdelyi, Pacific J. Math. 1 (1951) 133) is used; its
    next term is below 1e-15 at x = 24.5.  Grows like sqrt(n / (2*pi)).
    """
    if not isinstance(n_dim, int) or isinstance(n_dim, bool):
        raise ValueError("dimension must be an integer")
    if n_dim < 2:
        raise ValueError("dimension must be at least 2")
    if n_dim < 50:
        return math.exp(math.lgamma(0.5 * n_dim) - math.lgamma(0.5 * (n_dim - 1)) - 0.5 * math.log(math.pi))
    x = 0.5 * (n_dim - 1)
    r = 1.0 / (x * x)
    tail = (((17.0 / 14336.0 * r - 1.0 / 640.0) * r + 1.0 / 192.0) * r - 0.125) / x
    return math.sqrt(x / math.pi) * math.exp(tail)
