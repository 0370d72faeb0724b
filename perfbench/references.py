"""Reference values the benchmark checks kscolour against.

None of these goes through kscolour's own code: area fractions come
from scipy's regularized incomplete beta function, basis fractions are
pinned literals or closed forms, and Monte Carlo counts are judged by
exact binomial tails from scipy.  When scipy cannot be imported the
checks that need it are reported as skipped, never as passed.
"""

import math
from dataclasses import dataclass, field

try:
    from scipy import special as _special
except ImportError:  # checks that need scipy report themselves as skipped
    _special = None

# Tolerances every quadrature request asks for (kscolour's documented
# defaults); a result outside them misses its reference.
ABS_TOL = 1e-12
REL_TOL = 1e-10
# A quadrature result further off than this is the wrong number, not an
# inaccurate one, and makes the run incorrect.
GROSS_REL = 1e-6
# One-sided normal tail beyond 5 standard deviations: a count whose
# binomial tail is smaller than this is a |z| > 5 disagreement.
TAIL_5_SIGMA = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class References:
    """Pinned constants; the self-test swaps one for a wrong value."""

    # 3D basis fraction, pinned by the package's test suite.
    basis_3d: float = 0.6957594667583252
    # R^4 two-level quadrature prescription, printed to 12 digits.
    basis_4d_prescription: float = 0.341615053774
    pin_4d_rounding: float = 5e-13
    # Haar probability that an R^4 basis is fully coloured:
    # (8 + 6*sqrt(3) - 12*sqrt(2)) / pi.
    haar_4d: float = (8.0 + 6.0 * math.sqrt(3.0) - 12.0 * math.sqrt(2.0)) / math.pi
    # Total coloured fraction in R^3: 1 - 1/sqrt(2) + 1/sqrt(3).
    total_3: float = 1.0 - 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(3.0)
    scan_argmin: int = 13
    # erf(1/sqrt(2)) and the rescaled series sum sqrt(pi/2) * erf(1/sqrt(2)).
    limit: float = 0.6826894921370859
    series_sum: float = 0.8556243918921487
    # Fully coloured basis fraction at N = 8 and 16, (value, std error),
    # from row_only_basis_fraction(dim, 10**8, 20261017 + dim).
    basis_sampled: dict = field(
        default_factory=lambda: {8: (0.05071593, 2.1941701038031464e-05), 16: (0.00031101, 1.7632732992361112e-06)}
    )

    def basis_fraction(self, dim: int) -> tuple[float, float]:
        """(reference fraction, its own standard error) of fully coloured bases."""
        if dim == 3:
            return self.basis_3d, 0.0
        if dim == 4:
            return self.haar_4d, 0.0
        return self.basis_sampled[dim]


def scipy_available() -> bool:
    return _special is not None


def area_fractions(dim: int) -> tuple[float, float]:
    """(white, black) area fractions in R^dim from the incomplete beta function.

    The squared distinguished component of a uniform unit vector is
    Beta(1/2, (dim-1)/2): White is t^2 < 1/dim, Black is t^2 > 1/2.
    """
    b = 0.5 * (dim - 1)
    return float(_special.betainc(0.5, b, 1.0 / dim)), float(_special.betaincc(0.5, b, 0.5))


def quadrature_error(got: float, ref: float, slack: float = 0.0) -> tuple[bool, bool]:
    """(within the requested tolerance plus ``slack``, within the gross bound)."""
    err = abs(got - ref)
    return err <= max(ABS_TOL, REL_TOL * abs(ref)) + slack, err <= GROSS_REL * max(1.0, abs(ref))


def binomial_check(hits: int, samples: int, p: float, p_se: float = 0.0) -> tuple[float, bool]:
    """(z-score, consistent) for ``hits`` successes in ``samples`` draws.

    Consistent means neither exact binomial tail is below the 5-sigma
    normal tail, with the reference widened by five of its own
    standard errors; this stays valid where a normal z is not, e.g. for
    a handful of expected hits.
    """
    sigma = math.sqrt(p * (1.0 - p) / samples) if 0.0 < p < 1.0 else 0.0
    z = (hits / samples - p) / sigma if sigma > 0.0 else 0.0
    p_lo = max(p - 5.0 * p_se, 0.0)
    p_hi = min(p + 5.0 * p_se, 1.0)
    upper = float(_special.bdtrc(hits - 1, samples, p_hi)) if hits > 0 else 1.0
    lower = float(_special.bdtr(hits, samples, p_lo))
    return z, upper >= TAIL_5_SIGMA and lower >= TAIL_5_SIGMA


def row_only_basis_fraction(dim: int, rows: int, seed: int, chunk: int = 1 << 20) -> tuple[float, float]:
    """Fully coloured basis fraction by sampling one uniform row per basis.

    The distinguished components of a Haar basis form one row of a Haar
    matrix, i.e. a uniform unit vector, so a basis is fully coloured
    exactly when every coordinate of that vector is. Uses numpy's PCG64,
    not kscolour's Philox streams. Returns (value, std error).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < rows:
        n = min(chunk, rows - done)
        g = rng.standard_normal((n, dim)) ** 2
        r2 = g / g.sum(axis=1, keepdims=True)
        hits += int(((r2 < 1.0 / dim) | (r2 > 0.5)).all(axis=1).sum())
        done += n
    p = hits / rows
    return p, math.sqrt(p * (1.0 - p) / rows)
