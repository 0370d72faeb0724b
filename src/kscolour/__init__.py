"""Cap-and-belt colourings of the unit sphere in R^N.

Vectors are Black inside two polar caps (distinguished |component|
above 1/sqrt(2)), White inside an equatorial belt (below 1/sqrt(dim)),
and Uncoloured in between.  The package computes how effective that
partial colouring is: the coloured share of the sphere's surface and
the share of orthonormal bases coloured completely, each with an
independent Monte Carlo cross-check.

The exact layers (numerics, area, bases) are pure Python.  The
names of colouring and montecarlo need numpy, so they are bound on
first access, all at once, and only sampling pays for that import.
"""

__version__ = "0.1.0"

from .area import (
    AreaBreakdown,
    argmin_total,
    asymptotic_limit,
    black_fraction,
    limit_series,
    scan,
    total_fraction,
    white_fraction,
)
from .bases import (
    BasisFractionResult,
    WholeCircleWhiteError,
    basis_fraction_3d,
    basis_fraction_4d,
    belt_radius_4d,
    orthosphere_white_integral,
    white_arc_angle,
    white_pair_angle,
)
from .numerics import (
    QuadratureConfig,
    QuadratureError,
    integrate,
    sin_power_integral,
    surface_ratio,
)

__all__ = [
    "__version__",
    "AreaBreakdown",
    "BasisFractionResult",
    "Colour",
    "ColouringParams",
    "Estimate",
    "OrthonormalBasis",
    "QuadratureConfig",
    "QuadratureError",
    "UnitVector",
    "ViolationReport",
    "WholeCircleWhiteError",
    "argmin_total",
    "asymptotic_limit",
    "basis_fraction_3d",
    "basis_fraction_4d",
    "belt_radius_4d",
    "black_fraction",
    "classify_basis",
    "colour_of",
    "estimate_basis_fraction",
    "estimate_vector_fractions",
    "integrate",
    "ks_satisfied",
    "limit_series",
    "orthosphere_white_integral",
    "sample_basis",
    "scan",
    "sin_power_integral",
    "surface_ratio",
    "total_fraction",
    "verify_constraints",
    "white_arc_angle",
    "white_fraction",
    "white_pair_angle",
]


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound.  Binding every public
    # name of both numpy layers at once keeps later lookups plain dict hits.
    if name in __all__:
        from . import colouring, montecarlo

        for module in (colouring, montecarlo):
            globals().update((attr, getattr(module, attr)) for attr in module.__all__ if attr in __all__)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
