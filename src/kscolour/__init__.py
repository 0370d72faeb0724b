"""Cap-and-belt colourings of the unit sphere in R^N.

Vectors are Black inside two polar caps (distinguished |component|
above 1/sqrt(2)), White inside an equatorial belt (below 1/sqrt(dim)),
and Uncoloured in between.  The package computes how effective that
partial colouring is: the coloured share of the sphere's surface and
the share of orthonormal bases coloured completely, each with an
independent Monte Carlo cross-check.
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
from .colouring import (
    Colour,
    ColouringParams,
    OrthonormalBasis,
    UnitVector,
    classify_basis,
    colour_of,
    is_fully_coloured,
    ks_satisfied,
)
from .montecarlo import (
    Estimate,
    ViolationReport,
    estimate_basis_fraction,
    estimate_vector_fractions,
    sample_basis,
    sample_unit_vector,
    verify_constraints,
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
    "is_fully_coloured",
    "ks_satisfied",
    "limit_series",
    "orthosphere_white_integral",
    "sample_basis",
    "sample_unit_vector",
    "scan",
    "sin_power_integral",
    "surface_ratio",
    "total_fraction",
    "verify_constraints",
    "white_arc_angle",
    "white_fraction",
    "white_pair_angle",
]
