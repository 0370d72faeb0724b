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

from . import area, bases, numerics
from .area import *
from .bases import *
from .numerics import *

# The public names of colouring and montecarlo.  They are the only names
# spelled out here, since reading those modules' own __all__ would load
# numpy.
_LAZY = (
    "Colour",
    "ColouringParams",
    "OrthonormalBasis",
    "classify_basis",
    "ks_satisfied",
    "Estimate",
    "ViolationReport",
    "sample_basis",
    "estimate_vector_fractions",
    "estimate_basis_fraction",
    "verify_constraints",
)

__all__ = ["__version__", *area.__all__, *bases.__all__, *numerics.__all__, *_LAZY]


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound.  Binding every public
    # name of both numpy layers at once keeps later lookups plain dict hits.
    if name in _LAZY:
        from . import colouring, montecarlo

        for module in (colouring, montecarlo):
            globals().update((attr, getattr(module, attr)) for attr in module.__all__ if attr in _LAZY)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
