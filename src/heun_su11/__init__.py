"""Quadratic su(1,1) structure of Heun operators.

Decides when a Heun operator with an elementary singularity at infinity is a
quadratic polynomial in su(1,1) ladder generators, performs the
decomposition, classifies the available representation ladders, and turns
them into solutions: finite sqrt(z)-polynomial spectra on finite ladders and
truncated power series (in z or 1/z) on the one-sided ladders, all verified
by direct substitution into the equation.
"""

from .errors import NumericalError, UsageError, ValidationError
from .heun_core import (
    CanonicalCoefficients,
    HeunParameters,
    canonical_coefficients,
    lame_parameters,
    make_parameters,
)
from .monomials import MonomialSum
from .representations import RepresentationClass, RepresentationDescriptor, classify
from .su11_algebra import (
    FactorizabilityReport,
    Su11Decomposition,
    check_factorizable,
    decompose,
    rebuild_coefficients,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The names of __all__ not imported above come from the numeric modules,
    which load numpy; they are imported on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import series_engine, spectrum, verifier

    return next(getattr(m, name) for m in (series_engine, spectrum, verifier) if hasattr(m, name))


__all__ = [
    "CanonicalCoefficients",
    "EigenPair",
    "FactorizabilityReport",
    "HeunParameters",
    "MonomialSum",
    "NumericalError",
    "RepresentationClass",
    "RepresentationDescriptor",
    "ResidualReport",
    "SeriesSolution",
    "SpectralResult",
    "Su11Decomposition",
    "UsageError",
    "ValidationError",
    "canonical_coefficients",
    "check_factorizable",
    "classify",
    "decompose",
    "evaluate_series",
    "lame_parameters",
    "make_parameters",
    "ode_residual",
    "rebuild_coefficients",
    "series_solution",
    "solve_spectrum",
]
