"""Quadratic su(1,1) structure of Heun operators.

Decides when a Heun operator with an elementary singularity at infinity is a
quadratic polynomial in su(1,1) ladder generators, performs the
decomposition, classifies the available representation ladders, and turns
them into solutions: finite sqrt(z)-polynomial spectra on finite ladders and
truncated power series (in z or 1/z) on the one-sided ladders, all verified
by direct substitution into the equation.
"""

from .errors import (
    ComplexExponents,
    DegenerateSingularity,
    EigensolverNoConvergence,
    FuchsianViolation,
    GridTooLarge,
    HeunSu11Error,
    InconsistentCoefficients,
    NotFactorizable,
    NumericalError,
    OutOfDomain,
    RecurrenceBreakdown,
    SamplePointAtSingularity,
    UnsupportedClass,
    UsageError,
    ValidationError,
)
from .heun_core import (
    CanonicalCoefficients,
    HeunParameters,
    canonical_coefficients,
    lame_parameters,
    make_parameters,
)
from .monomials import MonomialSum
from .representations import RepresentationClass, RepresentationDescriptor, classify
from .series_engine import SeriesSolution, evaluate_series, series_solution
from .spectrum import EigenPair, SpectralResult, SqrtZPolynomial, solve_spectrum
from .su11_algebra import (
    FactorizabilityReport,
    Su11Decomposition,
    check_factorizable,
    decompose,
    rebuild_coefficients,
)
from .verifier import ResidualReport, ode_residual

__version__ = "0.1.0"

__all__ = [
    "CanonicalCoefficients",
    "ComplexExponents",
    "DegenerateSingularity",
    "EigenPair",
    "EigensolverNoConvergence",
    "FactorizabilityReport",
    "FuchsianViolation",
    "GridTooLarge",
    "HeunParameters",
    "HeunSu11Error",
    "InconsistentCoefficients",
    "MonomialSum",
    "NotFactorizable",
    "NumericalError",
    "OutOfDomain",
    "RecurrenceBreakdown",
    "RepresentationClass",
    "RepresentationDescriptor",
    "ResidualReport",
    "SamplePointAtSingularity",
    "SeriesSolution",
    "SpectralResult",
    "SqrtZPolynomial",
    "Su11Decomposition",
    "UnsupportedClass",
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
