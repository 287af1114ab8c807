"""Quadratic su(1,1) structure of Heun operators.

Decides when a Heun operator with an elementary singularity at infinity is a
quadratic polynomial in su(1,1) ladder generators, performs the
decomposition, classifies the available representation ladders, and turns
them into solutions: finite sqrt(z)-polynomial spectra on finite ladders and
truncated power series (in z or 1/z) on the one-sided ladders, all verified
by direct substitution into the equation.

Importing the package imports none of its modules.  Each name of __all__
imports its home module, as _HOMES lists it, on first use (PEP 562), so a
process compiles only the modules it runs, and numpy loads with the first
name from series_engine, spectrum or verifier.
"""

__version__ = "0.1.0"

_HOMES = {
    "CanonicalCoefficients": "heun_core", "EigenPair": "spectrum",
    "FactorizabilityReport": "su11_algebra", "HeunParameters": "heun_core",
    "MonomialSum": "monomials", "NumericalError": "errors",
    "RepresentationClass": "representations", "RepresentationDescriptor": "representations",
    "ResidualReport": "verifier", "SeriesSolution": "series_engine",
    "SpectralResult": "spectrum", "Su11Decomposition": "su11_algebra", "UsageError": "errors",
    "ValidationError": "errors", "canonical_coefficients": "heun_core",
    "check_factorizable": "su11_algebra", "classify": "representations",
    "decompose": "su11_algebra", "evaluate_series": "series_engine",
    "lame_parameters": "heun_core", "make_parameters": "heun_core", "ode_residual": "verifier",
    "rebuild_coefficients": "su11_algebra", "series_solution": "series_engine",
    "solve_spectrum": "spectrum",
}


def __getattr__(name: str):
    """The name from its home module, kept in the package's namespace.  The
    __import__ call is the one `from .<home> import <name>` makes, which
    -X importtime reports."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_HOMES[name], globals(), None, [name], 1), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "CanonicalCoefficients", "EigenPair", "FactorizabilityReport", "HeunParameters",
    "MonomialSum", "NumericalError", "RepresentationClass", "RepresentationDescriptor",
    "ResidualReport", "SeriesSolution", "SpectralResult", "Su11Decomposition", "UsageError",
    "ValidationError", "canonical_coefficients", "check_factorizable", "classify", "decompose",
    "evaluate_series", "lame_parameters", "make_parameters", "ode_residual",
    "rebuild_coefficients", "series_solution", "solve_spectrum",
]
