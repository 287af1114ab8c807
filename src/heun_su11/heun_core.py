"""Heun equation parameters and their canonical polynomial form.

The equation under study is

    y'' + (gamma/z + delta/(z-1) + epsilon/(z-a)) y'
        + (alpha*beta*z - q) / (z (z-1) (z-a)) y = 0,

with regular singular points at 0, 1, a, infinity and the exponent balance
gamma + delta + epsilon = alpha + beta + 1.  Multiplying through by
z(z-1)(z-a) gives the polynomial form

    f1 y'' + f2 y' + f3 y,
    f1 = a0 z^3 + a1 z^2 + a2 z,
    f2 = a3 z^2 + a4 z + a5,
    f3 = a6 z + a7,

which is what every other module consumes.  This module validates parameter
sets, produces the a0..a7 coefficients and states the polynomial form's
action on one monomial z^p, which lands on z^(p+1), z^p and z^(p-1).
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Tuple

from .errors import ValidationError
from .jsonio import as_number

FUCHSIAN_TOL = 1e-9


class HeunParameters(NamedTuple):
    """Validated real Heun parameters; build via make_parameters."""

    gamma: float
    delta: float
    epsilon: float
    alpha: float
    beta: float
    a: float
    q: float

    def with_accessory(self, q: float) -> "HeunParameters":
        return self._replace(q=float(q))


def read_floats(cls, doc: Mapping[str, float]):
    """The NamedTuple of floats cls from a JSON object keyed by its field
    names (the object its _asdict writes), each read by jsonio.as_number; a
    non-finite value is refused."""
    values = {name: float(as_number(doc[name])) for name in cls._fields}
    require_finite(**values)
    return cls(**values)


class CanonicalCoefficients(NamedTuple):
    """Coefficients of f1 = a0 z^3 + a1 z^2 + a2 z, f2 = a3 z^2 + a4 z + a5,
    f3 = a6 z + a7, in that order."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float

    def to_json_dict(self) -> dict:
        return self._asdict()

    from_json_dict = classmethod(read_floats)

    def with_accessory(self, q: complex | float) -> "CanonicalCoefficients":
        # Complex q arises for a < 0 spectra; keep a7 real when q is real.
        qc = complex(q)
        return self._replace(a7=-qc if qc.imag != 0.0 else -qc.real)


def require_finite(**values: float) -> None:
    """Reject NaN and infinities, which would slip through every
    ``dev > tol`` style comparison downstream."""
    bad = [f"{name}={value!r}" for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValidationError("non-finite input: " + ", ".join(bad))


def make_parameters(
    gamma: float,
    delta: float,
    alpha: float,
    beta: float,
    a: float,
    q: float,
    epsilon: float | None = None,
) -> HeunParameters:
    """Validate and normalize a parameter set.

    epsilon is always recomputed from the exponent balance so the stored
    values satisfy it exactly; a supplied epsilon only has to agree within
    FUCHSIAN_TOL.  alpha and beta are stored sorted (alpha <= beta).
    """
    gamma, delta, alpha, beta, a, q = map(float, (gamma, delta, alpha, beta, a, q))
    require_finite(gamma=gamma, delta=delta, alpha=alpha, beta=beta, a=a, q=q)
    if epsilon is not None:
        require_finite(epsilon=float(epsilon))
    if a == 0.0 or a == 1.0:
        raise ValidationError(
            f"singularity location a={a} collides with a fixed singular point"
        )
    implied = alpha + beta + 1.0 - gamma - delta
    if epsilon is not None and not abs(float(epsilon) - implied) <= FUCHSIAN_TOL:
        raise ValidationError(
            "gamma+delta+epsilon - (alpha+beta+1) = "
            f"{gamma + delta + float(epsilon) - alpha - beta - 1.0:.3e} "
            f"exceeds tolerance {FUCHSIAN_TOL:g}"
        )
    if beta < alpha:
        alpha, beta = beta, alpha
    return HeunParameters(gamma, delta, implied, alpha, beta, a, q)


def lame_parameters(rho: float, a: float, q: float) -> HeunParameters:
    """Parameter set with gamma=delta=epsilon=1/2 and alpha*beta=rho(rho+1)/4.

    alpha, beta are the roots of t^2 - t/2 + rho(rho+1)/4; they are real only
    for rho(rho+1) <= 1/4.
    """
    rho = float(rho)
    require_finite(rho=rho)
    product = rho * (rho + 1.0) / 4.0
    disc = 0.25 - 4.0 * product
    if disc < 0.0:
        raise ValidationError(
            f"exponents at infinity are complex for rho={rho} "
            f"(discriminant {disc:.3e})"
        )
    root = math.sqrt(disc)
    alpha = (0.5 - root) / 2.0
    beta = (0.5 + root) / 2.0
    return make_parameters(0.5, 0.5, alpha, beta, a, q)


def canonical_coefficients(params: HeunParameters) -> CanonicalCoefficients:
    """Polynomial-form coefficients a0..a7 of the operator."""
    g, d, al, be, a, q = (
        params.gamma,
        params.delta,
        params.alpha,
        params.beta,
        params.a,
        params.q,
    )
    return CanonicalCoefficients(
        a0=1.0,
        a1=-(a + 1.0),
        a2=a,
        a3=1.0 + al + be,
        a4=-(a * g + a * d - d + al + be + 1.0),
        a5=a * g,
        a6=al * be,
        a7=-q,
    )


def canonical_rows(coeffs: CanonicalCoefficients, p: float) -> Tuple[float, float, float]:
    """f1 y'' + f2 y' + f3 y on y = z^p: the coefficients of z^(p+1), z^p and
    z^(p-1), in that order."""
    c = coeffs
    pp = p * (p - 1.0)
    return (
        c.a0 * pp + c.a3 * p + c.a6,
        c.a1 * pp + c.a4 * p + c.a7,
        c.a2 * pp + c.a5 * p,
    )
