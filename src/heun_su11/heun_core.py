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

It also scores a finite candidate y = sum c_m z^(p_m) exactly.  (L - q) y
is then a finite sum sum_k r_k z^k, and every number in it is a float, so
a dyadic rational: exact_residuals sums on Python integers at one binary
scale every term a_i f_i(p_m) c_m that lands on z^k, which gives r_k, and
the magnitudes of the same terms, taken before like powers merge, which
give s_k.  max_k |r_k| / s_k is the componentwise backward error of the
three-term system (Oettli and Prager, Numer. Math. 6 (1964) 405-409;
Higham, Accuracy and Stability of Numerical Algorithms, ch. 7): zero for an
exact solution, with no sample point and no power of z.  It is printed
rounded up once, so never below the exact ratio.  A complex q or c (a < 0)
is two integers, its real and imaginary parts; a modulus is irrational, so
each |c| and |q| in s_k is rounded down and each |r_k| up, by math.isqrt at
2^-64 of its integer size, and the ratio stays above the exact one.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Mapping, NamedTuple, Sequence, Tuple

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


def canonical_rows(coeffs: CanonicalCoefficients, p):
    """f1 y'' + f2 y' + f3 y on y = z^p: the coefficients of z^(p+1), z^p and
    z^(p-1), in that order.  Plain arithmetic, so it serves floats and exact
    numbers (integer coefficients and a Fraction p) alike."""
    c = coeffs
    pp = p * (p - 1)
    return (
        c.a0 * pp + c.a3 * p + c.a6,
        c.a1 * pp + c.a4 * p + c.a7,
        c.a2 * pp + c.a5 * p,
    )


# Bits that math.isqrt keeps below the integer part of a complex modulus.
_ROOT_BITS = 64


def _dyadic(values) -> Tuple[List[int], int]:
    """(values times s, s) for finite floats: s, the largest of their
    denominators, is a power of two that each of the others divides."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((d for _, d in ratios), default=1)
    return [n * (scale // d) for n, d in ratios], scale


def _modulus(re: int, im: int, shift: int) -> int:
    """|re + i im| 2^shift, exact when im is 0, else rounded down."""
    return abs(re) << shift if not im else math.isqrt((re * re + im * im) << 2 * shift)


def _ratio_up(num: int, den: int) -> float:
    """The least float at or above num / den, for integers num >= 0 < den."""
    x = num / den
    n, d = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if n * den < num * d else x


def exact_residuals(coeffs: CanonicalCoefficients, candidates: Sequence) -> List[float]:
    """The exact residual max_k |r_k| / s_k of each candidate (exponents,
    values, q), given as Python numbers, with a7 = -q, rounded up (module
    docstring).  A candidate with a non-finite number, or with no nonzero
    value (the zero function, which solves every equation and so proves
    nothing), scores inf.  The rows of each distinct exponent p are built
    once, by canonical_rows at the Fraction p, and every number is written
    as an integer at one binary scale: a0..a6 and the q's at the scale s of
    their largest denominator, the exponents at E = 2^e, so that the rows
    times E^2 are integers at s, and each candidate's values at their own."""
    from fractions import Fraction

    live = [all(map(cmath.isfinite, (*p, *c, q))) and any(c) for p, c, q in candidates]
    qs = [complex(q) for (_, _, q), ok in zip(candidates, live) if ok]
    ints, _ = _dyadic([*coeffs[:7], *(x for q in qs for x in (q.real, q.imag))])
    a, q_ints = CanonicalCoefficients(*ints[:7], a7=0), iter(ints[7:])
    exponents = sorted({p for (ps, _, _), ok in zip(candidates, live) if ok for p in ps})
    keys, e = _dyadic(exponents)
    e2, m = e * e, [abs(x) for x in a]
    rows = {}  # p -> (the powers (p + 1, p, p - 1) E, the signed rows, their magnitudes)
    for p, key in zip(exponents, keys):
        fp = Fraction(key, e)
        pp, ap = abs(fp * (fp - 1)), abs(fp)
        sizes = (m[0] * pp + m[3] * ap + m[6], m[1] * pp + m[4] * ap, m[2] * pp + m[5] * ap)
        rows[p] = ((key + e, key, key - e), *(tuple(int(x * e2) for x in three)
                                              for three in (canonical_rows(a, fp), sizes)))
    worst = []
    for (ps, cs, _), ok in zip(candidates, live):
        if not ok:
            worst.append(math.inf)
            continue
        qr, qi = next(q_ints), next(q_ints)
        parts, _ = _dyadic([x for c in map(complex, cs) for x in (c.real, c.imag)])
        # A complex candidate's moduli, and so its sums, carry g bits below the point.
        g = _ROOT_BITS if qi or any(parts[1::2]) else 0
        mq = e2 * _modulus(qr, qi, g)
        r_re: dict = {}
        r_im: dict = {}
        s: dict = {}
        for p, cr, ci in zip(ps, parts[::2], parts[1::2]):
            powers, signed, sizes = rows[p]
            mc = _modulus(cr, ci, g)
            for k, row, size in zip(powers, signed, sizes):
                r_re[k] = r_re.get(k, 0) + row * cr
                r_im[k] = r_im.get(k, 0) + row * ci
                s[k] = s.get(k, 0) + size * mc
            k = powers[1]
            r_re[k] -= e2 * (qr * cr - qi * ci)
            r_im[k] -= e2 * (qr * ci + qi * cr)
            s[k] += mq * mc >> g
        worst.append(max((_ratio_up(_modulus(r_re[k], r_im[k], g) + bool(r_im[k]), s[k])
                          for k in s if s[k]), default=0.0))
    return worst
