"""su(1,1) generators and the quadratic decomposition of the Heun operator.

The generators act on monomials by the scalar factors raising, weight and
lowering give:

    raise:  z^p -> (2p + 2 mu) z^(p+1/2)
    weight: z^p -> (2p + mu + nu) z^p
    lower:  z^p -> (2p + 2 nu) z^(p-1/2)

and satisfy [H, E+/-] = +/-E+/- and [E+, E-] = -2H, with Casimir
(E+E- + E-E+)/2 - H^2 = -(mu-nu)(mu-nu-1); every identity is checked one
monomial at a time.  The Heun operator factorizes through them as

    c_plus E+E+ + c_minus E-E- + c2 H^2 + c1 H + c0

exactly when the singularity at infinity is elementary (|alpha-beta| = 1/2)
and gamma is 1/2 or 3/2 (making nu 0 or 1/2).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Tuple

from .errors import ValidationError
from .heun_core import (
    CONDITION_TOL,
    CanonicalCoefficients,
    HeunParameters,
    canonical_coefficients,
    canonical_rows,
    read_floats,
    require_finite,
)

NU_BY_GAMMA = {0.5: 0.0, 1.5: 0.5}


def raising(mu: float, p: float) -> float:
    """Degree +1/2 generator: the factor of z^(p+1/2) in E+ z^p."""
    return 2.0 * p + 2.0 * mu


def lowering(nu: float, p: float) -> float:
    """Degree -1/2 generator: the factor of z^(p-1/2) in E- z^p."""
    return 2.0 * p + 2.0 * nu


def weight(mu: float, nu: float, p: float) -> float:
    """Degree 0 generator: the factor of z^p in H z^p."""
    return 2.0 * p + mu + nu


def casimir_value(mu: float, nu: float) -> float:
    return -(mu - nu) * (mu - nu - 1.0)


class FactorizabilityReport(NamedTuple):
    """Outcome of the two factorization conditions.

    failures lists reason codes: "exponent_gap" when |alpha-beta| is not 1/2,
    "gamma" when gamma is neither 1/2 nor 3/2; deviations give the distance
    to the nearest admissible value.
    """

    accepted: bool
    failures: Tuple[str, ...]
    exponent_gap: float
    gamma: float
    gap_deviation: float
    gamma_deviation: float

    def describe(self) -> str:
        if self.accepted:
            return "factorizable"
        parts = []
        if "exponent_gap" in self.failures:
            parts.append(
                f"|alpha-beta|={self.exponent_gap:.12g} is off 1/2 "
                f"by {self.gap_deviation:.3e}"
            )
        if "gamma" in self.failures:
            parts.append(
                f"gamma={self.gamma:.12g} is off {{1/2, 3/2}} "
                f"by {self.gamma_deviation:.3e}"
            )
        return "not factorizable: " + "; ".join(parts)


def check_factorizable(
    params: HeunParameters, tol: float = CONDITION_TOL
) -> FactorizabilityReport:
    """Test |alpha-beta| = 1/2 and gamma in {1/2, 3/2}, each within tol."""
    require_finite(tol=tol)
    if tol < 0.0:
        raise ValidationError(f"tolerance must not be negative: tol={tol!r}")
    gap = abs(params.alpha - params.beta)
    gap_dev = abs(gap - 0.5)
    gamma_dev = min(abs(params.gamma - g) for g in NU_BY_GAMMA)
    failures = []
    if not gap_dev <= tol:
        failures.append("exponent_gap")
    if not gamma_dev <= tol:
        failures.append("gamma")
    return FactorizabilityReport(
        accepted=not failures,
        failures=tuple(failures),
        exponent_gap=gap,
        gamma=params.gamma,
        gap_deviation=gap_dev,
        gamma_deviation=gamma_dev,
    )


class Su11Decomposition(NamedTuple):
    """c_plus E+E+ + c_minus E-E- + c2 H^2 + c1 H + c0 on the generators at
    mu, nu (with their Casimir), which is the action on z^p:
    up(p) z^(p+1) + (diag_base(p) - q) z^p + down(p) z^(p-1), q = accessory_q.
    This is the one closed-form statement of that action; three_term_rows
    reads it off on a sub-grid, for the finite matrix and the series alike.
    A saved one is read back only when its Casimir matches mu and nu.
    """

    mu: float
    nu: float
    c_plus: float
    c_minus: float
    c2: float
    c1: float
    c0: float
    casimir: float

    def to_json_dict(self) -> dict:
        return self._asdict()

    def up(self, p: float) -> float:
        return self.c_plus * (2.0 * p + 2.0 * self.mu) * (2.0 * p + 1.0 + 2.0 * self.mu)

    def down(self, p: float) -> float:
        return (
            self.c_minus * (2.0 * p + 2.0 * self.nu) * (2.0 * p - 1.0 + 2.0 * self.nu)
        )

    def diag_base(self, p: float) -> float:
        """c2 h^2 + c1 h - s(c1 + c2 s), h = 2p + s, s = mu + nu, factored: exactly 0 at p = 0."""
        return 2.0 * p * (self.c1 + 2.0 * self.c2 * (p + self.mu + self.nu))

    def three_term_rows(self, p: float, step: float) -> Tuple[float, float, float]:
        """Rows (inward, diag, outward) of the action on the sub-grid p (a float
        or a numpy array) that steps by step = +/-1: the coefficient of z^p in
        T applied to z^(p-step), to z^p (less q) and to z^(p+step)."""
        into, out = (self.up, self.down) if step > 0 else (self.down, self.up)
        return into(p - step), self.diag_base(p), out(p + step)

    @property
    def accessory_q(self) -> float:
        """The q baked into c0: the full diagonal is diag_base(p) - q."""
        s = self.mu + self.nu
        return -(self.c0 + s * (self.c1 + self.c2 * s))

    def with_accessory(self, q: float) -> "Su11Decomposition":
        """The decomposition at accessory q, which only c0 carries:
        c0 = -q - s(c1 + c2 s), s = mu + nu."""
        s = self.mu + self.nu
        return self._replace(c0=-q - s * (self.c1 + self.c2 * s))

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, float]) -> "Su11Decomposition":
        dec = read_floats(cls, doc)
        expected = casimir_value(dec.mu, dec.nu)
        if not abs(dec.casimir - expected) <= 1e-9:
            raise ValidationError(
                f"stored casimir {dec.casimir!r} does not match mu, nu (expected {expected!r})"
            )
        return dec


def decompose(params: HeunParameters, tol: float = CONDITION_TOL) -> Su11Decomposition:
    """Decompose a validated parameter set; rejects non-factorizable input.

    check_factorizable is the one gate.  nu belongs to the admissible gamma
    it matched, 3/2 when both are within tol (possible only for tol >= 1/2);
    mu comes from a3 = (a0/2)(3+4mu), c0 from q (with_accessory), and the
    other c's from the other a's.
    """
    report = check_factorizable(params, tol)
    if not report.accepted:
        raise ValidationError(report.describe())
    coeffs = canonical_coefficients(params)
    nu = NU_BY_GAMMA[1.5 if abs(params.gamma - 1.5) <= tol else 0.5]
    mu = (2.0 * coeffs.a3 / coeffs.a0 - 3.0) / 4.0
    c_plus = coeffs.a0 / 4.0
    c_minus = coeffs.a2 / 4.0
    c2 = coeffs.a1 / 4.0
    c1 = (coeffs.a4 - coeffs.a1 * (1.0 + mu + nu)) / 2.0
    return Su11Decomposition(
        mu=mu,
        nu=nu,
        c_plus=c_plus,
        c_minus=c_minus,
        c2=c2,
        c1=c1,
        c0=0.0,
        casimir=casimir_value(mu, nu),
    ).with_accessory(params.q)


def rebuild_coefficients(dec: Su11Decomposition) -> CanonicalCoefficients:
    """Invert the decomposition back to a0..a7."""
    mu, nu = dec.mu, dec.nu
    return CanonicalCoefficients(
        a0=4.0 * dec.c_plus,
        a1=4.0 * dec.c2,
        a2=4.0 * dec.c_minus,
        a3=2.0 * dec.c_plus * (3.0 + 4.0 * mu),
        a4=2.0 * (dec.c1 + 2.0 * dec.c2 * (1.0 + mu + nu)),
        a5=2.0 * dec.c_minus * (1.0 + 4.0 * nu),
        a6=2.0 * dec.c_plus * mu * (1.0 + 2.0 * mu),
        a7=-dec.accessory_q,
    )


def monomial_action(dec: Su11Decomposition) -> Su11Decomposition:
    """The decomposition itself; bench/workloads.py still imports this alias,
    which goes with the next change to the benchmark."""
    return dec


def quadratic_rows(dec: Su11Decomposition, p: float) -> Tuple[float, float, float]:
    """c+ E+E+ + c- E-E- + c2 H H + c1 H + c0 on z^p, composed from the
    generators: the coefficients of z^(p+1), z^p and z^(p-1), in that order."""
    mu, nu = dec.mu, dec.nu
    h = weight(mu, nu, p)
    return (
        dec.c_plus * (raising(mu, p + 0.5) * raising(mu, p)),
        dec.c2 * (h * h) + dec.c1 * h + dec.c0,
        dec.c_minus * (lowering(nu, p - 0.5) * lowering(nu, p)),
    )


def _max_abs(values: Iterable[float]) -> float:
    """The largest |v|, or NaN when any v is NaN, which max() would drop."""
    sizes = [abs(v) for v in values]
    return math.nan if any(map(math.isnan, sizes)) else max(sizes, default=0.0)


def _scaled(deviation: float, *terms: float) -> float:
    """deviation over the size of its identity: the sum of its terms'
    magnitudes, as the residual is scaled, or 1 where that is smaller, so
    that an identity of tiny terms is held to an absolute bound.  NaN stays
    NaN."""
    return deviation / max(1.0, sum(map(abs, terms)))


def algebra_identity_check(
    mu: float, nu: float, exponents: Iterable[float]
) -> float:
    """Max deviation of the commutators and the Casimir on test monomials,
    each scaled by its own terms (_scaled).

    Checks [H,E+]-E+, [H,E-]+E-, [E+,E-]+2H, and
    (E+E- + E-E+)/2 - H^2 + (mu-nu)(mu-nu-1) applied to z^p; NaN when any
    of them is NaN.
    """
    deviations = []
    for p in map(float, exponents):
        e, f, h = raising(mu, p), lowering(nu, p), weight(mu, nu, p)
        e_f = raising(mu, p - 0.5) * f
        f_e = lowering(nu, p + 0.5) * e
        h_e, e_h = weight(mu, nu, p + 0.5) * e, raising(mu, p) * h
        h_f, f_h = weight(mu, nu, p - 0.5) * f, lowering(nu, p) * h
        h_h, casimir = weight(mu, nu, p) * h, casimir_value(mu, nu)
        deviations += (
            _scaled(h_e - e_h - e, h_e, e_h, e),
            _scaled(h_f - f_h + f, h_f, f_h, f),
            _scaled(e_f - f_e + 2.0 * h, e_f, f_e, 2.0 * h),
            _scaled(0.5 * (e_f + f_e) - h_h - casimir, 0.5 * e_f, 0.5 * f_e, h_h, casimir),
        )
    return _max_abs(deviations)


def reconstruction_check(
    params: HeunParameters, dec: Su11Decomposition, exponents: Iterable[float]
) -> float:
    """Max difference between the canonical operator's and the factorized
    quadratic's coefficients on each test monomial z^p, each row scaled by
    the factored side's terms (_scaled): c+ E+E+, c2 H^2, c1 H and c0, and
    c- E-E-; NaN when any is NaN."""
    coeffs = canonical_coefficients(params)
    deviations = []
    for p in map(float, exponents):
        h = weight(dec.mu, dec.nu, p)
        up, same, down = quadratic_rows(dec, p)
        direct_up, direct_same, direct_down = canonical_rows(coeffs, p)
        deviations += (
            _scaled(direct_up - up, up),
            _scaled(direct_same - same, dec.c2 * (h * h), dec.c1 * h, dec.c0),
            _scaled(direct_down - down, down),
        )
    return _max_abs(deviations)
