"""su(1,1) generators and the quadratic decomposition of the Heun operator.

The generators act on monomials as

    raise:  z^p -> (2p + 2 mu) z^(p+1/2)
    weight: z^p -> (2p + mu + nu) z^p
    lower:  z^p -> (2p + 2 nu) z^(p-1/2)

and satisfy [H, E+/-] = +/-E+/- and [E+, E-] = -2H, with Casimir
(E+E- + E-E+)/2 - H^2 = -(mu-nu)(mu-nu-1) on every monomial.  The Heun
operator factorizes through them as

    c_plus E+E+ + c_minus E-E- + c2 H^2 + c1 H + c0

exactly when the singularity at infinity is elementary (|alpha-beta| = 1/2)
and gamma is 1/2 or 3/2 (making nu 0 or 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Tuple

from .errors import NotFactorizable
from .heun_core import (
    CanonicalCoefficients,
    HeunParameters,
    canonical_coefficients,
    require_finite,
    second_order_action,
)
from .monomials import MonomialSum

CONDITION_TOL = 1e-9

NU_BY_GAMMA = {0.5: 0.0, 1.5: 0.5}


def apply_raising(mu: float, y: MonomialSum) -> MonomialSum:
    """Degree +1/2 generator."""
    return y.map_terms(1, lambda p: 2.0 * p + 2.0 * mu)


def apply_lowering(nu: float, y: MonomialSum) -> MonomialSum:
    """Degree -1/2 generator."""
    return y.map_terms(-1, lambda p: 2.0 * p + 2.0 * nu)


def apply_weight(mu: float, nu: float, y: MonomialSum) -> MonomialSum:
    """Degree 0 generator."""
    return y.map_terms(0, lambda p: 2.0 * p + mu + nu)


def casimir_value(mu: float, nu: float) -> float:
    return -(mu - nu) * (mu - nu - 1.0)


@dataclass(frozen=True)
class FactorizabilityReport:
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


@dataclass(frozen=True)
class Su11Decomposition:
    """c_plus E+E+ + c_minus E-E- + c2 H^2 + c1 H + c0 on the generators at
    mu, nu (with their Casimir), which is the action on z^p:
    up(p) z^(p+1) + (diag_base(p) - q) z^p + down(p) z^(p-1), q = accessory_q.
    This is the one closed-form statement of that action; three_term_rows
    reads it off on a sub-grid, for the finite matrix and the series alike.
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
        return {
            "mu": self.mu,
            "nu": self.nu,
            "c_plus": self.c_plus,
            "c_minus": self.c_minus,
            "c2": self.c2,
            "c1": self.c1,
            "c0": self.c0,
            "casimir": self.casimir,
        }

    def up(self, p: float) -> float:
        return self.c_plus * (2.0 * p + 2.0 * self.mu) * (2.0 * p + 1.0 + 2.0 * self.mu)

    def down(self, p: float) -> float:
        return (
            self.c_minus * (2.0 * p + 2.0 * self.nu) * (2.0 * p - 1.0 + 2.0 * self.nu)
        )

    def diag_base(self, p: float) -> float:
        s = self.mu + self.nu
        h = 2.0 * p + s
        return self.c2 * h * h + self.c1 * h - s * (self.c1 + self.c2 * s)

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

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, float]) -> "Su11Decomposition":
        values = {f.name: float(doc[f.name]) for f in fields(cls)}
        require_finite(**values)
        return cls(**values)


def decompose(params: HeunParameters, tol: float = CONDITION_TOL) -> Su11Decomposition:
    """Decompose a validated parameter set; rejects non-factorizable input.

    check_factorizable is the one gate.  nu belongs to the admissible gamma
    it matched, 3/2 when both are within tol (possible only for tol >= 1/2);
    mu comes from a3 = (a0/2)(3+4mu), and the c's from the other a's.
    """
    report = check_factorizable(params, tol)
    if not report.accepted:
        raise NotFactorizable(report.describe(), report=report)
    coeffs = canonical_coefficients(params)
    nu = NU_BY_GAMMA[1.5 if abs(params.gamma - 1.5) <= tol else 0.5]
    mu = (2.0 * coeffs.a3 / coeffs.a0 - 3.0) / 4.0
    c_plus = coeffs.a0 / 4.0
    c_minus = coeffs.a2 / 4.0
    c2 = coeffs.a1 / 4.0
    c1 = (coeffs.a4 - coeffs.a1 * (1.0 + mu + nu)) / 2.0
    c0 = coeffs.a7 - (mu + nu) * (c1 + c2 * (mu + nu))
    return Su11Decomposition(
        mu=mu,
        nu=nu,
        c_plus=c_plus,
        c_minus=c_minus,
        c2=c2,
        c1=c1,
        c0=c0,
        casimir=casimir_value(mu, nu),
    )


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
        a7=dec.c0 + (mu + nu) * (dec.c1 + dec.c2 * (mu + nu)),
    )


def monomial_action(dec: Su11Decomposition) -> Su11Decomposition:
    """The decomposition itself; bench/workloads.py still imports this alias,
    which goes with the next change to the benchmark."""
    return dec


def apply_quadratic(dec: Su11Decomposition, y: MonomialSum) -> MonomialSum:
    """Apply c+ E+E+ + c- E-E- + c2 H H + c1 H + c0 term by term."""
    mu, nu = dec.mu, dec.nu
    hy = apply_weight(mu, nu, y)
    parts = [
        apply_raising(mu, apply_raising(mu, y)).scaled(dec.c_plus),
        apply_lowering(nu, apply_lowering(nu, y)).scaled(dec.c_minus),
        apply_weight(mu, nu, hy).scaled(dec.c2),
        hy.scaled(dec.c1),
        y.scaled(dec.c0),
    ]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def algebra_identity_check(
    mu: float, nu: float, exponents: Iterable[float]
) -> float:
    """Max deviation of the commutators and the Casimir on test monomials.

    Checks [H,E+]-E+, [H,E-]+E-, [E+,E-]+2H, and
    (E+E- + E-E+)/2 - H^2 + (mu-nu)(mu-nu-1) applied to z^p.
    """
    worst = 0.0
    for p in exponents:
        y = MonomialSum.monomial(float(p))
        ey = apply_raising(mu, y)
        fy = apply_lowering(nu, y)
        hy = apply_weight(mu, nu, y)
        comm_raise = apply_weight(mu, nu, ey) - apply_raising(mu, hy) - ey
        comm_lower = apply_weight(mu, nu, fy) - apply_lowering(nu, hy) + fy
        comm_pair = apply_raising(mu, fy) - apply_lowering(nu, ey) + hy.scaled(2.0)
        casimir = (
            (apply_raising(mu, fy) + apply_lowering(nu, ey)).scaled(0.5)
            - apply_weight(mu, nu, hy)
            - y.scaled(casimir_value(mu, nu))
        )
        worst = max(
            worst,
            comm_raise.max_abs(),
            comm_lower.max_abs(),
            comm_pair.max_abs(),
            casimir.max_abs(),
        )
    return worst


def reconstruction_check(
    params: HeunParameters, dec: Su11Decomposition, test_poly: MonomialSum
) -> float:
    """Max coefficient difference between the canonical operator and the
    factorized quadratic applied to the same monomial sum."""
    f1_part, f2_part, f3_part = second_order_action(canonical_coefficients(params), test_poly)
    direct = f1_part + f2_part + f3_part
    factored = apply_quadratic(dec, test_poly)
    return direct.max_abs_diff(factored)
