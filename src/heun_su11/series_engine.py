"""Truncated power-series solutions on the one-sided ladders.

On the ascending ladder (base annihilated by the lowering generator) a
solution for a chosen accessory value q is y = sum_m b_m z^(p0+m); on the
descending ladder it is a series in 1/z.  Matching coefficients of the
operator image gives the three-term recurrence

    up(p0+m-1) b_(m-1) + [A(p0+m) - q] b_m + down(p0+m+1) b_(m+1) = 0

(ascending; with up and down swapped and the exponent stepping down for the
descending case), solved forward from b_(-1)=0, b_0=1.  No quantization of
q occurs here: any real q yields a formal solution, convergent inside the
stated domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Tuple

import numpy as np

from .errors import OutOfDomain, RecurrenceBreakdown, UnsupportedClass
from .heun_core import require_finite
from .monomials import MonomialSum, fsum_values, powers
from .representations import (
    RepresentationClass,
    RepresentationDescriptor,
    split_even_odd,
)
from .su11_algebra import MonomialAction, Su11Decomposition, monomial_action

DEFAULT_TRUNCATION = 60
BOUNDARY_TOL = 1e-9

ASCENDING = "ascending"
DESCENDING = "descending"


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated series y = sum_m coefficients[m] * z^(p0 +/- m)."""

    p0: float
    direction: str
    parity: str
    q: float
    coefficients: Tuple[float, ...]
    domain: Tuple[float, float]

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def exponent(self, m: int) -> float:
        sign = 1.0 if self.direction == ASCENDING else -1.0
        return self.p0 + sign * m

    def as_monomial_sum(self) -> MonomialSum:
        step = 2 if self.direction == ASCENDING else -2
        return MonomialSum(
            self.p0,
            {step * m: b for m, b in enumerate(self.coefficients) if b != 0.0},
        )

    def to_json_dict(self) -> dict:
        return {
            "p0": self.p0,
            "direction": self.direction,
            "parity": self.parity,
            "q": self.q,
            "K": self.truncation,
            "coefficients": list(self.coefficients),
            "domain": list(self.domain),
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SeriesSolution":
        lo, hi = doc["domain"]
        return cls(
            p0=float(doc["p0"]),
            direction=str(doc["direction"]),
            parity=str(doc["parity"]),
            q=float(doc["q"]),
            coefficients=tuple(math.nan if b is None else float(b) for b in doc["coefficients"]),
            domain=(float(lo), math.inf if hi is None else float(hi)),
        )


class EvaluatedSeries(NamedTuple):
    value: float
    tail_estimate: float


def _recurrence_coefficients(
    action: MonomialAction, p0: float, direction: str, count: int
) -> Tuple[List[float], List[float], List[float], float]:
    """Coefficients of the three-term relation at p_m = p0 +/- m, m < count.

    At step m, b_(m-1) enters with inward[m], b_m with diag[m] - q and
    b_(m+1) with outward[m].  edge is the coefficient that carries z^p0 off
    the ladder; it vanishes when the ladder really starts at p0.
    """
    ascending = direction == ASCENDING
    p = p0 + (1.0 if ascending else -1.0) * np.arange(count)
    up, down = action.up(p - 1.0).tolist(), action.down(p + 1.0).tolist()
    diag = action.diag_base(p).tolist()
    if ascending:
        return up, diag, down, action.down(p0)
    return down, diag, up, action.up(p0)


def _direction_for(rep: RepresentationDescriptor) -> str:
    if rep.rep_class is RepresentationClass.POSITIVE_DISCRETE:
        return ASCENDING
    if rep.rep_class is RepresentationClass.NEGATIVE_DISCRETE:
        return DESCENDING
    raise UnsupportedClass(
        f"series are generated on the discrete ladders, not {rep.rep_class.value}"
    )


def convergence_domain(
    dec: Su11Decomposition, rep: RepresentationDescriptor
) -> Tuple[float, float]:
    """Open interval of convergence: up to the nearest other singularity.

    Ascending series converge on (0, min(1,|a|)), descending ones on
    (max(1,|a|), inf); |a| covers singularity locations off the positive
    axis (a < 0), where the radius is still the distance to the origin.
    """
    a = 4.0 * dec.c_minus
    if _direction_for(rep) == ASCENDING:
        return (0.0, min(1.0, abs(a)))
    return (max(1.0, abs(a)), math.inf)


def series_solution(
    dec: Su11Decomposition,
    rep: RepresentationDescriptor,
    parity: str,
    q: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> SeriesSolution:
    """Forward-solve the three-term recurrence for b_1..b_truncation."""
    direction = _direction_for(rep)
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    q = float(q)
    require_finite(q=q)
    split = split_even_odd(rep)
    grid = split.even if parity == "even" else split.odd
    p0 = grid.base
    action = monomial_action(dec)
    inward, diag, outward, edge = _recurrence_coefficients(action, p0, direction, truncation)

    # The base must be annihilated in the outward direction, else the ladder
    # does not start here and the ansatz is wrong for this decomposition.
    scale = max(1.0, abs(action.up(p0)), abs(action.down(p0)), abs(action.diag_base(p0)))
    if abs(edge) > BOUNDARY_TOL * scale:
        raise ValueError(
            f"ladder base p0={p0} is not annihilated by the operator "
            "(grid and decomposition disagree)"
        )

    coeffs: List[float] = [1.0]
    b_prev = 0.0
    b_here = 1.0
    for m in range(truncation):
        divisor = outward[m]
        if divisor == 0.0:
            err = RecurrenceBreakdown(
                f"leading divisor vanished at step {m + 1}; the ladder "
                "truncates and the forward recurrence cannot continue"
            )
            err.step = m + 1
            raise err
        b_next = -(inward[m] * b_prev + (diag[m] - q) * b_here) / divisor
        coeffs.append(b_next)
        b_prev, b_here = b_here, b_next
    return SeriesSolution(
        p0=p0,
        direction=direction,
        parity=parity,
        q=q,
        coefficients=tuple(coeffs),
        domain=convergence_domain(dec, rep),
    )


def evaluate_series(sol: SeriesSolution, z: float) -> EvaluatedSeries:
    """Compensated-sum value plus a geometric tail bound from the last few
    term ratios; the bound is infinite when the terms are not decaying."""
    lo, hi = sol.domain
    if not (lo < z < hi):
        raise OutOfDomain(f"z={z} is outside the open domain ({lo:g}, {hi:g})")
    m = np.arange(len(sol.coefficients))
    exponents = sol.p0 + (m if sol.direction == ASCENDING else -m)
    coefficients = np.array(sol.coefficients, dtype=float)
    zp = powers(z, exponents)
    with np.errstate(all="ignore"):  # overflowed coefficients give inf and nan
        terms = coefficients * zp
        # The ratios of the last six term magnitudes give the tail bound.
        tail = (np.abs(coefficients[-6:]) * zp[-6:]).tolist()
    value = fsum_values(terms)
    last = tail[-1]
    if last == 0.0:
        return EvaluatedSeries(value=value, tail_estimate=0.0)
    ratios = [after / before for before, after in zip(tail, tail[1:]) if before > 0.0]
    rho = max(ratios, default=1.0)
    if rho >= 1.0:
        return EvaluatedSeries(value=value, tail_estimate=math.inf)
    return EvaluatedSeries(value=value, tail_estimate=last * rho / (1.0 - rho))
