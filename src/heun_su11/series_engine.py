"""Truncated power-series solutions on the one-sided ladders.

On the ascending ladder (base annihilated by the lowering generator) a
solution for a chosen accessory value q is y = sum_m b_m z^(p0+m); on the
descending ladder it is a series in 1/z.  Matching coefficients of the
decomposition's own action, read off by its three_term_rows (the rows of the
finite matrix too), gives the recurrence

    up(p0+m-1) b_(m-1) + [A(p0+m) - q] b_m + down(p0+m+1) b_(m+1) = 0

(ascending; with up and down swapped and the exponent stepping down for the
descending case), solved forward from b_(-1)=0, b_0=1.  No quantization of
q occurs here: any real q yields a formal solution, convergent inside the
stated domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import List, Mapping, NamedTuple, Tuple

import numpy as np

from .errors import OutOfDomain, RecurrenceBreakdown, UnsupportedClass, ValidationError
from .heun_core import require_finite
from .monomials import UNDERFLOW_LOG2, MonomialSum
from .representations import (
    RepresentationClass,
    RepresentationDescriptor,
    split_even_odd,
)
from .su11_algebra import Su11Decomposition

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
        if doc["direction"] not in (ASCENDING, DESCENDING):
            raise ValidationError(f"series direction {doc['direction']!r} is neither "
                                  f"{ASCENDING!r} nor {DESCENDING!r}")
        if doc["parity"] not in ("even", "odd"):
            raise ValidationError(f"series parity {doc['parity']!r} is neither 'even' nor 'odd'")
        if doc["K"] != len(doc["coefficients"]) - 1:
            raise ValidationError(f"series K={doc['K']!r} does not match its "
                                  f"{len(doc['coefficients'])} coefficients")
        return cls(
            p0=float(doc["p0"]),
            direction=doc["direction"],
            parity=doc["parity"],
            q=float(doc["q"]),
            coefficients=tuple(math.nan if b is None else float(b) for b in doc["coefficients"]),
            domain=(float(lo), math.inf if hi is None else float(hi)),
        )


class EvaluatedSeries(NamedTuple):
    value: float
    tail_estimate: float


def _direction_for(rep: RepresentationDescriptor) -> str:
    if rep.rep_class is RepresentationClass.POSITIVE_DISCRETE:
        return ASCENDING
    if rep.rep_class is RepresentationClass.NEGATIVE_DISCRETE:
        return DESCENDING
    raise UnsupportedClass(
        f"series are generated on the discrete ladders, not {rep.rep_class.value}"
    )


def convergence_domain(a: float, direction: str) -> Tuple[float, float]:
    """Open interval of convergence of a series with singularity location a:
    up to the nearest other singularity.

    Ascending series converge on (0, min(1,|a|)), descending ones on
    (max(1,|a|), inf); |a| covers singularity locations off the positive
    axis (a < 0), where the radius is still the distance to the origin.
    series_solution states this domain and verify re-derives it.
    """
    if direction == ASCENDING:
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
    # Row m sits at p0 + (m-1)*step: row 0, one step off the ladder, holds in
    # its outward entry the coefficient that carries z^p0 off the ladder.
    rows = dec.three_term_rows(p0 + grid.step * np.arange(-1, truncation), grid.step)
    inward, diag, outward = (row.tolist() for row in rows)

    # The base must be annihilated in the outward direction, else the ladder
    # does not start here and the ansatz is wrong for this decomposition.
    scale = max(1.0, abs(dec.up(p0)), abs(dec.down(p0)), abs(dec.diag_base(p0)))
    if abs(outward[0]) > BOUNDARY_TOL * scale:
        raise ValueError(
            f"ladder base p0={p0} is not annihilated by the operator "
            "(grid and decomposition disagree)"
        )

    coeffs: List[float] = [1.0]
    b_prev = 0.0
    b_here = 1.0
    for m in range(1, truncation + 1):
        divisor = outward[m]
        if divisor == 0.0:
            raise RecurrenceBreakdown(
                f"leading divisor vanished at step {m}; the ladder "
                "truncates and the forward recurrence cannot continue",
                step=m,
            )
        b_next = -(inward[m] * b_prev + (diag[m] - q) * b_here) / divisor
        coeffs.append(b_next)
        b_prev, b_here = b_here, b_next
    return SeriesSolution(
        p0=p0,
        direction=direction,
        parity=parity,
        q=q,
        coefficients=tuple(coeffs),
        domain=convergence_domain(4.0 * dec.c_minus, direction),
    )


def _live_terms(p0: float, step: int, z: float, count: int) -> int:
    """How many leading terms of z^(p0 + step*m), m < count, can be nonzero.

    In a convergence domain step*log2(z) < 0 (z < 1 ascending, z > 1
    descending), so p*log2(z) falls with m, and every power from the first
    m with p*log2(z) < UNDERFLOW_LOG2 on is exactly 0.0.  A NaN or infinite
    p0, or a z on the other side of 1, keeps every term.
    """
    log2z = math.log2(z)
    if not (math.isfinite(p0) and step * log2z < 0.0):
        return count
    bound = (UNDERFLOW_LOG2 - p0 * log2z) / (step * log2z)
    if not bound < count:
        return count
    return max(0, math.floor(bound) + 1)


def evaluate_series(sol: SeriesSolution, z: float) -> EvaluatedSeries:
    """Compensated-sum value plus a geometric tail bound from the last few
    term ratios; the bound is infinite when the terms are not decaying.

    The value is math.fsum of the terms b_m * z^p in order, with z^p from
    libm's pow (math.pow and float ** call it alike).  Powers past
    _live_terms are exactly 0.0 and are not computed.  Such a term is a
    signed zero for a finite b_m, which fsum ignores, or a NaN for a
    non-finite one, which fsum folds into the NaN it returns; so only the
    NaNs enter, in order, and the value equals the full sum bit for bit,
    the NaN's sign included.
    """
    lo, hi = sol.domain
    if not (lo < z < hi):
        raise OutOfDomain(f"z={z} is outside the open domain ({lo:g}, {hi:g})")
    z, p0 = float(z), float(sol.p0)
    coefficients = sol.coefficients
    count = len(coefficients)
    step = 1 if sol.direction == ASCENDING else -1
    live = _live_terms(p0, step, z, count)
    zp = [math.pow(z, p0 + step * m) for m in range(live)] + [0.0] * (count - live)
    terms = list(map(mul, coefficients[:live], zp))
    # filter(None, ...) drops the signed zeros and keeps the NaNs.
    terms.extend(filter(None, map(mul, coefficients[live:], repeat(0.0))))
    value = math.fsum(terms)
    # The ratios of the last six term magnitudes give the tail bound.
    tail = list(map(mul, map(abs, coefficients[-6:]), zp[-6:]))
    last = tail[-1]
    if last == 0.0:
        return EvaluatedSeries(value=value, tail_estimate=0.0)
    ratios = [after / before for before, after in zip(tail, tail[1:]) if before > 0.0]
    rho = max(ratios, default=1.0)
    if rho >= 1.0:
        return EvaluatedSeries(value=value, tail_estimate=math.inf)
    return EvaluatedSeries(value=value, tail_estimate=last * rho / (1.0 - rho))
