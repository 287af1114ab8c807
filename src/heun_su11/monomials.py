"""Finite sums of powers of z with exponents on a half-step lattice.

Every operator in this package shifts a monomial exponent by a multiple of
1/2, so a solution candidate is always a finite combination of z**p with
p = base + k/2 for integer k.  A MonomialSum holds such a sum by its integer
offsets k: verifier.residual_for_coefficients reads it, and
SeriesSolution.as_monomial_sum writes it.  It has no arithmetic, since the
operators act one monomial at a time (heun_core.canonical_rows,
su11_algebra.quadratic_rows); series_engine.evaluate_series is the one
evaluator.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Tuple

LATTICE_TOL = 1e-9

# z**p is exactly 0.0 once p*log2(z) < UNDERFLOW_LOG2: the true power is
# below 2^-1100, far under half the smallest subnormal (2^-1075), so a pow
# that errs by less than 0.99 ulp returns 0.0 for it (tests check numpy's
# power and libm's pow over the series domains).  The margin of 25 covers
# the rounding of the product p*log2(z) many times over.
UNDERFLOW_LOG2 = -1100.0

# Both certified prefixes, evaluate_series' and the residual's, apply to sums
# of more than CUT_MIN_LIVE live terms, and each term they drop adds CUT_TINY
# to their bound on the rest, for the underflow of its roundings.
CUT_MIN_LIVE = 64
CUT_TINY = 2.0**-1018


def _lattice_offset(exponent: float, base: float) -> int:
    doubled = (exponent - base) * 2.0
    k = round(doubled)
    if abs(doubled - k) > LATTICE_TOL:
        raise ValueError(
            f"exponent {exponent!r} is not on the half-step lattice of base {base!r}"
        )
    return int(k)


class MonomialSum(NamedTuple):
    """sum_k coeffs[k] * z**(base + k/2).  Treated as immutable."""

    base: float
    coeffs: Mapping[int, complex]

    @classmethod
    def zero(cls, base: float = 0.0) -> "MonomialSum":
        return cls(float(base), {})

    @classmethod
    def from_terms(
        cls, terms: Iterable[Tuple[float, complex]], base: float | None = None
    ) -> "MonomialSum":
        """Build from (exponent, coefficient) pairs sharing one lattice."""
        pairs = list(terms)
        if base is None:
            if not pairs:
                return cls.zero()
            base = float(pairs[0][0])
        coeffs: dict[int, complex] = {}
        for p, c in pairs:
            k = _lattice_offset(float(p), base)
            coeffs[k] = coeffs.get(k, 0.0) + c
        return cls(float(base), coeffs)
