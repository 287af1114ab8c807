"""Finite sums of powers of z, as the column the residual scores.

A MonomialSum holds the sum of coeffs[j] * z**exponents[j] as two
sequences, in their given order and zeros included:
verifier.residual_for_coefficients hands both to residual_block as they
are, and SeriesSolution.as_monomial_sum writes its cached exponents array
and its coefficients.  It has no arithmetic, since the operators act one
monomial at a time (heun_core.canonical_rows, su11_algebra.quadratic_rows);
series_engine.evaluate_series is the one evaluator.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Tuple

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


class MonomialSum(NamedTuple):
    """sum_j coeffs[j] * z**exponents[j], term by term.  Treated as immutable."""

    exponents: Sequence[float]
    coeffs: Sequence[complex]

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[float, complex]]) -> "MonomialSum":
        """Build from (exponent, coefficient) pairs, kept as given."""
        pairs = tuple(terms)
        return cls(tuple(float(p) for p, _ in pairs), tuple(c for _, c in pairs))
