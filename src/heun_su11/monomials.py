"""Finite sums of powers of z with exponents on a half-step lattice.

Every operator in this package shifts a monomial exponent by a multiple of
1/2, so a solution candidate is always a finite combination of z**p with
p = base + k/2 for integer k.  Keeping the integer offsets (rather than raw
float exponents) makes the operator algebra exact at the coefficient level.
A MonomialSum is symbolic; series_engine.evaluate_series is the one evaluator.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Tuple

LATTICE_TOL = 1e-9

# z**p is exactly 0.0 once p*log2(z) < UNDERFLOW_LOG2: the true power is
# below 2^-1100, far under half the smallest subnormal (2^-1075), so a pow
# that errs by less than 0.99 ulp returns 0.0 for it (tests check numpy's
# power and libm's pow over the series domains).  The margin of 25 covers
# the rounding of the product p*log2(z) many times over.
UNDERFLOW_LOG2 = -1100.0


def _lattice_offset(exponent: float, base: float) -> int:
    doubled = (exponent - base) * 2.0
    k = round(doubled)
    if abs(doubled - k) > LATTICE_TOL:
        raise ValueError(
            f"exponent {exponent!r} is not on the half-step lattice of base {base!r}"
        )
    return int(k)


class MonomialSum(NamedTuple):
    """sum_k coeffs[k] * z**(base + k/2).

    Treated as immutable: all arithmetic returns new instances.
    """

    base: float
    coeffs: Mapping[int, complex]

    @classmethod
    def monomial(cls, exponent: float, coefficient: complex = 1.0) -> "MonomialSum":
        return cls(float(exponent), {0: coefficient})

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

    def exponent(self, k: int) -> float:
        return self.base + 0.5 * k

    def terms(self) -> Tuple[Tuple[float, complex], ...]:
        """(exponent, coefficient) pairs, ascending in exponent."""
        return tuple((self.exponent(k), self.coeffs[k]) for k in sorted(self.coeffs))

    def map_terms(
        self, shift: int, weight: Callable[[float], complex]
    ) -> "MonomialSum":
        """Send each term c*z**p to weight(p)*c*z**(p + shift/2)."""
        out: dict[int, complex] = {}
        for k, c in self.coeffs.items():
            w = weight(self.exponent(k)) * c
            if w != 0.0:
                out[k + shift] = out.get(k + shift, 0.0) + w
        return MonomialSum(self.base, out)

    def derivative(self) -> "MonomialSum":
        return self.map_terms(-2, lambda p: p)

    def scaled(self, factor: complex) -> "MonomialSum":
        return MonomialSum(self.base, {k: factor * c for k, c in self.coeffs.items()})

    def _rebased_coeffs(self, base: float) -> dict[int, complex]:
        shift = _lattice_offset(self.base, base)
        return {k + shift: c for k, c in self.coeffs.items()}

    def __add__(self, other: "MonomialSum") -> "MonomialSum":
        merged = dict(self.coeffs)
        for k, c in other._rebased_coeffs(self.base).items():
            merged[k] = merged.get(k, 0.0) + c
        return MonomialSum(self.base, merged)

    def __sub__(self, other: "MonomialSum") -> "MonomialSum":
        return self + other.scaled(-1.0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def max_abs_diff(self, other: "MonomialSum") -> float:
        return (self - other).max_abs()
