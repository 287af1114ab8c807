"""Finite sums of powers of z with exponents on a half-step lattice.

Every operator in this package shifts a monomial exponent by a multiple of
1/2, so a solution candidate is always a finite combination of z**p with
p = base + k/2 for integer k.  Keeping the integer offsets (rather than raw
float exponents) makes the operator algebra exact at the coefficient level;
z itself only acquires a value at evaluation time, restricted to z > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Tuple

import numpy as np

LATTICE_TOL = 1e-9


def _lattice_offset(exponent: float, base: float) -> int:
    doubled = (exponent - base) * 2.0
    k = round(doubled)
    if abs(doubled - k) > LATTICE_TOL:
        raise ValueError(
            f"exponent {exponent!r} is not on the half-step lattice of base {base!r}"
        )
    return int(k)


def fsum_values(values: Iterable[complex]) -> complex | float:
    """Compensated sum of a sequence or array; stays real if every input is
    real."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
    return math.fsum(vals.tolist())


def powers(z: float, exponents: np.ndarray) -> np.ndarray:
    """z**p for each exponent, by Python's float power.

    numpy's vectorized power can differ from the C library's pow in the last
    bit, so values that are reported to the user take their powers from
    here and stay identical to a term-by-term evaluation.
    """
    return np.fromiter(map(float(z).__pow__, exponents.tolist()), float, len(exponents))


@dataclass(frozen=True)
class MonomialSum:
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

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exponents and coefficients of the nonzero terms, as numpy arrays."""
        nonzero = {k: c for k, c in self.coeffs.items() if c != 0.0}
        offsets = np.fromiter(nonzero, float, len(nonzero))
        return self.base + 0.5 * offsets, np.array(list(nonzero.values()))

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def max_abs_diff(self, other: "MonomialSum") -> float:
        return (self - other).max_abs()

    def evaluate(self, z: float) -> complex | float:
        """Value at z > 0 (fractional exponents need the positive axis)."""
        if z <= 0.0:
            raise ValueError("monomial sums are only evaluated for z > 0")
        exponents, coefficients = self.as_arrays()
        with np.errstate(all="ignore"):
            terms = coefficients * powers(z, exponents)
        return fsum_values(terms)
