"""Representation spaces of the factorized operator and their parity split.

A representation is a ladder of monomials z^p on a half-step grid with
weight h = 2p + mu + nu.  Five classes exist for a given Casimir value:
finite-dimensional ladders (when 2(nu - mu) is a nonnegative integer),
positive and negative discrete ladders (one-sided, always available here
since the Casimir never exceeds 1/4), and the principal and complementary
series, which this package only reports: no solutions are constructed in
them.  Because the factorized operator shifts exponents by whole integers,
every ladder splits into an even and an odd sub-ladder that it preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from .errors import UnsupportedClass
from .su11_algebra import Su11Decomposition

INTEGRALITY_TOL = 1e-9


class RepresentationClass(Enum):
    PRINCIPAL_SERIES = "principal_series"
    COMPLEMENTARY_SERIES = "complementary_series"
    POSITIVE_DISCRETE = "positive_discrete"
    NEGATIVE_DISCRETE = "negative_discrete"
    FINITE_DIMENSIONAL = "finite_dimensional"


@dataclass(frozen=True)
class ExponentGrid:
    """Arithmetic grid of exponents base, base+step, ...; size None = infinite."""

    base: float
    step: float
    size: int | None

    def exponent(self, m: int) -> float:
        return self.base + m * self.step

    def exponents(self) -> Tuple[float, ...]:
        if self.size is None:
            raise ValueError("grid is infinite; take exponent(m) instead")
        return tuple(self.exponent(m) for m in range(self.size))


@dataclass(frozen=True)
class RepresentationDescriptor:
    """One admissible representation class for a decomposition."""

    rep_class: RepresentationClass
    casimir: float
    grid: ExponentGrid | None
    n: int | None = None
    has_solutions: bool = True
    h_constraint: str | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "class": self.rep_class.value,
            "casimir": self.casimir,
            "has_solutions": self.has_solutions,
        }
        if self.n is not None:
            doc["n"] = self.n
        if self.grid is not None:
            if self.grid.size is not None:
                doc["p_grid"] = list(self.grid.exponents())
            else:
                doc["p_base"] = self.grid.base
                doc["direction"] = "ascending" if self.grid.step > 0 else "descending"
        if self.h_constraint is not None:
            doc["h_constraint"] = self.h_constraint
        return doc


@dataclass(frozen=True)
class SubspaceSplit:
    """Even sub-grid (contains the ladder base) and odd sub-grid (offset 1/2)."""

    even: ExponentGrid
    odd: ExponentGrid


def finite_dimension(mu: float, nu: float) -> int | None:
    """Ladder length n = 2(nu-mu)+1 when 2(nu-mu) is a nonnegative integer."""
    doubled_gap = 2.0 * (nu - mu)
    rounded = round(doubled_gap)
    if rounded >= 0 and abs(doubled_gap - rounded) <= INTEGRALITY_TOL:
        return int(rounded) + 1
    return None


def classify(dec: Su11Decomposition) -> List[RepresentationDescriptor]:
    """All representation classes admissible for the decomposition.

    The discrete ladders are always available (the Casimir -x(x-1) never
    exceeds 1/4); the finite ladder needs 2(nu-mu) to be a nonnegative
    integer; the principal and complementary series are reported for their
    Casimir ranges but flagged as non-constructive.
    """
    c = dec.casimir
    out: List[RepresentationDescriptor] = []
    # +0.0 turns a negative zero from -mu/-nu back into plain 0.0.
    pd_base = -dec.nu + 0.0
    nd_base = -dec.mu + 0.0
    n = finite_dimension(dec.mu, dec.nu)
    if n is not None:
        out.append(
            RepresentationDescriptor(
                RepresentationClass.FINITE_DIMENSIONAL,
                c,
                ExponentGrid(base=pd_base, step=0.5, size=n),
                n=n,
            )
        )
    out.append(
        RepresentationDescriptor(
            RepresentationClass.POSITIVE_DISCRETE,
            c,
            ExponentGrid(base=pd_base, step=0.5, size=None),
        )
    )
    out.append(
        RepresentationDescriptor(
            RepresentationClass.NEGATIVE_DISCRETE,
            c,
            ExponentGrid(base=nd_base, step=-0.5, size=None),
        )
    )
    if 0.0 < c < 0.25:
        out.append(
            RepresentationDescriptor(
                RepresentationClass.COMPLEMENTARY_SERIES,
                c,
                None,
                has_solutions=False,
                h_constraint="h != 1/2",
            )
        )
    if c >= 0.25:
        out.append(
            RepresentationDescriptor(
                RepresentationClass.PRINCIPAL_SERIES,
                c,
                None,
                has_solutions=False,
                h_constraint="(casimir, h) != (1/4, 1/2)",
            )
        )
    return out


def split_even_odd(rep: RepresentationDescriptor) -> SubspaceSplit:
    """Parity sub-grids preserved by the factorized operator.

    The even grid starts at the ladder base and steps by a whole unit; the
    odd grid is offset by half a step.  Finite ladders of length n split
    into sizes ceil(n/2) and floor(n/2).
    """
    if rep.grid is None:
        raise UnsupportedClass(
            f"no parity split for {rep.rep_class.value}: solutions are not "
            "constructed in this class"
        )
    g = rep.grid
    if g.size is None:
        even = ExponentGrid(g.base, 2.0 * g.step, None)
        odd = ExponentGrid(g.base + g.step, 2.0 * g.step, None)
    else:
        even = ExponentGrid(g.base, 2.0 * g.step, (g.size + 1) // 2)
        odd = ExponentGrid(g.base + g.step, 2.0 * g.step, g.size // 2)
    return SubspaceSplit(even=even, odd=odd)
