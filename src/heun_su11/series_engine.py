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
from functools import cached_property
from itertools import repeat
from operator import mul
from typing import List, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .heun_core import ASCENDING, DESCENDING, SeriesRecord, convergence_domain, require_finite
from .monomials import CUT_MIN_LIVE, UNDERFLOW_LOG2, MonomialSum, log2_majorant, tail_cut_at
from .representations import (
    RepresentationClass,
    RepresentationDescriptor,
    split_even_odd,
)
from .su11_algebra import Su11Decomposition

DEFAULT_TRUNCATION = 60
BOUNDARY_TOL = 1e-9


class SeriesSolution(SeriesRecord):
    """Truncated series y = sum_m coefficients[m] * z^(p0 +/- m); a finite
    eigenfunction is a terminating ascending one on (0, inf), maybe complex.
    A subclass of heun_core.SeriesRecord, which reads and writes its JSON,
    so that it has a __dict__ to cache what depends on the series alone,
    for evaluate_series and the sampled residual: its exponents as an array
    and as a list, its coefficients as an array, the log2 of its edge, its
    tail majorant and its non-finite tail.  Equality ignores the cache, and
    a pickle keeps it, so it holds no memoryview."""

    @cached_property
    def log2_edge(self):
        """tau = log2 R for the domain's edge R that the terms fall toward,
        hi ascending and lo descending; None at an edge at 0 or inf."""
        edge = self.domain[1] if self.step > 0 else self.domain[0]
        return math.log2(edge) if 0.0 < edge < math.inf else None

    @cached_property
    def log2_majorant(self):
        """monomials.log2_majorant of log2|b_m| on the exponents, with tau =
        log2_edge, over b_0..b_(F-1), the leading run of finite
        coefficients, as a list of floats.  None for a complex series or an
        edge at 0 or inf.  Computed on first use."""
        b = self.coefficient_array
        tau = self.log2_edge
        if b.dtype != np.float64 or tau is None:
            return None
        finite = np.isfinite(b)
        if not finite.all():
            b = b[:finite.argmin()]
        with np.errstate(divide="ignore"):
            return log2_majorant(np.log2(np.abs(b)), self.exponents[:len(b)], tau).tolist()

    @cached_property
    def non_finite_tail(self) -> float:
        """math.fsum of b_m * 0.0 over every m: what the terms add where
        every power is 0.0, the NaN of the non-finite coefficients (fsum
        ignores the others' signed zeros), or 0.0; computed on first use."""
        return math.fsum(b * 0.0 for b in self.coefficients)

    @cached_property
    def exponents(self):
        """p0 + step*m for every term m as a float64 array; computed on first use."""
        return float(self.p0) + self.step * np.arange(len(self.coefficients))

    @cached_property
    def coefficient_array(self):
        """np.array(coefficients), float64 or complex128; computed on first use."""
        return np.array(self.coefficients)

    @cached_property
    def exponent_list(self) -> list:
        """The exponents as a list of floats, which evaluate_series maps
        math.pow over; computed on first use."""
        return self.exponents.tolist()

    def as_monomial_sum(self) -> MonomialSum:
        """The cached exponents and coefficient arrays, zeros included."""
        return MonomialSum(self.exponents, self.coefficient_array)


class EvaluatedSeries(NamedTuple):
    value: complex


def _direction_for(rep: RepresentationDescriptor) -> str:
    if rep.rep_class is RepresentationClass.POSITIVE_DISCRETE:
        return ASCENDING
    if rep.rep_class is RepresentationClass.NEGATIVE_DISCRETE:
        return DESCENDING
    raise ValidationError(
        f"series are generated on the discrete ladders, not {rep.rep_class.value}"
    )


def series_solution(
    dec: Su11Decomposition,
    rep: RepresentationDescriptor,
    parity: str,
    q: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> SeriesSolution:
    """Forward-solve the three-term recurrence for b_1..b_truncation: numpy
    builds the rows, A(p) - q included, and the loop reads each row once,
    as a list of floats."""
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
    # At huge |a| the rows overflow; the non-finite coefficients that follow
    # are reported downstream, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        inward, diag, outward = dec.three_term_rows(p0 + grid.step * np.arange(-1, truncation),
                                                    grid.step)
        diag = diag - q

    # The base must be annihilated in the outward direction, else the ladder
    # does not start here and the ansatz is wrong for this decomposition.
    scale = max(1.0, abs(dec.up(p0)), abs(dec.down(p0)), abs(dec.diag_base(p0)))
    if abs(outward[0]) > BOUNDARY_TOL * scale:
        raise ValueError(
            f"ladder base p0={p0} is not annihilated by the operator "
            "(grid and decomposition disagree)"
        )

    if not outward[1:].all():
        m = outward.tolist().index(0.0, 1)
        raise NumericalError(
            f"leading divisor vanished at step {m}; the ladder "
            "truncates and the forward recurrence cannot continue"
        )
    coeffs: List[float] = [1.0]
    append = coeffs.append
    b_prev, b_here = 0.0, 1.0
    for w_in, d, divisor in zip(inward[1:].tolist(), diag[1:].tolist(), outward[1:].tolist()):
        # -(...) / divisor, not (...) / -divisor: the negation sets the sign
        # of the NaNs that an overflowed recurrence carries.
        b_prev, b_here = b_here, -(w_in * b_prev + d * b_here) / divisor
        append(b_here)
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


# evaluate_series aims its cut at D under 2^_CUT_LOG2_AIM of the majorant's
# bound on the leading term, far below the rounding of the sum.
_CUT_LOG2_AIM = -79.0


def _certified_sum(terms: List[float], bound: float):
    """The rounded sum of terms plus any rest of magnitude at most bound:
    fsum(terms + [+-bound]), pushed onto terms in place and popped, when the
    two agree and are finite and non-zero, else None."""
    terms.append(bound)
    try:
        value = math.fsum(terms)
        terms[-1] = -bound
        if value == math.fsum(terms) and value != 0.0 and math.isfinite(value):
            return value
    except OverflowError:
        pass
    finally:
        terms.pop()
    return None


def evaluate_series(sol: SeriesSolution, z: float) -> EvaluatedSeries:
    """The value of the truncated series at z: math.fsum of the terms
    b_m * z^p in order, with z^p from libm's pow (math.pow and float ** call
    it alike), mapped in C over sol.exponent_list: the correctly rounded sum
    of those products.  Powers past _live_terms are exactly 0.0 and are not
    computed.  Such a term is a signed zero for a finite b_m,
    which fsum ignores, or a NaN for a non-finite one, which fsum folds into
    the NaN it returns; so only the NaNs enter, in order, and the value
    equals the full sum bit for bit, the NaN's sign included.  Complex
    terms, which fsum refuses, are summed as their real and imaginary parts,
    each with fsum.

    Of a long real series only the terms that can still move the rounded
    value are computed.  When the live coefficients are finite reals, more
    than CUT_MIN_LIVE of them, and s = step log2(z/R) < 0 for the domain's
    edge R, monomials.tail_cut_at bisects the series' log2_majorant for the
    shortest prefix whose bound D on the dropped rest r lies under
    2^_CUT_LOG2_AIM of the majorant's bound on term 0, with
    G <= 1 + 1/(-s ln 2); monomials.tail_cut's docstring derives D.  If
    fsum(prefix + [D]) and fsum(prefix + [-D]) are one finite non-zero
    float, the full sum prefix + r, which lies between the two, rounds to
    that float too, because correct rounding is monotone.  Otherwise (a rounding midpoint
    within D of the prefix, cancellation, overflow or an fsum that raises)
    the rest of the live terms is computed and everything is summed as
    above; complex coefficients, a non-finite live one, short sums and z
    at 1 or at the domain's edge in log2 take that path from the start.

    An overflowed recurrence leaves coefficients that are not finite from
    some b_F on.  Where the live terms stop at or before F and D bounds all
    of them below 2^1023, no power is computed: fsum's partials stay below
    2^1024, and CPython's fsum returns the sum of its non-finite summands,
    in order, whatever the finite ones are.  Those are the NaNs b_m * 0.0
    from b_F on, which the series keeps as non_finite_tail.

    A call does only the work that depends on z: the exponent list, tau and
    the majorant are the series' own, computed on first use, and where the
    live terms span the whole series no rest is sliced or filtered.
    """
    lo, hi = sol.domain
    if not (lo < z < hi):
        raise ValidationError(f"z={z} is outside the open domain ({lo:g}, {hi:g})")
    z, p0, step = float(z), float(sol.p0), sol.step
    coefficients, exponents = sol.coefficients, sol.exponent_list
    n = len(coefficients)
    live = _live_terms(p0, step, z, n)
    cut, bound = live, 0.0
    run = sol.log2_majorant if live > CUT_MIN_LIVE else None
    if run is not None and live <= len(run):
        t, tau = math.log2(z), sol.log2_edge
        s = step * (t - tau)
        if s < 0.0 and step * t < 0.0:
            tail = len(run) < n
            # A series with a non-finite tail takes the cut at 0 alone.
            aim = math.inf if tail else run[0] + p0 * (t - tau) + _CUT_LOG2_AIM
            found = tail_cut_at(run, exponents, live, tau,
                                math.log2(1.0 - 1.0 / (s * math.log(2.0))), aim, t)
            if found is not None:
                cut, bound = found
            if tail:
                if cut == 0 and bound < 2.0**1023:
                    return EvaluatedSeries(sol.non_finite_tail)
                cut = live
    terms = list(map(mul, coefficients, map(math.pow, repeat(z, cut), exponents)))
    if cut < live:
        value = _certified_sum(terms, bound)
        if value is not None:
            return EvaluatedSeries(value)
        powers = map(math.pow, repeat(z, live - cut), exponents[cut:live])
        terms += map(mul, coefficients[cut:live], powers)
    if live < n:
        # filter(None, ...) drops the signed zeros and keeps the NaNs.
        terms.extend(filter(None, map(mul, coefficients[live:], repeat(0.0))))
    try:
        value = math.fsum(terms)
    except TypeError:
        value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return EvaluatedSeries(value)
