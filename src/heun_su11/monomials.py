"""Finite sums of powers of z, as the column the residual scores, and the
one certified tail rule for long sums of them.

A MonomialSum holds the sum of coeffs[j] * z**exponents[j] as two
sequences, in their given order and zeros included:
verifier.residual_for_coefficients scores both as they are, and
SeriesSolution.as_monomial_sum writes its cached exponents and
coefficient arrays.  It has no arithmetic, since the operators act one
monomial at a time (heun_core.canonical_rows, su11_algebra.quadratic_rows);
series_engine.evaluate_series is the one evaluator.

log2_majorant and tail_cut are the one tail rule by which evaluate_series'
value and the residual's scale of a long sum keep a certified prefix;
tail_cut_at is tail_cut at one point, the cut evaluate_series takes.
"""

from __future__ import annotations

import math
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


def log2_majorant(log2_w, p, tau: float):
    """S_k = max over m >= k of log2_w[m] + p[m] * tau, one reverse running
    max over float64 arrays, as a float64 array: the majorant tail_cut reads."""
    import numpy as np

    return np.maximum.accumulate((log2_w + p * tau)[::-1])[::-1]


def _exp2(x: float) -> float:
    """2^x, inf where it overflows."""
    return 2.0**x if x < 1024.0 else math.inf


def tail_cut(run, p, tau: float, log2_g: float, aim: float, t: float, ts,
             offset: float = 0.0):
    """(k, D): the shortest prefix k of the n terms on the exponents p whose
    bound D on the rest at the log2 point t lies under 2^aim, by bisection,
    with D then an array over the log2 points of the float64 array ts, its
    powers of 2 rounded by numpy's exp2; None where no k < n does, or some
    |p_m| reaches 2^32.  tail_cut_at is its cut at one point.

    Term m is a float product c_m z^(p_m), or a sum of such products moved
    by at most offset in the exponent, with a weight w_m >= |c_m|; the
    exponents are monotone, steps at least delta apart.  run is
    log2_majorant(log2 w, p, tau), after Mezzarobba and Salvy (J. Symbolic
    Comput. 45 (2010)), for an edge 2^tau beyond every point: at z = 2^t,
    t - tau has the sign of t and (p_(m+1) - p_m)(t - tau) < 0.  Powers past
    UNDERFLOW_LOG2 must be exactly 0.0.  With shift = offset |t|, each term
    from k on is at most 2^(shift + S_k + p_m (t - tau)), so the exact terms
    sum to at most 2^(shift + S_k + p_k (t - tau)) G, G = 1/(1 - 2^-h) for
    h = delta |t - tau|, which 2^log2_g bounds (2 for h >= 1, or
    1 + 1/(h ln 2) for any h).  Computing them adds:
      * pow's ulp: 2^-52 relative where z^p is normal; where it is subnormal
        (p t < -1020, so p (t - tau) < -1020 |t - tau| / |t|), 2^-1074
        absolute, at most 2^27 z^p as a power that is not 0.0 has
        p t >= -1101;
      * a factor 1 + 2^-53 and 2^-1075 per rounding, which CUT_TINY covers;
      * with every |p_m| < 2^32 and fewer than 2^31 terms, under 2^-5 in the
        exponents (numpy's log2 within 32 ulp included), and, where G < 2^31,
        under 2^-10 in G; where G is larger the true factor is at most n.
    A factor 4 covers these and exp2's own ulp, which rounds each power of 2:

        D = 2^(S_k + shift + log2_g + 2) (2^(p_k (t - tau))
              + 2^(27 + min(p_k (t - tau), -1020 |t - tau| / |t|)))
            + (n - k) 2^-1018.
    """
    import numpy as np

    n = len(p)
    if not (abs(p[0]) < 2.0**32 and abs(p[n - 1]) < 2.0**32):
        return None
    k = _shortest(run, p, n, t - tau, aim - (offset * abs(t) + log2_g + 2.0))
    if k == n:
        return None
    gap = ts - tau
    return k, _bound(run[k] + offset * abs(ts) + (log2_g + 2.0), p[k] * gap, gap, ts, n - k,
                     np.exp2, np.minimum)


def tail_cut_at(run, p, n: int, tau: float, log2_g: float, aim: float, t: float):
    """tail_cut's cut at the one log2 point t, with offset 0, on the first n
    entries of run and p, read in place (lists read fastest): (k, D) with D
    a float, its powers of 2 rounded by 2^x, or None."""
    if not (abs(p[0]) < 2.0**32 and abs(p[n - 1]) < 2.0**32):
        return None
    gap = t - tau
    k = _shortest(run, p, n, gap, aim - (log2_g + 2.0))
    if k == n:
        return None
    return k, _bound(run[k] + (log2_g + 2.0), p[k] * gap, gap, t, n - k, _exp2, min)


def _shortest(run, p, n: int, gap: float, target: float) -> int:
    """The first k < n with run[k] + p[k] gap <= target, or n: the
    bisection of bisect_left, which this loop runs with fewer calls."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if run[mid] + p[mid] * gap <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bound(lead, main, gap, t, dropped: int, exp2, minimum):
    """tail_cut's D at t, floats or arrays, gap = t - tau, from lead =
    S_k + shift + log2_g + 2 and main = p_k gap, for the dropped = n - k
    terms of the rest."""
    subnormal = minimum(main, -1020.0 * abs(gap) / abs(t)) + 27.0
    return exp2(lead + main) + exp2(lead + subnormal) + dropped * CUT_TINY
