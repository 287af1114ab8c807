"""MonomialSum, and the certified tail rule that evaluate_series and the
residual share: monomials.tail_cut on monomials.log2_majorant, and
tail_cut_at, its cut at one point."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heun_su11.monomials import UNDERFLOW_LOG2, MonomialSum, log2_majorant, tail_cut, tail_cut_at
from oracle import exact_magnitude, monomial, terms


def test_monomial_roundtrip_terms():
    y = monomial(1.5, 2.0)
    assert terms(y) == ((1.5, 2.0),)


def test_from_terms_keeps_order_duplicates_and_zeros():
    given = ((1.0, -1.0), (0.5, 2.0), (0.0, 0.0), (0.5, 3.0), (0.3, 0j))
    y = MonomialSum.from_terms(iter(given))
    assert terms(y) == given
    assert type(y.coeffs[-1]) is complex
    assert MonomialSum.from_terms([]) == MonomialSum((), ())


def cut(run, p, *args):
    """tail_cut_at on the arrays run and p as evaluate_series reads them, as lists."""
    return tail_cut_at(run.tolist(), p.tolist(), len(p), *args)


def test_tail_cut_bounds_a_geometric_rest_and_is_the_shortest():
    # w_m = 1 on p_m = m at z = 1/2, edge 1 (tau = 0): the terms 2^-m are
    # exact, and the rest from k is 2^(1-k) - 2^(1-n).  G = 2, and D's main
    # part 2^(3 - k) first lies under 2^-60 at k = 63.
    n = 200
    p = np.arange(n, dtype=float)
    run = log2_majorant(np.zeros(n), p, 0.0)
    k, bound = cut(run, p, 0.0, 1.0, -60.0, -1.0)
    assert k == 63
    assert Fraction(2) ** (1 - k) - Fraction(2) ** (1 - n) <= Fraction(bound)
    assert cut(run[:k], p[:k], 0.0, 1.0, -60.0, -1.0) is None
    assert cut(run, p + 2.0**32, 0.0, 1.0, -60.0, -1.0) is None
    assert cut(run, p, 0.0, 1.0, -1000.0, -1.0) is None


def high_pow(z, p):
    """z**p one ulp high where it is subnormal: a pow that errs by a whole
    ulp there, 2^-1074, the worst that tail_cut's D allows for."""
    power = z**p
    return power + 2.0**-1074 if power < 2.0**-1022 else power


def test_tail_cut_bounds_a_rest_of_subnormal_powers():
    # c_m = 2^1000 on p_m = m at z = 0.3, up to the last live term
    # (p t >= -1100): from about m = 589 on pow(z, m) is subnormal, and one
    # ulp high there it adds 2^1000 * 2^-1074 = 2^-74 to each term.  The cut
    # at 2^-88 lands where the true terms are near 2^-90, so only D's 2^27
    # part bounds the computed rest.
    z, tau = 0.3, 0.0
    t = math.log2(z)
    n = math.floor(UNDERFLOW_LOG2 / t) + 1
    p = np.arange(n, dtype=float)
    terms = [2.0**1000 * high_pow(z, m) for m in range(n)]
    run = log2_majorant(np.full(n, 1000.0), p, tau)
    log2_g = math.log2(1.0 + 1.0 / (-(t - tau) * math.log(2.0)))
    k, bound = cut(run, p, tau, log2_g, -88.0, t)
    assert z**p[k] < 2.0**-1022 and k < n
    assert exact_magnitude(terms[k:]) > 2.0**-80 > 2.0 ** (1000.0 + p[k] * t + log2_g + 2.0)
    assert exact_magnitude(terms[k:]) <= Fraction(bound)
    assert cut(run[:k], p[:k], tau, log2_g, -88.0, t) is None


@pytest.mark.sweep
def test_tail_cut_bounds_the_exact_rest_of_drawn_columns(seed):
    # Drawn columns on either ladder direction: coefficients of a random
    # log2 walk about the edge's decay, zeros included, cut at a drawn aim, either as
    # evaluate_series cuts (tail_cut_at: offset 0, its exact G, at z) or as
    # the residual does (tail_cut: offset 1, G <= 2 with the edge a factor 2
    # beyond the nearest point, at several points, each term moved by 1/z or
    # z, D rounded by numpy's exp2), with pow one
    # ulp high where it is subnormal.  At every point D bounds the exact sum
    # of the dropped computed magnitudes, the cut is the shortest, and some
    # cuts drop subnormal powers.
    rng = random.Random(f"tail-cut-{seed}")
    cuts = subnormal = 0
    for _ in range(60):
        n = rng.randrange(65, 700)
        step = rng.choice((1.0, -1.0))
        p = rng.choice((0.0, 0.5, -1.5, 3.0)) + step * np.arange(n)
        residual_like = rng.random() < 0.5
        # Ascending columns are sampled in (0, 1), descending ones in (1, inf).
        zs = sorted(2.0 ** (-step * rng.uniform(0.05, 12.0)) for _ in range(5))
        z_edge = zs[-1] if step > 0 else zs[0]
        if residual_like:
            tau, log2_g, offset, points = math.log2(z_edge) + step, 1.0, 1.0, zs
        else:
            tau = math.log2(z_edge) + step * rng.uniform(1e-3, 2.0)
            gap = abs(math.log2(z_edge) - tau)
            log2_g, offset, points = math.log2(1.0 + 1.0 / (gap * math.log(2.0))), 0.0, [z_edge]
        # The walk is that of log2 c_m + p_m tau, so that the terms fall at the edge.
        walk = np.cumsum([rng.uniform(-4.0, 4.0) for _ in range(n)]) + rng.uniform(-300.0, 700.0)
        c = np.exp2(np.clip(walk - p * tau, -900.0, 900.0)) * [rng.choice((1.0, -1.0, 1.0, 0.0))
                                                                 for _ in range(n)]
        with np.errstate(divide="ignore"):
            run = log2_majorant(np.log2(np.abs(c)), p, tau)
        t_edge = math.log2(z_edge)
        aim = run[0] + p[0] * (t_edge - tau) - rng.uniform(10.0, 1200.0)
        ts = [math.log2(z) for z in points]

        def cut_before(k):
            """The cut of the first k terms, with D at every point."""
            if residual_like:
                return tail_cut(memoryview(run[:k]), memoryview(p[:k]), tau, log2_g, aim, t_edge,
                                np.array(ts), offset)
            found = cut(run[:k], p[:k], tau, log2_g, aim, t_edge)
            return found and (found[0], [found[1]])

        found = cut_before(n)
        if found is None:
            continue
        k, bounds = found
        cuts += 1
        if k:
            assert cut_before(k) is None
        for z, t, bound in zip(points, ts, bounds):
            shift = (1.0 / z if z < 1.0 else z) if residual_like else 1.0
            terms = [0.0 if pm * t < UNDERFLOW_LOG2 else cm * high_pow(z, pm) * shift
                     for pm, cm in zip(p.tolist(), c.tolist())]
            assert exact_magnitude(terms[k:]) <= Fraction(bound), (seed, z, k)
            subnormal += any(pm * t >= UNDERFLOW_LOG2 and z**pm < 2.0**-1022 and cm != 0.0
                             for pm, cm in zip(p[k:].tolist(), c[k:].tolist()))
    assert cuts > 10 and subnormal > 0
