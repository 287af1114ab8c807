import json
import math
from fractions import Fraction
import pickle
import random
import struct

import numpy as np
import pytest

from heun_su11 import series_engine
from heun_su11.errors import NumericalError, ValidationError
from heun_su11.cli import PRESETS
from heun_su11.heun_core import lame_parameters, make_parameters
from heun_su11.jsonio import canonical_dumps
from heun_su11.representations import (
    ExponentGrid,
    RepresentationClass,
    RepresentationDescriptor,
    classify,
    split_even_odd,
)
from heun_su11.series_engine import (
    ASCENDING,
    DESCENDING,
    EvaluatedSeries,
    SeriesSolution,
    _live_terms,
    convergence_domain,
    evaluate_series,
    series_solution,
)
from heun_su11.su11_algebra import Su11Decomposition, casimir_value, decompose
from heun_su11.verifier import ode_residual
from oracle import evaluate_by_terms, exact_magnitude, series_terms, sum_by_terms, terms

POINT_PAIRS = [(2.0, 1.0), (0.5, -0.3)]


def recurrence_residual(dec, sol):
    """Max relative defect of the three-term relation on re-substitution,
    relative to the largest of its three terms."""
    b = sol.coefficients
    step = 1.0 if sol.direction == ASCENDING else -1.0
    worst = 0.0
    for m in range(len(b) - 1):
        inward, diag, outward = dec.three_term_rows(sol.p0 + step * m, step)
        t_in = inward * (b[m - 1] if m >= 1 else 0.0)
        t_mid = (diag - sol.q) * b[m]
        t_out = outward * b[m + 1]
        scale = max(abs(t_in), abs(t_mid), abs(t_out))
        defect = abs(t_in + t_mid + t_out)
        worst = max(worst, defect / scale if scale > 0.0 else 0.0)
    return worst


def lame_setup(a, q):
    dec = decompose(lame_parameters(0.0, a, q))
    reps = classify(dec)
    by_class = {r.rep_class: r for r in reps}
    return dec, by_class


def synthetic_decomposition(mu, nu, c_minus=0.6):
    return Su11Decomposition(
        mu=mu,
        nu=nu,
        c_plus=0.25,
        c_minus=c_minus,
        c2=-1.1,
        c1=0.3,
        c0=-0.2,
        casimir=casimir_value(mu, nu),
    )


def ascending_closed_forms(a, q, parity):
    # Degree-one to degree-three coefficients of the two z-power series
    # around the origin, hand-expanded from the three-term recurrence.
    if parity == "even":
        return (
            2.0 * q / a,
            2.0 * q * (q + a + 1.0) / (3.0 * a * a),
            2.0
            * q
            * (2.0 * q * q + 10.0 * q * (a + 1.0) + 8.0 * (a * a + 1.0) + 7.0 * a)
            / (45.0 * a**3),
        )
    return (
        (4.0 * q + a + 1.0) / (6.0 * a),
        (16.0 * q * q + 40.0 * q * (a + 1.0) + 9.0 * (a * a + 1.0) + 6.0 * a)
        / (120.0 * a * a),
        (
            64.0 * q**3
            + 560.0 * q * q * (a + 1.0)
            + 1036.0 * q * (a + 1.0) ** 2
            - 1008.0 * a * q
            + 225.0 * (a + 1.0) ** 3
            - 540.0 * a * (a + 1.0)
        )
        / (5040.0 * a**3),
    )


@pytest.mark.parametrize("a,q", POINT_PAIRS)
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_ascending_closed_forms(a, q, parity):
    dec, by_class = lame_setup(a, q)
    sol = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], parity, q)
    expected = ascending_closed_forms(a, q, parity)
    for m, value in enumerate(expected, start=1):
        assert sol.coefficients[m] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("a,q", POINT_PAIRS)
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_descending_matches_scaled_ascending(a, q, parity):
    dec, by_class = lame_setup(a, q)
    asc = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], parity, q)
    desc = series_solution(dec, by_class[RepresentationClass.NEGATIVE_DISCRETE], parity, q)
    # with symmetric weights the 1/z ladder mirrors the z ladder exactly
    for m in range(6):
        assert desc.coefficients[m] == pytest.approx(
            a**m * asc.coefficients[m], rel=1e-13
        )


def test_leading_coefficient_is_one():
    dec, by_class = lame_setup(2.0, 1.0)
    for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
        for parity in ("even", "odd"):
            sol = series_solution(dec, by_class[cls], parity, 1.0)
            assert sol.coefficients[0] == 1.0
            assert sol.truncation == 60


@pytest.mark.parametrize("a,q", POINT_PAIRS)
def test_recurrence_residual_small(a, q):
    dec, by_class = lame_setup(a, q)
    for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
        for parity in ("even", "odd"):
            sol = series_solution(dec, by_class[cls], parity, q)
            assert recurrence_residual(dec, sol) <= 1e-13


def test_series_bases_follow_parity_grids():
    dec, by_class = lame_setup(2.0, 1.0)
    pd = by_class[RepresentationClass.POSITIVE_DISCRETE]
    nd = by_class[RepresentationClass.NEGATIVE_DISCRETE]
    assert series_solution(dec, pd, "even", 1.0).p0 == 0.0
    assert series_solution(dec, pd, "odd", 1.0).p0 == 0.5
    assert series_solution(dec, nd, "even", 1.0).p0 == 0.0
    assert series_solution(dec, nd, "odd", 1.0).p0 == -0.5


def test_convergence_domain_cases():
    assert convergence_domain(2.0, ASCENDING) == (0.0, 1.0)
    assert convergence_domain(0.5, DESCENDING) == (1.0, math.inf)
    assert convergence_domain(-3.0, ASCENDING) == (0.0, 1.0)
    assert convergence_domain(-3.0, DESCENDING) == (3.0, math.inf)
    assert convergence_domain(0.5, ASCENDING) == (0.0, 0.5)


def test_convergence_domain_rep_consistency():
    dec, by_class = lame_setup(2.0, 1.0)
    pd = by_class[RepresentationClass.POSITIVE_DISCRETE]
    nd = by_class[RepresentationClass.NEGATIVE_DISCRETE]
    assert series_solution(dec, pd, "even", 1.0).domain == (0.0, 1.0)
    assert series_solution(dec, nd, "odd", 1.0).domain == (2.0, math.inf)
    with pytest.raises(ValidationError, match="discrete ladders, not finite_dimensional"):
        series_solution(dec, by_class[RepresentationClass.FINITE_DIMENSIONAL], "even", 1.0)


@pytest.mark.parametrize(
    "a,cls,target",
    [
        (2.0, RepresentationClass.POSITIVE_DISCRETE, 1.0),
        (0.5, RepresentationClass.POSITIVE_DISCRETE, 2.0),
        (2.0, RepresentationClass.NEGATIVE_DISCRETE, 2.0),
    ],
)
def test_coefficient_ratio_approaches_singularity_rate(a, cls, target):
    # successive-coefficient ratios drift to the reciprocal radius like 1/K;
    # the K -> 2K Richardson combination removes that drift
    dec, by_class = lame_setup(a, 0.7)
    ratios = {}
    for K in (200, 400):
        sol = series_solution(dec, by_class[cls], "even", 0.7, truncation=K)
        ratios[K] = sol.coefficients[-1] / sol.coefficients[-2]
    extrapolated = 2.0 * ratios[400] - ratios[200]
    assert extrapolated == pytest.approx(target, abs=1e-3)


def test_evaluate_constant_series():
    dec, by_class = lame_setup(2.0, 0.0)
    sol = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 0.0)
    assert all(b == 0.0 for b in sol.coefficients[1:])
    assert evaluate_series(sol, 0.7).value == 1.0


def test_evaluate_out_of_domain():
    dec, by_class = lame_setup(2.0, 1.0)
    asc = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 1.0)
    desc = series_solution(dec, by_class[RepresentationClass.NEGATIVE_DISCRETE], "even", 1.0)
    for z in (5.0, 0.0, 1.0, -0.5):
        with pytest.raises(ValidationError, match=rf"z={z} is outside the open domain \(0, 1\)"):
            evaluate_series(asc, z)
    with pytest.raises(ValidationError, match=r"z=2.0 is outside the open domain \(2, inf\)"):
        evaluate_series(desc, 2.0)
    assert math.isfinite(evaluate_series(desc, 2.5).value)


def test_truncation_self_consistency():
    dec, by_class = lame_setup(2.0, 1.0)
    pd = by_class[RepresentationClass.POSITIVE_DISCRETE]
    v60 = evaluate_series(series_solution(dec, pd, "even", 1.0, truncation=60), 0.5)
    v120 = evaluate_series(series_solution(dec, pd, "even", 1.0, truncation=120), 0.5)
    assert abs(v60.value - v120.value) <= 1e-10


def _outcome(function, *args):
    """The bit pattern of the value, which tells -nan from nan (a complex
    value's as its real and imaginary parts), or the repr of the ValueError
    raised."""
    try:
        x = function(*args)
    except ValueError as exc:
        return repr(exc)
    if isinstance(x, EvaluatedSeries):
        x = x.value
    return struct.pack("dd", x.real, x.imag) if isinstance(x, complex) else struct.pack("d", x)


@pytest.mark.parametrize("a", [2.0, 4.0, -3.0])
def test_evaluate_series_equals_term_by_term_reference(a):
    # The same products and the same compensated sum: equal to the last bit,
    # NaN signs included, on the overflowed descending series (inf, nan or
    # the ValueError math.fsum raises on inf - inf) and at K=5000 and
    # f=0.001, where most powers underflow and are skipped.
    dec, by_class = lame_setup(a, 0.7)
    for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
        for parity in ("even", "odd"):
            for K in (1, 5, 60, 1000, 5000):
                sol = series_solution(dec, by_class[cls], parity, 0.7, truncation=K)
                lo, hi = sol.domain
                top = hi if math.isfinite(hi) else 4.0 * lo
                for f in (0.001, 0.01, 0.3, 0.7, 0.99):
                    z = lo + f * (top - lo)
                    assert _outcome(evaluate_series, sol, z) == _outcome(
                        evaluate_by_terms, sol, z
                    )


def test_complex_coefficients_evaluate():
    sol = SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                         coefficients=(1.0 + 2.0j, -1.0j), domain=(0.0, math.inf))
    assert evaluate_series(sol, 2.0).value == (1.0 + 2.0j) + 2.0 * (-1.0j)


def test_evaluate_series_equals_term_by_term_fsum():
    # Real and complex sums, with zeros and magnitudes 1e-20 to 1e20, on
    # both sides of z = 1 in a domain that holds them.
    rng = np.random.default_rng(7)
    for _ in range(50):
        values = rng.standard_normal(161) * 10.0 ** rng.integers(-20, 21, size=161)
        values[rng.integers(0, 161, size=20)] = 0.0
        z = float(rng.uniform(0.05, 3.0))
        for direction in (ASCENDING, DESCENDING):
            for coefficients in (values.tolist(), (values * (1.0 - 0.5j)).tolist()):
                sol = SeriesSolution(p0=0.25, direction=direction, parity="even", q=0.0,
                                     coefficients=tuple(coefficients), domain=(0.0, math.inf))
                assert evaluate_series(sol, z).value == sum_by_terms(series_terms(sol), z)


@pytest.mark.parametrize("p0", [math.nan, -math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("direction, z", [(ASCENDING, 0.3), (DESCENDING, 3.0)])
def test_non_finite_base_keeps_every_term(p0, direction, z):
    sol = SeriesSolution(
        p0=p0,
        direction=direction,
        parity="even",
        q=0.0,
        coefficients=(1.0, -2.0, 0.5),
        domain=(0.0, 1.0) if direction == ASCENDING else (1.0, math.inf),
    )
    assert _live_terms(p0, 1 if direction == ASCENDING else -1, z, 3) == 3
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_by_terms, sol, z)


@pytest.mark.parametrize("z", [0.5, 1.0, 1.5])
def test_evaluation_past_one_in_a_wider_domain(z):
    # A hand-built domain that reaches past z = 1 gets no skip there, where
    # the powers of an ascending series grow.
    sol = SeriesSolution(
        p0=-2.0,
        direction=ASCENDING,
        parity="even",
        q=0.0,
        coefficients=tuple(0.5**m for m in range(1500)),
        domain=(0.0, 2.0),
    )
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_by_terms, sol, z)


LONG_A = (2.0, 4.0, -3.0, 0.3, -0.5, 1e-3, 1e3)


def preset_ladder(preset, a, q, cls):
    """The decomposition of a preset and its ladder of class cls."""
    p = PRESETS[preset]
    params = (lame_parameters(p["rho"], a, q) if "rho" in p else
              make_parameters(p["gamma"], p["delta"], p["alpha"], p["beta"], a, q))
    dec = decompose(params)
    return dec, next(r for r in classify(dec) if r.rep_class is cls)


def preset_series(preset, a, q, cls, parity, K):
    return series_solution(*preset_ladder(preset, a, q, cls), parity, q, truncation=K)


def recurrence_by_loop(dec, rep, parity, q, truncation):
    """The forward recurrence as one Python loop over the rows, with A(p) - q
    formed in the loop and the negation taken before the division: the
    coefficients series_solution must reproduce bit for bit."""
    grid = getattr(split_even_odd(rep), parity)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = dec.three_term_rows(grid.base + grid.step * np.arange(-1, truncation), grid.step)
    inward, diag, outward = (row.tolist() for row in rows)
    coefficients, b_prev, b_here = [1.0], 0.0, 1.0
    for w_in, w_diag, divisor in zip(inward[1:], diag[1:], outward[1:]):
        b_next = -(w_in * b_prev + (w_diag - q) * b_here) / divisor
        coefficients.append(b_next)
        b_prev, b_here = b_here, b_next
    return coefficients


def packed(values):
    """The bytes of the floats, so that NaNs compare by sign and payload."""
    return struct.pack(f"{len(values)}d", *values)


# The bench's presets at their own a, and example1 at a = 4, whose
# descending K=1000 series overflows into NaNs of both signs.
RECURRENCE_CASES = [("example1", 2.0), ("example2", 4.0), ("lame", -3.0), ("example1", 4.0)]
LADDERS = [RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE]


def check_recurrence_bits(preset, a, q, cls, parity, K):
    dec, rep = preset_ladder(preset, a, q, cls)
    sol = series_solution(dec, rep, parity, q, truncation=K)
    assert packed(sol.coefficients) == packed(recurrence_by_loop(dec, rep, parity, q, K))
    return sol


@pytest.mark.parametrize("preset, a", RECURRENCE_CASES)
@pytest.mark.parametrize("cls", LADDERS, ids=["pd", "nd"])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("K", [60, 1000])
def test_recurrence_bits_equal_the_loop(preset, a, cls, parity, K):
    sol = check_recurrence_bits(preset, a, 0.3, cls, parity, K)
    if (preset, a, cls, K) == ("example1", 4.0, LADDERS[1], 1000):
        signs = {math.copysign(1.0, b) for b in sol.coefficients if math.isnan(b)}
        assert signs == {1.0, -1.0}


@pytest.mark.sweep
def test_recurrence_bits_sweep(seed):
    # The same grid at drawn q, as the bench draws them.
    rng = random.Random(f"recurrence-bits-{seed}")
    for preset, a in RECURRENCE_CASES:
        for cls in LADDERS:
            for parity in ("even", "odd"):
                for K in (60, 1000):
                    check_recurrence_bits(preset, a, round(rng.uniform(-1.0, 1.0), 6), cls,
                                          parity, K)


def counted_pow(monkeypatch):
    """A list that counts math.pow calls from here on."""
    calls = []
    real_pow = math.pow

    def counting(x, y):
        calls.append(None)
        return real_pow(x, y)

    monkeypatch.setattr(math, "pow", counting)
    return calls


def cut_at(sol, z, monkeypatch):
    """What monomials.tail_cut_at returns to evaluate_series at z, (k, D),
    or None where evaluate_series does not call it or it finds no cut."""
    calls = []
    real = series_engine.tail_cut_at

    def recording(*args):
        calls.append(real(*args))
        return calls[-1]

    with monkeypatch.context() as patch:
        patch.setattr(series_engine, "tail_cut_at", recording)
        _outcome(evaluate_series, sol, z)
    return calls[0] if calls else None


@pytest.mark.sweep
def test_long_series_sweep_equals_the_reference(seed):
    # Long series of every preset, where evaluate_series sums only a
    # certified prefix of the live terms: the value must still equal the
    # term-by-term reference bit for bit, at points from the edge of the
    # domain near the base to the far one.
    rng = random.Random(f"long-series-sweep-{seed}")
    for a in LONG_A:
        for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
            for parity in ("even", "odd"):
                for K in (1000, 5000):
                    q = round(rng.uniform(-1.0, 1.0), 6)
                    sol = preset_series(rng.choice(sorted(PRESETS)), a, q, cls, parity, K)
                    lo, hi = sol.domain
                    top = hi if math.isfinite(hi) else 4.0 * lo
                    for f in (rng.uniform(0.0, 0.05), rng.uniform(0.05, 0.95),
                              rng.uniform(0.95, 1.0)):
                        z = lo + f * (top - lo)
                        if lo < z < hi:
                            assert _outcome(evaluate_series, sol, z) == _outcome(
                                evaluate_by_terms, sol, z
                            ), (a, cls, parity, K, q, z)


@pytest.mark.sweep
def test_cached_exponents_equal_the_reference_cold_warm_and_unpickled(seed):
    # Each series builds its exponents array on first use and every later
    # evaluation reads it.  Series on the cut path (long, finite, real), the
    # full path (short, or complex) and the non-finite path (an overflowed
    # descending series), plus two built directly with an int and a
    # np.float64 p0, are evaluated in turn, point by point: cold, warm, and
    # as copies pickled before and after their first use.  Every outcome
    # must equal the term-by-term reference, whose exponents are computed
    # apart from the cache, bit for bit.
    rng = random.Random(f"cached-exponents-{seed}")
    POS, NEG = RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE
    preset = rng.choice(sorted(PRESETS))
    q = round(rng.uniform(-1.0, 1.0), 6)
    long_real = preset_series(preset, 2.0, q, POS, rng.choice(("even", "odd")), 1000)
    overflowed = preset_series(preset, 4.0, q, NEG, rng.choice(("even", "odd")), 1000)
    assert not all(map(math.isfinite, overflowed.coefficients))
    short = preset_series(preset, 2.0, q, NEG, "even", 60)
    complex_ = SeriesSolution(p0=0.25, direction=ASCENDING, parity="even", q=0.0,
                              coefficients=tuple(b * (1.0 - 0.5j) for b in long_real.coefficients),
                              domain=(0.0, 1.0))
    int_p0 = SeriesSolution(p0=1, direction=ASCENDING, parity="even", q=q,
                            coefficients=long_real.coefficients, domain=long_real.domain)
    numpy_p0 = SeriesSolution(p0=np.float64(-0.5), direction=DESCENDING, parity="odd", q=q,
                              coefficients=short.coefficients, domain=short.domain)
    series = [long_real, overflowed, short, complex_, int_p0, numpy_p0]

    def points(sol):
        lo, hi = sol.domain
        top = hi if math.isfinite(hi) else 4.0 * lo
        return [lo + rng.uniform(0.001, 0.999) * (top - lo) for _ in range(3)]

    zs = [points(sol) for sol in series]
    expected = [[_outcome(evaluate_by_terms, sol, z) for z in pts] for sol, pts in zip(series, zs)]
    pickled_cold = [pickle.loads(pickle.dumps(sol)) for sol in series]
    for copies in (series, series, [pickle.loads(pickle.dumps(sol)) for sol in series],
                   pickled_cold):
        outcomes = [[None] * 3 for _ in copies]
        for k in range(3):
            for i, sol in enumerate(copies):
                outcomes[i][k] = _outcome(evaluate_series, sol, zs[i][k])
        assert outcomes == expected
    assert all(sol.exponents.dtype == np.float64 for sol in series)


def test_a_zero_divisor_names_its_step():
    # A -0.0 divisor at step 4, after a NaN one at step 2 that does not stop
    # the recurrence, raises at step 4; the rows are forged after the base check.
    dec, by_class = lame_setup(2.0, 0.7)

    class Forged(Su11Decomposition):
        def three_term_rows(self, p, step):
            inward, diag, outward = super().three_term_rows(p, step)
            outward = np.array(outward)
            outward[[2, 4, 6]] = [math.nan, -0.0, 0.0]
            return inward, diag, outward

    forged = Forged._make(dec)
    with pytest.raises(NumericalError) as excinfo:
        series_solution(forged, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 0.7)
    assert str(excinfo.value) == ("leading divisor vanished at step 4; the ladder truncates "
                                  "and the forward recurrence cannot continue")


def planted_series(last_bit, tail_sign):
    """A K=1000 ascending series whose first two terms at z = 1/2 sum to
    1 + last_bit * 2^-52 + 2^-53, a rounding midpoint, and whose terms from
    m = 150 on add up to about tail_sign * 2^-149."""
    coefficients = [1.0 + last_bit * 2.0**-52, 2.0**-52] + [0.0] * 148 + [tail_sign] * 851
    return SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                          coefficients=tuple(coefficients), domain=(0.0, 1.0))


@pytest.mark.parametrize("last_bit", [0, 1])
@pytest.mark.parametrize("tail_sign", [1.0, -1.0])
def test_certificate_refuses_a_prefix_on_a_rounding_midpoint(last_bit, tail_sign, monkeypatch):
    # The terms are exact at z = 1/2.  The cut lands in the zero run, so the
    # prefix sums to the two leading terms, a midpoint that rounds to even;
    # the dropped rest lies far below the cut's bound, yet it decides the
    # last bit of the full sum, so the certificate must refuse and the full
    # sum must be taken.
    sol = planted_series(last_bit, tail_sign)
    assert 2 <= cut_at(sol, 0.5, monkeypatch)[0] < 150
    assert evaluate_series(sol, 0.5).value == 1.0 + (last_bit + (tail_sign > 0.0)) * 2.0**-52
    assert _outcome(evaluate_series, sol, 0.5) == _outcome(evaluate_by_terms, sol, 0.5)


@pytest.mark.parametrize("q", [0.0, 0.95])
@pytest.mark.parametrize("z", [2.5, 4.0, 7.9])
def test_cut_holds_on_huge_coefficients_with_subnormal_powers(q, z, monkeypatch):
    # example1's descending K=1000 series at a=2 has finite coefficients up
    # to 1.7e293 whose powers of z are subnormal at the far end, where pow
    # may err by 2^-1074 absolute: D covers that error, times |b_m|, on
    # every dropped term as well as the exact rest, so the cut is still
    # certified, and exact.
    sol = preset_series("example1", 2.0, q, RepresentationClass.NEGATIVE_DISCRETE, "even", 1000)
    assert max(map(abs, sol.coefficients)) > 1e293
    assert all(map(math.isfinite, sol.coefficients))
    live = _live_terms(sol.p0, -1, z, len(sol.coefficients))
    assert live * math.log2(z) > 1022.0
    n, bound = cut_at(sol, z, monkeypatch)
    dropped = series_terms(sol)[n:live]
    slack = exact_magnitude(b for p, b in dropped if z**p < 2.0**-1022) * Fraction(2.0**-1074)
    assert exact_magnitude(b * z**p for p, b in dropped) + slack <= Fraction(bound)
    expected = _outcome(evaluate_by_terms, sol, z)
    calls = counted_pow(monkeypatch)
    assert _outcome(evaluate_series, sol, z) == expected
    assert len(calls) < live / 2


def test_cut_is_taken_on_a_decaying_series(monkeypatch):
    # A K=1000 ascending series at z = 0.5 keeps every term live, yet its
    # terms fall by half per step: the value needs the powers of the
    # certified prefix alone, fewer than a tenth of them.
    dec, by_class = lame_setup(2.0, 0.7)
    sol = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 0.7,
                          truncation=1000)
    assert _live_terms(sol.p0, 1, 0.5, 1001) == 1001
    cut = cut_at(sol, 0.5, monkeypatch)[0]
    assert cut < 100
    expected = _outcome(evaluate_by_terms, sol, 0.5)
    calls = counted_pow(monkeypatch)
    assert _outcome(evaluate_series, sol, 0.5) == expected
    assert len(calls) == cut


def test_each_series_computes_its_magnitudes_once(monkeypatch):
    # Three K=1000 series evaluated alternately, point by point: each computes
    # its log2|b_m|, and from them its majorant, once, on first use, the
    # overflowed third over its leading F finite coefficients alone, and the
    # values equal those of the same series evaluated one after the other,
    # bit for bit.
    def trio():
        return [preset_series(preset, a, q, cls, "even", 1000) for preset, a, q, cls in (
            ("lame", 2.0, 0.7, RepresentationClass.POSITIVE_DISCRETE),
            ("example1", 2.0, 0.3, RepresentationClass.POSITIVE_DISCRETE),
            ("example2", 4.0, 0.3, RepresentationClass.NEGATIVE_DISCRETE))]

    def points(sol):
        lo, hi = sol.domain
        top = hi if math.isfinite(hi) else 4.0 * lo
        return [lo + (0.05 + 0.9 * k / 25) * (top - lo) for k in range(25)]

    sequential = [_outcome(evaluate_series, sol, z) for sol in trio() for z in points(sol)]
    calls = []
    real_log2 = np.log2

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return real_log2(x, *args, **kwargs)

    monkeypatch.setattr(np, "log2", counting)
    series = trio()
    finite_run = next(m for m, b in enumerate(series[2].coefficients) if not math.isfinite(b))
    alternating = [[_outcome(evaluate_series, sol, z) for sol, z in zip(series, zs)]
                   for zs in zip(*map(points, series))]
    assert calls == [1001, 1001, finite_run]
    assert [outcome for column in zip(*alternating) for outcome in column] == sequential


OVERFLOWED = [("example2", 4.0), ("lame", -3.0)]


@pytest.mark.parametrize("preset, a", OVERFLOWED)
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("factor", [2.0, 1.05])
def test_an_overflowed_series_equals_the_reference(preset, a, parity, factor, monkeypatch):
    # The K=1000 descending series overflows from b_F on.  At 2R its live
    # terms stop before F and the majorant bounds their sum below 2^1023, so
    # fsum cannot overflow on them: the value is the NaN that the zero
    # powers of the non-finite tail add, and no power is computed.  At 1.05R
    # they reach past F: no cut, and every live power is computed.  Either
    # way the outcome is the reference's, NaN sign and the ValueError of
    # inf - inf included.
    sol = preset_series(preset, a, 0.3, RepresentationClass.NEGATIVE_DISCRETE, parity, 1000)
    finite_run = len(sol.log2_majorant)
    assert all(map(math.isfinite, sol.coefficients[:finite_run]))
    assert not math.isfinite(sol.coefficients[finite_run])
    z = factor * sol.domain[0]
    live = _live_terms(sol.p0, -1, z, 1001)
    found = cut_at(sol, z, monkeypatch)
    if factor == 2.0:
        assert found[0] == 0 < live <= finite_run and found[1] < 2.0**1023
    else:
        assert found is None and live > finite_run
    expected = _outcome(evaluate_by_terms, sol, z)
    calls = counted_pow(monkeypatch)
    assert _outcome(evaluate_series, sol, z) == expected
    assert len(calls) == (0 if found else live)


@pytest.mark.parametrize("tail", [(math.inf, 2.0, math.nan, -math.inf),
                                  (-math.nan, 2.0, math.inf, math.nan),
                                  (math.nan, -math.inf, 0.0, -math.nan)])
def test_a_hand_built_non_finite_tail_equals_the_reference(tail, monkeypatch):
    # 300 finite terms that fall by 2^-8 per step, then non-finite and finite
    # coefficients mixed: at z = 2^-8 the live terms stop before the tail, no
    # power is computed, and the NaNs of the tail decide the value.
    sol = SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                         coefficients=(1.0,) * 300 + tail, domain=(0.0, 1.0))
    z = 2.0**-8
    live = _live_terms(0.0, 1, z, len(sol.coefficients))
    cut, bound = cut_at(sol, z, monkeypatch)
    assert cut == 0 < live <= len(sol.log2_majorant) == 300 and bound < 2.0**1023
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_by_terms, sol, z)


@pytest.mark.parametrize("z", [2.0**-8, 2.0**-16])
def test_an_infinite_coefficient_live_at_one_point_and_dead_at_another(z, monkeypatch):
    # b_100 is inf.  At z = 2^-8 it is live and its term is inf, so the full
    # path sums every live term; at z = 2^-16 its power is 0.0, and the
    # cached tail gives the reference's NaN with no power computed.
    sol = SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                         coefficients=(1.0,) * 100 + (math.inf,) + (1.0,) * 200,
                         domain=(0.0, 1.0))
    live = _live_terms(0.0, 1, z, len(sol.coefficients))
    found = cut_at(sol, z, monkeypatch)
    if z == 2.0**-16:
        assert found[0] == 0 < live <= 100 and found[1] < 2.0**1023
    else:
        assert found is None and live > 100
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_by_terms, sol, z)


def test_a_certificate_that_overflows_falls_back_to_the_full_sum(monkeypatch):
    # b_100 = 2^1002 on the domain (0, 2) puts the cut's D near 7.7e307 at
    # z = 1/2, so fsum(prefix + [D]) overflows on b_0 = 1.5e308: the
    # certificate is refused, and the full sum, 1.5e308 plus terms far below
    # its ulp, is the reference's.
    sol = SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                         coefficients=(1.5e308,) + (1.0,) * 99 + (2.0**1002,), domain=(0.0, 2.0))
    cut, bound = cut_at(sol, 0.5, monkeypatch)
    prefix = [b * 0.5**m for m, b in enumerate(sol.coefficients[:cut])]
    with pytest.raises(OverflowError):
        math.fsum(prefix + [bound])
    assert _outcome(evaluate_series, sol, 0.5) == _outcome(evaluate_by_terms, sol, 0.5)
    assert evaluate_series(sol, 0.5).value == 1.5e308


def test_an_overflowed_series_bounded_past_2_to_the_1023_sums_its_live_terms(monkeypatch):
    # b_1150 is inf, and the 1101 live terms at z = 1/2 stop before it, but
    # b_0..b_2 = 1.5e308 put D at the cut 0 past 2^1023: the cached NaN of
    # the tail is not taken, every live power is computed, and fsum
    # overflows on the live terms as the reference's fsum does.
    sol = SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                         coefficients=(1.5e308,) * 3 + (1.0,) * 1147 + (math.inf,) * 50,
                         domain=(0.0, 1.0))
    live = _live_terms(0.0, 1, 0.5, len(sol.coefficients))
    found = []
    real = series_engine.tail_cut_at

    def recording(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(series_engine, "tail_cut_at", recording)
    calls = counted_pow(monkeypatch)
    for function in (evaluate_series, evaluate_by_terms):
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            function(sol, 0.5)
    [(cut, bound)] = found
    assert cut == 0 < live <= len(sol.log2_majorant) == 1150 and not bound < 2.0**1023
    assert len(calls) == live


@pytest.mark.sweep
def test_cut_bounds_the_exact_dropped_rest(seed, monkeypatch):
    # Over the long-series grid, overflowed series included, the D of each
    # cut that tail_cut returns to evaluate_series must bound the exact sum
    # of the computed magnitudes |b_m * z**p| of the live terms it drops,
    # all of them for an overflowed series (n = 0, its cached tail taken
    # where D < 2^1023), and the value must equal the term-by-term reference.
    rng = random.Random(f"exact-cut-{seed}")
    cuts = overflowed_cuts = 0
    for a in LONG_A:
        for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
            for parity in ("even", "odd"):
                for K in (1000, 5000):
                    q = round(rng.uniform(-1.0, 1.0), 6)
                    sol = preset_series(rng.choice(sorted(PRESETS)), a, q, cls, parity, K)
                    lo, hi = sol.domain
                    top = hi if math.isfinite(hi) else 4.0 * lo
                    for f in (rng.uniform(0.0, 0.05), rng.uniform(0.05, 0.95),
                              rng.uniform(0.95, 1.0)):
                        z = lo + f * (top - lo)
                        if not lo < z < hi:
                            continue
                        where = (a, cls, parity, K, q, z)
                        live = _live_terms(sol.p0, sol.step, z, K + 1)
                        found = cut_at(sol, z, monkeypatch)
                        if found is not None:
                            n, bound = found
                            dropped = series_terms(sol)[n:live]
                            rest = exact_magnitude(b * z**p for p, b in dropped)
                            assert rest <= Fraction(bound), where
                            cuts += 1
                            tail = len(sol.log2_majorant) < K + 1
                            assert n == 0 or not tail, where
                            overflowed_cuts += tail and bound < 2.0**1023
                        assert _outcome(evaluate_series, sol, z) == _outcome(
                            evaluate_by_terms, sol, z
                        ), where
    assert cuts > 0 and overflowed_cuts > 0


def descending_ones(edge):
    return SeriesSolution(p0=0.0, direction=DESCENDING, parity="even", q=0.0,
                          coefficients=(1.0,) * 1000, domain=(edge, math.inf))


@pytest.mark.parametrize("sol, z", [
    # log2(z) = 0, where the powers of an ascending series do not fall.
    (SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                    coefficients=(0.5,) * 1000, domain=(0.0, 2.0)), 1.0),
    # R = inf: a terminating ascending eigenfunction's domain (0, inf).
    (SeriesSolution(p0=0.0, direction=ASCENDING, parity="even", q=0.0,
                    coefficients=(1.0,) + (0.5,) * 999, domain=(0.0, math.inf)), 0.5),
    # R = 0 on a descending series.
    (descending_ones(0.0), 2.0),
    # One ulp inside R = 1000, where log2(z) rounds to log2(R) and s to 0;
    # at z = 1000 (1 + 2^-45), where s is -4e-14, the series is cut at 13.
    (descending_ones(1000.0), math.nextafter(1000.0, math.inf)),
])
def test_an_edge_case_takes_the_full_sum(sol, z, monkeypatch):
    live = _live_terms(sol.p0, sol.step, z, len(sol.coefficients))
    assert live > 64
    assert cut_at(sol, z, monkeypatch) is None
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_by_terms, sol, z)


def test_recurrence_breakdown_on_vanishing_divisor():
    dec = synthetic_decomposition(0.0, 0.0, c_minus=0.0)
    pd = {r.rep_class: r for r in classify(dec)}[RepresentationClass.POSITIVE_DISCRETE]
    with pytest.raises(NumericalError, match="leading divisor vanished at step 1;"):
        series_solution(dec, pd, "even", 0.3)


def test_base_not_annihilated_raises():
    dec = decompose(make_parameters(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=2.0, q=0.0))
    fake = RepresentationDescriptor(
        rep_class=RepresentationClass.POSITIVE_DISCRETE,
        casimir=dec.casimir,
        grid=ExponentGrid(base=0.25, step=0.5, size=None),
    )
    with pytest.raises(ValueError, match="not annihilated"):
        series_solution(dec, fake, "even", 0.0)


def test_unsupported_representation_classes():
    dec, by_class = lame_setup(2.0, 1.0)
    with pytest.raises(ValidationError, match="discrete ladders, not finite_dimensional"):
        series_solution(dec, by_class[RepresentationClass.FINITE_DIMENSIONAL], "even", 1.0)
    ps_dec = synthetic_decomposition(0.5, 0.0)
    ps = [
        r
        for r in classify(ps_dec)
        if r.rep_class is RepresentationClass.PRINCIPAL_SERIES
    ][0]
    with pytest.raises(ValidationError, match="discrete ladders, not principal_series"):
        series_solution(ps_dec, ps, "even", 1.0)


def test_parity_and_truncation_validation():
    dec, by_class = lame_setup(2.0, 1.0)
    pd = by_class[RepresentationClass.POSITIVE_DISCRETE]
    with pytest.raises(ValueError):
        series_solution(dec, pd, "both", 1.0)
    with pytest.raises(ValueError):
        series_solution(dec, pd, "even", 1.0, truncation=0)


def test_series_ode_residual_both_directions():
    params = lame_parameters(0.0, 2.0, 0.3)
    dec, by_class = lame_setup(2.0, 0.3)
    asc = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "odd", 0.3)
    report = ode_residual(params, asc.as_monomial_sum(), domain=(1e-3, 0.5))
    assert report.max_relative_residual <= 1e-8
    desc = series_solution(dec, by_class[RepresentationClass.NEGATIVE_DISCRETE], "odd", 0.3)
    report = ode_residual(params, desc.as_monomial_sum(), domain=(4.0, 8.0))
    assert report.max_relative_residual <= 1e-8


def test_reference_scaled_coefficients():
    dec, by_class = lame_setup(2.0, 1.0)
    asc = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 1.0)
    desc = series_solution(dec, by_class[RepresentationClass.NEGATIVE_DISCRETE], "even", 1.0)
    # (z/a)^m scaling for ascending, (a/z)^m for descending
    scaled = [b * 2.0**m for m, b in enumerate(asc.coefficients)]
    assert scaled[0] == 1.0
    assert scaled[1] == pytest.approx(2.0, rel=1e-14)  # 2q in ladder units
    for m in range(5):
        assert desc.coefficients[m] * 2.0**-m == pytest.approx(asc.coefficients[m], rel=1e-13)


def test_exponents_and_monomial_view():
    dec, by_class = lame_setup(2.0, 1.0)
    asc = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "odd", 1.0)
    desc = series_solution(dec, by_class[RepresentationClass.NEGATIVE_DISCRETE], "odd", 1.0)
    assert asc.exponents[3] == 3.5
    assert desc.exponents[3] == -3.5
    by_exponent = dict(terms(asc.as_monomial_sum()))
    assert by_exponent[0.5] == 1.0
    assert by_exponent[1.5] == asc.coefficients[1]
    by_exponent = dict(terms(desc.as_monomial_sum()))
    assert by_exponent[-1.5] == desc.coefficients[1]


def test_json_roundtrip_including_infinite_domain():
    dec, by_class = lame_setup(2.0, 1.0)
    for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
        sol = series_solution(dec, by_class[cls], "odd", 1.0, truncation=8)
        doc = json.loads(canonical_dumps(sol.to_json_dict()))
        assert SeriesSolution.from_json_dict(doc) == sol
