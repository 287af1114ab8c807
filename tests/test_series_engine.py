import json
import math
import struct

import pytest

from heun_su11.errors import OutOfDomain, RecurrenceBreakdown, UnsupportedClass
from heun_su11.heun_core import lame_parameters, make_parameters
from heun_su11.jsonio import canonical_dumps
from heun_su11.representations import (
    ExponentGrid,
    RepresentationClass,
    RepresentationDescriptor,
    classify,
)
from heun_su11.series_engine import (
    ASCENDING,
    DESCENDING,
    SeriesSolution,
    _live_terms,
    convergence_domain,
    evaluate_series,
    series_solution,
)
from heun_su11.su11_algebra import Su11Decomposition, casimir_value, decompose
from heun_su11.verifier import ode_residual

POINT_PAIRS = [(2.0, 1.0), (0.5, -0.3)]


def recurrence_residual(dec, sol):
    """Max relative defect of the three-term relation on re-substitution,
    relative to the largest of its three terms."""
    b = sol.coefficients
    step = 1.0 if sol.direction == ASCENDING else -1.0
    worst = 0.0
    for m in range(len(b) - 1):
        inward, diag, outward = dec.three_term_rows(sol.exponent(m), step)
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
    with pytest.raises(UnsupportedClass):
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
    value, tail = evaluate_series(sol, 0.7)
    assert value == 1.0
    assert tail == 0.0


def test_evaluate_out_of_domain():
    dec, by_class = lame_setup(2.0, 1.0)
    asc = series_solution(dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 1.0)
    desc = series_solution(dec, by_class[RepresentationClass.NEGATIVE_DISCRETE], "even", 1.0)
    for z in (5.0, 0.0, 1.0, -0.5):
        with pytest.raises(OutOfDomain):
            evaluate_series(asc, z)
    with pytest.raises(OutOfDomain):
        evaluate_series(desc, 2.0)
    assert math.isfinite(evaluate_series(desc, 2.5).value)


def test_truncation_self_consistency():
    dec, by_class = lame_setup(2.0, 1.0)
    pd = by_class[RepresentationClass.POSITIVE_DISCRETE]
    v60 = evaluate_series(series_solution(dec, pd, "even", 1.0, truncation=60), 0.5)
    v120 = evaluate_series(series_solution(dec, pd, "even", 1.0, truncation=120), 0.5)
    assert abs(v60.value - v120.value) <= 1e-10
    assert v60.tail_estimate <= 1e-15


def test_tail_estimate_infinite_for_growing_terms():
    sol = SeriesSolution(
        p0=0.0,
        direction=ASCENDING,
        parity="even",
        q=0.0,
        coefficients=(1.0, 2.0, 4.0, 8.0, 16.0),
        domain=(0.0, 1.0),
    )
    assert evaluate_series(sol, 0.6).tail_estimate == math.inf
    assert math.isfinite(evaluate_series(sol, 0.25).tail_estimate)


def evaluate_series_by_terms(sol, z):
    """Term-by-term reference for evaluate_series: (value, tail estimate)."""
    value = math.fsum(b * z ** sol.exponent(m) for m, b in enumerate(sol.coefficients))
    magnitudes = [abs(b) * z ** sol.exponent(m) for m, b in enumerate(sol.coefficients)]
    if magnitudes[-1] == 0.0:
        return value, 0.0
    ratios = [
        magnitudes[m] / magnitudes[m - 1]
        for m in range(max(1, len(magnitudes) - 5), len(magnitudes))
        if magnitudes[m - 1] > 0.0
    ]
    rho = max(ratios, default=1.0)
    return value, math.inf if rho >= 1.0 else magnitudes[-1] * rho / (1.0 - rho)


def _outcome(function, *args):
    """The bit patterns of (value, tail estimate), which tell -nan from nan,
    or the repr of the ValueError raised."""
    try:
        return tuple(struct.pack("d", x) for x in function(*args))
    except ValueError as exc:
        return repr(exc)


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
                        evaluate_series_by_terms, sol, z
                    )


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
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_series_by_terms, sol, z)


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
    assert _outcome(evaluate_series, sol, z) == _outcome(evaluate_series_by_terms, sol, z)


def test_recurrence_breakdown_on_vanishing_divisor():
    dec = synthetic_decomposition(0.0, 0.0, c_minus=0.0)
    pd = {r.rep_class: r for r in classify(dec)}[RepresentationClass.POSITIVE_DISCRETE]
    with pytest.raises(RecurrenceBreakdown) as excinfo:
        series_solution(dec, pd, "even", 0.3)
    assert excinfo.value.step == 1


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
    with pytest.raises(UnsupportedClass):
        series_solution(dec, by_class[RepresentationClass.FINITE_DIMENSIONAL], "even", 1.0)
    ps_dec = synthetic_decomposition(0.5, 0.0)
    ps = [
        r
        for r in classify(ps_dec)
        if r.rep_class is RepresentationClass.PRINCIPAL_SERIES
    ][0]
    with pytest.raises(UnsupportedClass):
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
    assert asc.exponent(3) == 3.5
    assert desc.exponent(3) == -3.5
    terms = dict(asc.as_monomial_sum().terms())
    assert terms[0.5] == 1.0
    assert terms[1.5] == asc.coefficients[1]
    terms = dict(desc.as_monomial_sum().terms())
    assert terms[-1.5] == desc.coefficients[1]


def test_json_roundtrip_including_infinite_domain():
    dec, by_class = lame_setup(2.0, 1.0)
    for cls in (RepresentationClass.POSITIVE_DISCRETE, RepresentationClass.NEGATIVE_DISCRETE):
        sol = series_solution(dec, by_class[cls], "odd", 1.0, truncation=8)
        doc = json.loads(canonical_dumps(sol.to_json_dict()))
        assert SeriesSolution.from_json_dict(doc) == sol
