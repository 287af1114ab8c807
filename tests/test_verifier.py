import math

import pytest

from heun_su11.errors import SamplePointAtSingularity
from heun_su11.heun_core import canonical_coefficients, make_parameters
from heun_su11.monomials import MonomialSum
from heun_su11.verifier import (
    DEFAULT_SAMPLE_COUNT,
    SINGULARITY_RADIUS,
    ResidualReport,
    chebyshev_points,
    check_sample_points,
    default_sample_points,
    ode_residual,
    residual_for_coefficients,
)


def derivative_crosscheck(solution, z, h_steps):
    """Oracle for MonomialSum.derivative: max deviation of the analytic y',
    y'' from central differences at the smallest step; second-order
    accurate, so it shrinks ~h^2."""
    if z <= 0.0:
        raise ValueError("crosscheck point must satisfy z > 0")
    d1 = solution.derivative()
    d2 = d1.derivative()
    h = min(h_steps)
    if z - h <= 0.0:
        raise ValueError(f"step {h} reaches past the origin from z={z}")
    y_minus = solution.evaluate(z - h)
    y_plus = solution.evaluate(z + h)
    y_mid = solution.evaluate(z)
    fd1 = (y_plus - y_minus) / (2.0 * h)
    fd2 = (y_plus - 2.0 * y_mid + y_minus) / (h * h)
    return max(abs(fd1 - d1.evaluate(z)), abs(fd2 - d2.evaluate(z)))


EXAMPLE1 = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, q=0.0)
EXAMPLE2 = dict(gamma=1.5, delta=-0.5, alpha=-0.5, beta=0.0, q=0.0)


def test_exact_polynomial_solution_has_tiny_residual():
    # y = z + sqrt(a) solves the a=4 equation at accessory value sqrt(a)/2
    params = make_parameters(a=4.0, **{**EXAMPLE1, "q": 1.0})
    y = MonomialSum.from_terms([(0.0, 2.0), (1.0, 1.0)])
    report = ode_residual(params, y)
    assert report.max_relative_residual <= 1e-12
    assert len(report.sample_points) == DEFAULT_SAMPLE_COUNT


def test_wrong_accessory_value_is_flagged():
    params = make_parameters(a=4.0, **{**EXAMPLE1, "q": 0.9})
    y = MonomialSum.from_terms([(0.0, 2.0), (1.0, 1.0)])
    assert ode_residual(params, y).max_relative_residual >= 1e-3


def test_constant_solution_scores_zero():
    # alpha*beta = 0 and q = 0 make every term vanish identically for y = 1
    params = make_parameters(a=2.0, **EXAMPLE2)
    report = ode_residual(params, MonomialSum.monomial(0.0))
    assert report.max_relative_residual == 0.0
    assert all(s == 0.0 for s in report.scales)


def test_zero_candidate_scores_zero():
    # The zero function solves every equation and so proves nothing: its
    # worst residual is inf, as in worst_residuals.
    params = make_parameters(a=2.0, **EXAMPLE1)
    report = ode_residual(params, MonomialSum.zero())
    assert report.max_relative_residual == math.inf


def test_empty_sample_set_scores_inf():
    # At a=1e-7 every default node lies within 1e-6 of a, so a wrong answer
    # has no sample left to fail on; it must not pass with a residual of 0.
    wrong = MonomialSum.from_terms([(0.0, 1.0), (1.0, 5.0)])
    report = ode_residual(make_parameters(a=1e-7, **{**EXAMPLE1, "q": 123.0}), wrong)
    assert report.sample_points == () and report.residuals == ()
    assert report.max_relative_residual == math.inf
    report = ode_residual(make_parameters(a=2.0, **EXAMPLE1), wrong, z_samples=[])
    assert report.max_relative_residual == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_scores_inf(bad):
    # A non-finite q or coefficient gives a non-finite sum and scale at every
    # sample, and the sample scores inf, never 0.
    params = make_parameters(a=4.0, **{**EXAMPLE1, "q": 1.0})
    coeffs = canonical_coefficients(params)
    y = MonomialSum.from_terms([(0.0, 2.0), (1.0, 1.0)])
    for c, candidate in (
        (coeffs.with_accessory(bad), y),
        (coeffs, MonomialSum.from_terms([(0.0, 2.0), (1.0, bad)])),
    ):
        report = residual_for_coefficients(c, candidate, default_sample_points(4.0))
        assert report.max_relative_residual == math.inf
        assert all(r == math.inf for r in report.residuals)
        assert not any(math.isfinite(s) for s in report.scales)
    report = residual_for_coefficients(coeffs, y, default_sample_points(4.0))
    assert all(math.isfinite(s) and s > 0.0 for s in report.scales)


def test_scale_sums_every_term():
    # y = z at a=4, q=1: f1 y'' = 0, f2 y' = a3 z^2 + a4 z + a5 and
    # f3 y = a6 z^2 + a7 z, so the scale is the sum of those five |terms|.
    params = make_parameters(a=4.0, **{**EXAMPLE1, "q": 1.0})
    c = canonical_coefficients(params)
    report = residual_for_coefficients(c, MonomialSum.monomial(1.0), [0.5])
    z = 0.5
    terms = [c.a3 * z**2, c.a4 * z, c.a5, c.a6 * z**2, c.a7 * z]
    assert report.scales[0] == pytest.approx(sum(map(abs, terms)), rel=1e-15)
    assert report.residuals[0] == pytest.approx(abs(sum(terms)) / sum(map(abs, terms)), rel=1e-14)


def test_chebyshev_points_properties():
    pts = chebyshev_points(0.0, 1.0, 25)
    assert len(pts) == 25
    assert pts == tuple(sorted(pts))
    assert all(0.0 < z < 1.0 for z in pts)
    mid_reflected = tuple(sorted(1.0 - z for z in pts))
    assert mid_reflected == pytest.approx(pts, abs=1e-15)


def test_check_sample_points_rejections():
    check_sample_points([0.3, 0.7], a=2.0)
    with pytest.raises(SamplePointAtSingularity):
        check_sample_points([0.0], a=2.0)
    with pytest.raises(SamplePointAtSingularity):
        check_sample_points([-0.5], a=2.0)
    with pytest.raises(SamplePointAtSingularity):
        check_sample_points([1.0 + SINGULARITY_RADIUS / 2], a=2.0)
    with pytest.raises(SamplePointAtSingularity):
        check_sample_points([2.0 - SINGULARITY_RADIUS / 2], a=2.0)


def test_residual_rejects_bad_sample_points():
    params = make_parameters(a=2.0, **EXAMPLE1)
    coeffs = canonical_coefficients(params)
    with pytest.raises(SamplePointAtSingularity):
        residual_for_coefficients(coeffs, MonomialSum.monomial(0.0), [1.0])


def test_default_sample_points_domains():
    pts = default_sample_points(4.0)
    assert len(pts) == DEFAULT_SAMPLE_COUNT
    assert all(0.0 < z < 1.0 for z in pts)
    pts = default_sample_points(0.25)
    assert all(0.0 < z < 0.25 for z in pts)
    # a straddled domain loses the node that lands on the singularity
    pts = default_sample_points(2.0, domain=(0.5, 1.5), count=25)
    assert len(pts) == 24
    assert all(abs(z - 1.0) >= SINGULARITY_RADIUS for z in pts)


def test_derivative_crosscheck_accuracy():
    rootz = MonomialSum.monomial(0.5)
    assert derivative_crosscheck(rootz, 1.0, [1e-4]) <= 1e-7
    linear = MonomialSum.from_terms([(0.0, 3.0), (1.0, 2.0)])
    assert derivative_crosscheck(linear, 1.0, [1e-4]) <= 1e-9


def test_derivative_crosscheck_is_second_order():
    y = MonomialSum.from_terms([(0.5, 1.0), (1.5, 0.6), (2.5, -0.3), (3.5, 0.1)])
    coarse = derivative_crosscheck(y, 0.3, [1e-2, 5e-2])
    fine = derivative_crosscheck(y, 0.3, [5e-3])
    assert coarse / fine == pytest.approx(4.0, rel=0.1)


def test_derivative_crosscheck_guards():
    y = MonomialSum.monomial(0.5)
    with pytest.raises(ValueError):
        derivative_crosscheck(y, 0.0, [1e-4])
    with pytest.raises(ValueError):
        derivative_crosscheck(y, 1e-6, [1e-4])


def test_residual_report_json_shape():
    params = make_parameters(a=4.0, **{**EXAMPLE1, "q": 1.0})
    y = MonomialSum.from_terms([(0.0, 2.0), (1.0, 1.0)])
    report = ode_residual(params, y)
    assert len(report.residuals) == len(report.sample_points) == len(report.scales)
    assert report.max_relative_residual == max(report.residuals)


def test_explicit_sample_points_are_used():
    params = make_parameters(a=4.0, **{**EXAMPLE1, "q": 1.0})
    y = MonomialSum.from_terms([(0.0, 2.0), (1.0, 1.0)])
    report = ode_residual(params, y, z_samples=[0.25, 0.5])
    assert report.sample_points == (0.25, 0.5)
