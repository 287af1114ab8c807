import math
import re

import numpy as np
import pytest

from heun_su11.errors import ValidationError
from heun_su11.heun_core import (
    DEFAULT_SAMPLE_COUNT,
    SINGULARITY_RADIUS,
    canonical_coefficients,
    chebyshev_points,
    check_sample_points,
    default_sample_points,
    make_parameters,
    solution_samples,
)
from heun_su11.monomials import MonomialSum
from heun_su11.representations import RepresentationClass, classify
from heun_su11.spectrum import solve_spectrum
from heun_su11.su11_algebra import decompose, rebuild_coefficients
from heun_su11.verifier import (
    ResidualReport,
    ode_residual,
    residual_for_coefficients,
)
from heun_su11.series_engine import ASCENDING, DESCENDING, convergence_domain
from oracle import monomial, terms


AT_A_SINGULARITY = r"^sample z=\S+ is off the positive axis or within 1e-06 of a singular point$"
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
    report = ode_residual(params, monomial(0.0))
    assert report.max_relative_residual == 0.0
    assert all(s == 0.0 for s in report.scales)


def test_zero_candidate_scores_zero():
    # The zero function solves every equation and so proves nothing: its
    # worst residual is inf.
    params = make_parameters(a=2.0, **EXAMPLE1)
    for zero in (MonomialSum.from_terms([]), MonomialSum.from_terms([(0.0, 0.0), (1.0, 0j)])):
        assert ode_residual(params, zero).max_relative_residual == math.inf


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
    report = residual_for_coefficients(c, monomial(1.0), [0.5])
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
    with pytest.raises(ValidationError, match=AT_A_SINGULARITY):
        check_sample_points([0.0], a=2.0)
    with pytest.raises(ValidationError, match=AT_A_SINGULARITY):
        check_sample_points([-0.5], a=2.0)
    with pytest.raises(ValidationError, match=AT_A_SINGULARITY):
        check_sample_points([1.0 + SINGULARITY_RADIUS / 2], a=2.0)
    with pytest.raises(ValidationError, match=AT_A_SINGULARITY):
        check_sample_points([2.0 - SINGULARITY_RADIUS / 2], a=2.0)


def test_residual_rejects_bad_sample_points():
    params = make_parameters(a=2.0, **EXAMPLE1)
    coeffs = canonical_coefficients(params)
    with pytest.raises(ValidationError, match=AT_A_SINGULARITY):
        residual_for_coefficients(coeffs, monomial(0.0), [1.0])


def accepted(z, a):
    try:
        check_sample_points([z], a)
    except ValidationError as exc:
        assert re.search(AT_A_SINGULARITY, str(exc))
        return False
    return True


@pytest.mark.parametrize("a", [2.0, 0.5, 2e-6, 1.0 + 3e-6])
def test_check_sample_points_rejects_exactly_the_clipped_nodes(a):
    # One clearance rule: check_sample_points refuses a node exactly when
    # default_sample_points drops it.  Nodes packed around 0, 1 and a fall
    # on both sides of it; the nodes of a domain with a NaN end are NaN.
    for domain in [(-3e-6, 3e-6), (1.0 - 3e-6, 1.0 + 3e-6), (a - 3e-6, a + 3e-6), (0.0, math.nan)]:
        nodes = chebyshev_points(*domain, 101)
        kept = default_sample_points(a, domain, 101)
        assert kept == tuple(z for z in nodes if accepted(z, a))
        assert 0 < len(kept) < len(nodes) or math.isnan(domain[1]) and not kept


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


def test_explicit_zero_coefficients_are_zero_terms():
    """The report scores a sum's coefficients as given: explicit 0.0, -0.0
    and 0j entries are zero terms, which leave the scales as they are, bit
    for bit.  Real zeros leave the residuals so too; a 0j makes the column
    complex, summed in complex arithmetic, which moves a residual by no more
    than its rounding."""
    dec = decompose(make_parameters(0.5, -0.5, -3.5, -3.0, 2.0, 0.0))
    finite = [r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL]
    coeffs = rebuild_coefficients(dec)
    samples = default_sample_points(2.0)
    for pair in solve_spectrum(dec, finite[0]).pairs:
        y = pair.eigenfunction.as_monomial_sum()
        c = coeffs.with_accessory(pair.q)
        given = terms(y)
        p0 = given[0][0]
        padded = MonomialSum.from_terms(
            [(p0 + 0.5, 0j), *given[:1], (p0 + 1.5, 0.0), *given[1:], (p0 + len(given), 0j)])
        real_zeros = MonomialSum.from_terms([*given, (p0 + 1.5, 0.0), (p0 - 1.0, -0.0)])
        want = residual_for_coefficients(c, y, samples)
        assert want.max_relative_residual < 1e-14
        for candidate, rounded in ((padded, True), (real_zeros, False)):
            report = residual_for_coefficients(c, candidate, samples)
            assert np.array(report.scales).tobytes() == np.array(want.scales).tobytes()
            atol = 2.0**-50 if rounded else 0.0
            assert np.allclose(report.residuals, want.residuals, rtol=0.0, atol=atol)
        assert np.array(padded.coeffs).dtype == complex
        assert np.array(real_zeros.coeffs).dtype == float


OLD_SAMPLE_DOMAINS = {
    # The three expressions that chose the sample domains before solution_samples.
    "eigenfunction": lambda a, lo, hi: default_sample_points(a, domain=(0.0, min(1.0, abs(a)))),
    "ascending": lambda a, lo, hi: default_sample_points(a, domain=(0.0, 0.5 * hi)),
    "descending": lambda a, lo, hi: default_sample_points(a, domain=(2.0 * lo, 4.0 * lo)),
}


@pytest.mark.parametrize("kind", sorted(OLD_SAMPLE_DOMAINS))
@pytest.mark.parametrize("a", [sign * m for m in (1e-7, 1e-3, 0.3, 2.0, 3.0, 1e3, 1e7)
                               for sign in (1, -1)])
def test_solution_samples_equal_the_old_domains_bit_for_bit(kind, a):
    domain = ((0.0, math.inf) if kind == "eigenfunction" else
              convergence_domain(a, ASCENDING if kind == "ascending" else DESCENDING))
    samples = solution_samples(a, domain)
    old = OLD_SAMPLE_DOMAINS[kind](a, *domain)
    assert np.array(samples).tobytes() == np.array(old).tobytes()
    assert bool(samples.cause) == (not samples)


def test_descending_samples_past_the_largest_float_name_their_cause():
    # The nodes' midpoint sums 2R + 4R = 6R, which overflows from R of about
    # 3e307 on (below that R every node is finite); 4R does from about
    # 4.5e307 on, 2R from about 9e307 on.
    for r in (3e307, 4e307, 5e307, 1e308):
        samples = solution_samples(r, convergence_domain(r, DESCENDING))
        assert samples == ()
        assert samples.cause == (
            f"the sample domain (2R, 4R) lies past the largest float at R={r:g}")
    samples = solution_samples(2.99e307, convergence_domain(2.99e307, DESCENDING))
    assert len(samples) == 25 and all(map(math.isfinite, samples))
