"""Evidence that the componentwise residual scale is sound and sensitive.

The residual divides |f1 y'' + f2 y' + f3 y| by the sum of |term| over every
individual term.  These tests fix what that buys on the finite ladders
gamma=1/2, delta=-1/2, alpha=mu, beta=mu+1/2, mu=-(n-1)/2, with the verify
threshold of 1e-8 unchanged:

- correct eigenpairs score near machine epsilon at every size the solver
  accepts;
- wrong answers (q or one coefficient moved) still score above the
  threshold;
- the plain float sum of the terms agrees with a 50-digit evaluation of the
  same float inputs to within 8 * (number of monomials) * 2^-53 of the
  scale, so no compensated summation is needed.
"""

import mpmath
import pytest

from heun_su11.heun_core import canonical_coefficients, make_parameters
from heun_su11.monomials import MonomialSum
from heun_su11.representations import RepresentationClass, classify
from heun_su11.series_engine import series_solution
from heun_su11.spectrum import solve_spectrum
from heun_su11.su11_algebra import decompose, rebuild_coefficients
from heun_su11.verifier import default_sample_points, residual_for_coefficients

THRESHOLD = 1e-8
UNIT_ROUNDOFF = 2.0**-53


def ladder(n, a):
    """ODE coefficients (q-free) and the eigenpairs of the n-state ladder."""
    mu = -(n - 1) / 2.0
    dec = decompose(make_parameters(0.5, -0.5, mu, mu + 0.5, a, 0.0))
    rep = next(r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
    return rebuild_coefficients(dec), solve_spectrum(dec, rep).pairs


CORRECT = [(a, n) for a in (0.25, 1.01, 2.0) for n in (8, 16, 32, 64, 128)] + [
    (4.0, n) for n in (8, 16, 32, 64)
]


@pytest.mark.parametrize("a,n", CORRECT)
def test_correct_pairs_score_near_epsilon(a, n):
    _, pairs = ladder(n, a)
    assert len(pairs) == n
    assert max(pair.residual for pair in pairs) <= 1e-12


# A 1e-6 move of q at n=32, a=4 scores only 8.4e-9, so the larger ladders
# are probed with 1e-5.
MUTATIONS = [(a, n, 1e-6) for a in (2.0, 4.0, -3.0) for n in range(3, 17)] + [
    (a, n, 1e-5) for a in (2.0, 4.0) for n in (32, 64)
]


@pytest.mark.parametrize("a,n,rel", MUTATIONS)
def test_mutated_pairs_are_caught(a, n, rel):
    coeffs, pairs = ladder(n, a)
    samples = default_sample_points(a)
    multi_term = [pair for pair in pairs if len(pair.eigenfunction.coefficients) > 1]
    assert multi_term
    for pair in multi_term:
        assert pair.residual <= THRESHOLD
        y = pair.eigenfunction.as_monomial_sum()
        moved_q = pair.q + rel * max(1.0, abs(pair.q))
        report = residual_for_coefficients(coeffs.with_accessory(moved_q), y, samples)
        assert report.max_relative_residual > THRESHOLD
        k = max(y.coeffs, key=lambda j: abs(y.coeffs[j]))
        scaled = MonomialSum(y.base, {**y.coeffs, k: y.coeffs[k] * (1.0 + rel)})
        report = residual_for_coefficients(coeffs.with_accessory(pair.q), scaled, samples)
        assert report.max_relative_residual > THRESHOLD


def exact_numerator(coeffs, y, z):
    """|f1 y'' + f2 y' + f3 y| at z in 50-digit arithmetic, from the same
    float inputs the verifier sees."""
    with mpmath.workdps(50):
        a = [mpmath.mpf(v) for v in coeffs.as_tuple()]
        z = mpmath.mpf(z)
        total = mpmath.mpf(0)
        for p, c in y.terms():
            p, c = mpmath.mpf(p), mpmath.mpmathify(c)
            up = a[0] * p * (p - 1) + a[3] * p + a[6]
            same = a[1] * p * (p - 1) + a[4] * p + a[7]
            down = a[2] * p * (p - 1) + a[5] * p
            total += c * z**p * (up * z + same + down / z)
        return abs(total)


def assert_plain_sum_is_sound(coeffs, y, samples):
    report = residual_for_coefficients(coeffs, y, samples)
    bound = 8 * len(y.coeffs) * UNIT_ROUNDOFF
    for z, residual, scale in zip(samples, report.residuals, report.scales):
        with mpmath.workdps(50):
            error = abs(mpmath.mpf(residual) * scale - exact_numerator(coeffs, y, z))
        assert error <= bound * scale


def test_plain_sum_matches_high_precision_on_ladder():
    coeffs, pairs = ladder(32, 2.0)
    samples = default_sample_points(2.0)
    for pair in pairs:
        assert_plain_sum_is_sound(
            coeffs.with_accessory(pair.q), pair.eigenfunction.as_monomial_sum(), samples
        )


def test_plain_sum_matches_high_precision_on_long_series():
    params = make_parameters(0.5, -0.5, -1.0, -0.5, 2.0, 0.3)
    dec = decompose(params)
    ladder_rep = next(
        r for r in classify(dec) if r.rep_class is RepresentationClass.POSITIVE_DISCRETE
    )
    sol = series_solution(dec, ladder_rep, "even", 0.3, 1000)
    # The sample domain verify uses for an ascending series.
    samples = default_sample_points(2.0, domain=(0.0, 0.5 * sol.domain[1]))
    assert_plain_sum_is_sound(canonical_coefficients(params), sol.as_monomial_sum(), samples)
