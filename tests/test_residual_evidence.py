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
from heun_su11.representations import RepresentationClass, classify, split_even_odd
from heun_su11.series_engine import series_solution
from heun_su11.spectrum import build_matrix, solve_spectrum
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


CORRECT = [(a, n) for a in (0.25, 1.01, 2.0, 4.0) for n in (8, 16, 32, 64, 128)]


@pytest.mark.parametrize("a,n", CORRECT)
def test_correct_pairs_score_near_epsilon(a, n):
    _, pairs = ladder(n, a)
    assert len(pairs) == n
    assert max(pair.residual for pair in pairs) <= 1e-12


@pytest.mark.parametrize("n", [32, 64, 128])
def test_correct_complex_pairs_score_near_epsilon(n):
    """a=-3: the dense route, with complex pairs; the worst pair over delta in
    [-0.55, -0.45] and n <= 128 scores 1.6e-11."""
    _, pairs = ladder(n, -3.0)
    assert len(pairs) == n
    assert any(isinstance(pair.q, complex) for pair in pairs)
    assert max(pair.residual for pair in pairs) <= 1e-10


def reference_eigenvector(matrix, q_float, width, k):
    """The eigenvector of the float matrix at the eigenvalue within width of
    q_float, in 50-digit arithmetic: q by bisection on the characteristic
    polynomial, then one inverse-iteration solve (T - q) x = e_k by Gaussian
    elimination.  k is the peak of the float eigenvector.  A start vector of
    all ones would leave the other eigenvectors in x at about 1e-50 of the
    peak, which swamps the smallest components (1e-57 at a=4, n=128); from
    e_k the result matched a 90-digit run."""
    with mpmath.workdps(50):
        diag = [mpmath.mpf(d) for d in matrix.diagonal]
        lower = [mpmath.mpf(x) for x in matrix.lower]
        upper = [mpmath.mpf(x) for x in matrix.upper]

        def charpoly(x):
            prev2, prev1 = 1, diag[0] - x
            for i in range(1, len(diag)):
                prev2, prev1 = prev1, (diag[i] - x) * prev1 - lower[i - 1] * upper[i - 1] * prev2
            return prev1

        lo, hi = mpmath.mpf(q_float - width), mpmath.mpf(q_float + width)
        f_lo = charpoly(lo)
        assert (f_lo < 0) != (charpoly(hi) < 0)
        while hi - lo > mpmath.mpf(10) ** -48 * max(1, abs(lo)):
            mid = (lo + hi) / 2
            f_mid = charpoly(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        q = (lo + hi) / 2
        pivots = [d - q for d in diag]
        rhs = [mpmath.mpf(int(i == k)) for i in range(len(diag))]
        for i in range(1, len(diag)):
            factor = lower[i - 1] / pivots[i - 1]
            pivots[i] -= factor * upper[i - 1]
            rhs[i] -= factor * rhs[i - 1]
        x = [rhs[-1] / pivots[-1]]
        for i in range(len(diag) - 2, -1, -1):
            x.insert(0, (rhs[i] - upper[i] * x[0]) / pivots[i])
        return x


def test_eigenvector_components_match_high_precision_reference():
    """Every component of every even eigenvector at a=4, n=128, relative to
    its own size, against the 50-digit reference."""
    n, a = 128, 4.0
    mu = -(n - 1) / 2.0
    dec = decompose(make_parameters(0.5, -0.5, mu, mu + 0.5, a, 0.0))
    rep = next(r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
    matrix = build_matrix(dec, split_even_odd(rep).even)
    pairs = [pair for pair in solve_spectrum(dec, rep).pairs if pair.parity == "even"]
    assert len(pairs) == matrix.dimension
    qs = [pair.q for pair in pairs]
    width = 1e-10 * max(1.0, *map(abs, qs))
    assert min(b - a for a, b in zip(qs, qs[1:])) > 2 * width
    for pair in pairs:
        vec = pair.eigenfunction.coefficients
        k = max(range(len(vec)), key=lambda i: abs(vec[i]))
        x = reference_eigenvector(matrix, pair.q, width, k)
        with mpmath.workdps(50):
            ref = [xi * vec[k] / x[k] for xi in x]
            worst = max(abs((v - r) / r) for v, r in zip(vec, ref))
        assert worst <= 1e-9


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
