"""Independent oracles used by tests: eigenvalues of finite-ladder
matrices, and the term-by-term value of a sum of powers of z.

The Sturm count of a tridiagonal T at x is the number of eigenvalues below
x: the number of negative pivots of the LDL^T factorization of T - x, whose
recurrence d_i = (T_ii - x) - T_(i,i-1) T_(i-1,i) / d_(i-1) needs only the
diagonal and the off-diagonal products (Demmel, Applied Numerical Linear
Algebra, sec. 5.3.4).  It runs in 50-digit mpmath arithmetic on the float
entries, with no library eigensolver.  By Sylvester's law of inertia the
count holds when T is similar to a symmetric matrix, that is when no
off-diagonal product is negative; any other matrix is refused with
ValueError.

check_eigenvalues certifies a solver's eigenvalues with two counts each:
the k-th sorted value q_k must have exactly k eigenvalues below q_k - tol
and k + 1 below q_k + tol.  That puts an eigenvalue within tol of every
q_k, and fails on a missed or doubled eigenvalue as well.

m1_image and m3_image are metamorphic maps of the Heun transformation
group (Maier, "The 192 solutions of the Heun equation", Math. Comp. 76
(2007) 811-843).  M1, z = a w, keeps the elementary pair {0, inf}, so it
maps a factorizable operator to one with the same ladder and parities, and
each accessory value q to q/a.  M3, z = a/w at gamma = 1/2 and beta = alpha
+ 1/2, swaps 0 and inf: it keeps a and the ladder length n, maps
sub-grid index k to n - 1 - k, so the parities swap at even n and stay at
odd n, and shifts each q by alpha(beta - epsilon)(1 - a), with no rounded
1/a.

monomial and terms build and read a MonomialSum, which keeps no
arithmetic of its own.

sum_by_terms is the reference value of sum c z^p: math.fsum of every
product c * z**p, zeros and underflowed powers included, with a complex
sum summed as its real and imaginary parts apart.  evaluate_by_terms
applies it to a SeriesSolution; the value of the package's one evaluator,
evaluate_series, must equal it bit for bit.

exact_magnitude is the exact sum of the magnitudes of some floats, as a
Fraction: the soundness oracle of evaluate_series' cut, whose bound D on
the dropped live terms must be at least the exact sum of their computed
magnitudes |b_m * z**p|, and of the residual's prefix, whose bound D must
be at least that of the dropped terms' shares of the scale, scale_terms.
"""

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Tuple

import mpmath

from heun_su11.heun_core import HeunParameters, make_parameters
from heun_su11.monomials import MonomialSum
from heun_su11.spectrum import TridiagonalMatrix

DIGITS = 50


def sturm_counter(matrix: TridiagonalMatrix) -> Callable[[object], int]:
    """count(x): the number of eigenvalues of matrix below x (a float or an
    mpf)."""
    with mpmath.workdps(DIGITS):
        diagonal = [mpmath.mpf(d) for d in matrix.diagonal]
        # A product of two doubles is exact at 50 digits; the leading 0
        # makes the first pivot d_0 - x.
        products = [mpmath.mpf(0)] + [
            mpmath.mpf(lo) * mpmath.mpf(up) for lo, up in zip(matrix.lower, matrix.upper)
        ]
    if any(b < 0 for b in products):
        raise ValueError("a negative off-diagonal product: the eigenvalues need not be real")

    def count(x) -> int:
        with mpmath.workdps(DIGITS):
            x = mpmath.mpf(x)
            negatives, pivot = 0, mpmath.mpf(1)
            for d, b in zip(diagonal, products):
                pivot = d - x - b / pivot
                if pivot == 0:
                    # x is an eigenvalue of a leading block; a negligible
                    # shift of x down keeps counting eigenvalues below x.
                    pivot = mpmath.eps
                negatives += pivot < 0
            return negatives

    return count


def check_eigenvalues(matrix: TridiagonalMatrix, qs: Sequence[float], tol: float = 1e-10) -> None:
    """Assert that qs are the eigenvalues of matrix, each within tol."""
    count = sturm_counter(matrix)
    qs = sorted(qs)
    n = len(matrix.diagonal)
    assert len(qs) == n, f"{len(qs)} values for dimension {n}"
    with mpmath.workdps(DIGITS):
        for k, q in enumerate(qs):
            below, above = count(mpmath.mpf(q) - tol), count(mpmath.mpf(q) + tol)
            assert (below, above) == (k, k + 1), (
                f"q_{k} = {q!r}: {below} eigenvalues below q - {tol:g} and {above} "
                f"below q + {tol:g}, expected {k} and {k + 1}"
            )


def m1_image(params: HeunParameters) -> HeunParameters:
    """The parameters of the equation in w = z/a: (a, delta, epsilon, q) ->
    (1/a, epsilon, delta, q/a), with gamma, alpha and beta kept."""
    return make_parameters(params.gamma, params.epsilon, params.alpha, params.beta,
                           1.0 / params.a, params.q / params.a, epsilon=params.delta)


def m3_image(params: HeunParameters) -> HeunParameters:
    """The parameters of the equation in w = a/z, with y = w^alpha u, at
    gamma = 1/2 and beta = alpha + 1/2: (delta, epsilon, q) -> (epsilon,
    delta, q + alpha(beta - epsilon)(1 - a)), with gamma, alpha, beta and a
    kept."""
    shift = params.alpha * (params.beta - params.epsilon) * (1.0 - params.a)
    return make_parameters(params.gamma, params.epsilon, params.alpha, params.beta, params.a,
                           params.q + shift, epsilon=params.delta)


def monomial(exponent: float, coefficient: complex = 1.0) -> MonomialSum:
    """coefficient * z**exponent."""
    return MonomialSum((float(exponent),), (coefficient,))


def terms(y: MonomialSum) -> Tuple[Tuple[float, complex], ...]:
    """(exponent, coefficient) pairs of y, in y's order, zeros included."""
    return tuple(zip(map(float, y.exponents), y.coeffs))


def sum_by_terms(terms: Iterable[Tuple[float, complex]], z: float):
    """The value at z of the sum over the (exponent p, coefficient c) pairs
    of c * z**p, term by term."""
    products = [c * z**p for p, c in terms]
    if any(isinstance(t, complex) for t in products):
        return complex(math.fsum(t.real for t in products), math.fsum(t.imag for t in products))
    return math.fsum(products)


def series_terms(sol) -> list:
    """The (exponent, coefficient) pairs of a SeriesSolution, with each
    exponent p0 + step*m computed here, not read from the series' cache."""
    return [(sol.p0 + sol.step * m, b) for m, b in enumerate(sol.coefficients)]


def evaluate_by_terms(sol, z: float):
    """Term-by-term reference for the value of evaluate_series."""
    return sum_by_terms(series_terms(sol), z)


def exact_magnitude(values: Iterable[float]) -> Fraction:
    """The exact sum of |x| over the finite floats x, each a multiple of
    2^-1074."""
    scale = 1 << 1074
    return Fraction(sum(abs(n) * (scale // d) for n, d in map(float.as_integer_ratio, values)),
                    scale)


def scale_terms(coeffs, terms: Iterable[Tuple[float, float]], z: float):
    """Each (exponent p, coefficient c) term's share of the residual's scale
    at z, computed term by term: |c| times the sums of |a_i| |factor_i(p)|
    that land on z^(p+1), z^p and z^(p-1), weighted by z, 1 and 1/z, times
    |z**p|."""
    a0, a1, a2, a3, a4, a5, a6, a7 = map(abs, coeffs)
    for p, c in terms:
        pp, ap, c = abs(p * (p - 1.0)), abs(p), abs(c)
        up = (a0 * pp + a3 * ap + a6) * c
        same = (a1 * pp + a4 * ap + a7) * c
        down = (a2 * pp + a5 * ap) * c
        yield (z * up + same + down / z) * abs(z**p)
