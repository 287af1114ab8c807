"""Independent oracles used by tests: eigenvalues of finite-ladder
matrices, and the term-by-term value of a sum of powers of z.

The eigenvalue oracle is exact, on Python integers.  Every float is a
dyadic rational, so integer_form writes a tridiagonal T's entries and
points x as integers at one binary scale, and continuant gives the leading
minors of T - x, D_i = (T_ii - x) D_(i-1) - T_(i,i-1) T_(i-1,i) D_(i-2).
The Sturm count at x, the number of eigenvalues below x, is the number of
sign changes along them, a zero minor keeping the sign before it (Demmel,
Applied Numerical Linear Algebra, sec. 5.3.4).  By Sylvester's law of
inertia it holds when no off-diagonal product is negative, T then being
similar to a symmetric matrix; any other matrix is refused with ValueError.

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

coefficient_residual is the reference for verify's exact score of an
eigenpair: (L - q) y as a finite sum of powers, kept by power_sums in a
dict by each power's Fraction exponent, with the power's sum of term
magnitudes beside it; every factor and value is written as an integer by
dyadic_integers.  A complex number's modulus is bracketed by math.isqrt to
2^-200, so the reference is a pair of Fractions around max_k |r_k| / s_k,
one Fraction when every number is real.  check_exact_scores holds verify's
printed scores of a spectrum document against it.  series_reference is the
exact value of verify's rule for a series, from the same sums, with each
truncation share summed at its sample on integers.

exact_magnitude is the exact sum of the magnitudes of some floats, as a
Fraction: the soundness oracle of evaluate_series' cut, whose bound D on
the dropped live terms must be at least the exact sum of their computed
magnitudes |b_m * z**p|, and of the residual's prefix, whose bound D must
be at least that of the dropped terms' shares of the scale, scale_terms.
"""

import math
import operator
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, List, Sequence, Tuple

from heun_su11.heun_core import CanonicalCoefficients, HeunParameters, make_parameters
from heun_su11.jsonio import as_number
from heun_su11.monomials import MonomialSum
from heun_su11.spectrum import TridiagonalMatrix


def dyadic_integers(values: Iterable) -> Tuple[List[int], int]:
    """(values times s, s), s the largest denominator of the values (floats or
    Fractions), which must be a multiple of every other: for floats and
    dyadic Fractions, the least power of two making each value an integer."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((d for _, d in ratios), default=1)
    if any(scale % d for _, d in ratios):
        raise ValueError(f"the denominators of {values!r} do not all divide {scale}")
    return [n * (scale // d) for n, d in ratios], scale


def integer_form(matrix: TridiagonalMatrix, points: Sequence = ()):
    """(diagonal, lower, upper, points) as integers at one binary scale."""
    n = len(matrix.diagonal)
    ints, _ = dyadic_integers([*matrix.diagonal, *matrix.lower, *matrix.upper, *points])
    lower, upper = ints[n:2 * n - 1], ints[2 * n - 1:3 * n - 2]
    if any(lo * up < 0 for lo, up in zip(lower, upper)):
        raise ValueError("a negative off-diagonal product: the eigenvalues need not be real")
    return ints[:n], lower, upper, ints[3 * n - 2:]


def continuant(diagonal, lower, upper, x) -> List[int]:
    """The leading minors D_0..D_n of T - x, for integer T and x."""
    minors = [0, 1]
    for d, lo, up in zip(diagonal, [0, *lower], [0, *upper]):
        minors.append((d - x) * minors[-1] - lo * up * minors[-2])
    return minors[1:]


def sign_changes(minors: List[int]) -> int:
    signs = [m > 0 for m in minors if m]
    return sum(map(operator.ne, signs, signs[1:]))


def sturm_counts(matrix: TridiagonalMatrix, points: Sequence) -> List[int]:
    """The number of eigenvalues of matrix below each point, a float or a
    dyadic Fraction.  A zero product splits T into blocks whose counts add."""
    diagonal, lower, upper, points = integer_form(matrix, points)
    cuts = [0, *(i + 1 for i, b in enumerate(map(operator.mul, lower, upper)) if not b),
            len(diagonal)]
    return [sum(sign_changes(continuant(diagonal[i:j], lower[i:j - 1], upper[i:j - 1], x))
                for i, j in zip(cuts, cuts[1:])) for x in points]


def sturm_counter(matrix: TridiagonalMatrix) -> Callable[[object], int]:
    """count(x): the number of eigenvalues of matrix below x."""
    integer_form(matrix)  # refuses a matrix the count does not hold for
    return lambda x: sturm_counts(matrix, (x,))[0]


def check_eigenvalues(matrix: TridiagonalMatrix, qs: Sequence[float], tol: float = 1e-10) -> None:
    """Assert that qs are the eigenvalues of matrix, each within tol."""
    qs = sorted(qs)
    counts = sturm_counts(matrix, [Fraction(q) + s * Fraction(tol) for q in qs for s in (-1, 1)])
    n = len(matrix.diagonal)
    assert len(qs) == n, f"{len(qs)} values for dimension {n}"
    for k, q in enumerate(qs):
        below, above = counts[2 * k:2 * k + 2]
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
    """The exact sum of |x| over the finite floats x."""
    ints, scale = dyadic_integers(values)
    return Fraction(sum(map(abs, ints)), scale)


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


def modulus_bracket(re, im) -> Tuple[Fraction, Fraction]:
    """lo <= |re + i im| <= hi for rationals re and im, equal when im is 0,
    else 2^-200 apart relative to the modulus."""
    if not im:
        return abs(re), abs(re)
    n, d = Fraction(re * re + im * im).as_integer_ratio()
    root = math.isqrt(n * d << 400)
    return Fraction(root, d << 200), Fraction(root + 1, d << 200)


def power_sums(coeffs, exponents, values, q) -> dict:
    """k -> [re r_k, im r_k, lo, hi] for the candidate sum of values[m]
    z^exponents[m] with a7 = -q, all integers at one scale: r_k sums every
    term a_i f_i(p) c (and -q c) that lands on z^k, and lo <= s_k <= hi
    bracket the sum of their magnitudes, equal when q and the values are
    real.  The terms' factors and -q share one scale and the values
    another, which every sum carries, so the sums run on integers."""
    a0, a1, a2, a3, a4, a5, a6 = map(Fraction, coeffs[:7])
    q = complex(q)
    factors = []  # per exponent: the signed sums and the magnitude sums on z^(p+1), z^p, z^(p-1)
    for p in map(Fraction, exponents):
        pp = p * (p - 1)
        by_power = ((a0 * pp, a3 * p, a6), (a1 * pp, a4 * p), (a2 * pp, a5 * p))
        factors += [*map(sum, by_power), *(sum(map(abs, terms)) for terms in by_power)]
    factors, _ = dyadic_integers([*factors, -q.real, -q.imag])
    *factors, qr, qi = factors
    parts, _ = dyadic_integers([x for c in map(complex, values) for x in (c.real, c.imag)])
    q_lo, q_hi = modulus_bracket(qr, qi)
    sums = defaultdict(lambda: [0] * 4)  # k -> [re, im, s_lo, s_hi]
    for m, p in enumerate(map(Fraction, exponents)):
        cr, ci = parts[2 * m:2 * m + 2]
        c_lo, c_hi = modulus_bracket(cr, ci)
        signed, sizes = factors[6 * m:6 * m + 3], factors[6 * m + 3:6 * m + 6]
        for k, u, size in zip((p + 1, p, p - 1), signed, sizes):
            total = sums[k]
            total[0] += u * cr
            total[1] += u * ci
            total[2] += size * c_lo
            total[3] += size * c_hi
        total = sums[p]  # the term a7 c = -q c
        total[0] += qr * cr - qi * ci
        total[1] += qr * ci + qi * cr
        total[2] += q_lo * c_lo
        total[3] += q_hi * c_hi
    return sums


def coefficient_residual(coeffs, exponents, values, q) -> Tuple[Fraction, Fraction]:
    """Fractions lo <= max_k |r_k| / s_k <= hi for the candidate sum of
    values[m] z^exponents[m] with a7 = -q (power_sums); a power whose terms
    all vanish counts 0.  lo == hi when q and the values are real."""
    lo = hi = Fraction(0)
    for re, im, s_lo, s_hi in power_sums(coeffs, exponents, values, q).values():
        if s_hi:
            r_lo, r_hi = modulus_bracket(re, im)
            lo, hi = max(lo, Fraction(r_lo) / s_hi), max(hi, Fraction(r_hi) / s_lo)
    return lo, hi


def _at_sample(coefficients: Sequence[int], z: float, step: int) -> int:
    """sum_i coefficients[i] w^i at w = z^step, times the positive integer
    that clears its denominator, which depends on z, step and the length
    alone: Horner's rule on integers, every power of two a shift."""
    n, d = Fraction(z).as_integer_ratio()
    e, top = d.bit_length() - 1, len(coefficients) - 1
    # w = n / 2^e ascending, 2^e / n descending; both sums are multiplied by n.
    order = reversed(coefficients) if step > 0 else coefficients
    acc = 0
    for i, c in enumerate(order):
        acc = acc * n + (c << e * i)
    return acc


def series_reference(coeffs, series, samples: Sequence[float]) -> Fraction:
    """The exact value of the rule verify scores a real series record by:
    the largest |r_k| / s_k over its recurrence rows, the powers z^(p0 +
    step j) for j = -1..K-1, plus the largest share |r_K z^(p0 + step K) +
    r_(K+1) z^(p0 + step (K+1))| / sum_k s_k z^k over the samples, with the
    exponents p0 + step m exact and every power of z exact."""
    p0, step, b = Fraction(series.p0), series.step, series.coefficients
    n = len(b)
    sums = power_sums(coeffs, [p0 + step * m for m in range(n)], b, series.q)
    rows = [sums.get(p0 + step * j, (0, 0, 0, 0)) for j in range(-1, n + 1)]
    recurrence = max((Fraction(abs(re), s) for re, _, s, _ in rows[:-2] if s), default=0)
    # Row j weighs w^(j + 1), w = z^step, against z^(p0 - step), which cancels.
    truncation = [0] * n + [row[0] for row in rows[-2:]]
    scale = [row[2] for row in rows]
    share = max(Fraction(abs(_at_sample(truncation, z, step)), _at_sample(scale, z, step))
                for z in samples)
    return recurrence + share


def check_exact_scores(doc: dict, scores: Sequence[float]) -> None:
    """Assert that each score of a spectrum document's eigenpairs is at least
    the pair's exact residual and at most 2^-50 relative above it."""
    coeffs = CanonicalCoefficients.from_json_dict(doc["ode_coefficients"])
    assert len(scores) == len(doc["eigenpairs"])
    for score, pair in zip(scores, doc["eigenpairs"]):
        exponents, values = ([as_number(t[key]) for t in pair["coefficients"]]
                             for key in ("exponent", "value"))
        lo, hi = coefficient_residual(coeffs, exponents, values, as_number(pair["q"]))
        assert hi <= Fraction(score) <= lo * (1 + Fraction(1, 2**50)), (score, float(lo))
