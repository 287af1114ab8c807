"""Heun equation parameters and their canonical polynomial form.

The equation under study is

    y'' + (gamma/z + delta/(z-1) + epsilon/(z-a)) y'
        + (alpha*beta*z - q) / (z (z-1) (z-a)) y = 0,

with regular singular points at 0, 1, a, infinity and the exponent balance
gamma + delta + epsilon = alpha + beta + 1.  Multiplying through by
z(z-1)(z-a) gives the polynomial form

    f1 y'' + f2 y' + f3 y,
    f1 = a0 z^3 + a1 z^2 + a2 z,
    f2 = a3 z^2 + a4 z + a5,
    f3 = a6 z + a7,

which is what every other module consumes.  This module validates parameter
sets, produces the a0..a7 coefficients and states the polynomial form's
action on one monomial z^p, which lands on z^(p+1), z^p and z^(p-1).  It
also holds what scoring a printed solution needs without numpy: the series
record as a document states it, the convergence domain, the one sample
rule, and the exact scores.

A finite candidate y = sum c_m z^(p_m) is scored exactly.  (L - q) y is
then a finite sum sum_k r_k z^k, and every number in it is a float, so a
dyadic rational: exact_residuals sums on Python integers at one binary
scale every term a_i f_i(p_m) c_m that lands on z^k, which gives r_k, and
the magnitudes of the same terms, taken before like powers merge, which
give s_k.  max_k |r_k| / s_k is the componentwise backward error of the
three-term system (Oettli and Prager, Numer. Math. 6 (1964) 405-409;
Higham, Accuracy and Stability of Numerical Algorithms, ch. 7): zero for an
exact solution, with no sample point and no power of z.  It is printed
rounded up once, so never below the exact ratio.  A complex q or c (a < 0)
is two integers, its real and imaginary parts; a modulus is irrational, so
each |c| and |q| in s_k is rounded down and each |r_k| up, by math.isqrt at
2^-64 of its integer size, and the ratio stays above the exact one.

A series y = sum_m b_m z^(p0 + step m), m = 0..K, is scored by
series_residual in two parts.  Its rows are the powers z^(p0 + step j),
j = -1..K+1, and row j holds at most b_(j-1), b_j and b_(j+1).  The
recurrence rows, j <= K - 1, are scored exactly as above, each at the
binary scale of its own three coefficients, since a long series spans many
binades.  The two truncation rows, j = K and K + 1, lack the terms of
b_(K+1), b_(K+2), ..., which no finite series holds; until a bound on
that tail exists they are scored at the samples, by their share
|sum_T r_k z^k| / sum_k s_k z^k of the scale, taken over all rows.  The
sampled residual at z, |sum_k r_k z^k| / sum_k s_k z^k, is at most the
largest recurrence ratio plus that share, so the score, their sum rounded
up, never passes a series that the sampled residual fails at the same
samples; and unlike the sampled residual it sees every recurrence row,
so a wrong series in the null space of the sampled map fails too.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Mapping, NamedTuple, Sequence, Tuple

from .errors import ValidationError
from .jsonio import as_number

FUCHSIAN_TOL = 1e-9
SINGULARITY_RADIUS = 1e-6
DEFAULT_SAMPLE_COUNT = 25


class HeunParameters(NamedTuple):
    """Validated real Heun parameters; build via make_parameters."""

    gamma: float
    delta: float
    epsilon: float
    alpha: float
    beta: float
    a: float
    q: float

    def with_accessory(self, q: float) -> "HeunParameters":
        return self._replace(q=float(q))


def read_floats(cls, doc: Mapping[str, float]):
    """The NamedTuple of floats cls from a JSON object keyed by its field
    names (the object its _asdict writes), each read by jsonio.as_number; a
    non-finite value is refused."""
    values = {name: float(as_number(doc[name])) for name in cls._fields}
    require_finite(**values)
    return cls(**values)


class CanonicalCoefficients(NamedTuple):
    """Coefficients of f1 = a0 z^3 + a1 z^2 + a2 z, f2 = a3 z^2 + a4 z + a5,
    f3 = a6 z + a7, in that order."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float

    def to_json_dict(self) -> dict:
        return self._asdict()

    from_json_dict = classmethod(read_floats)

    def with_accessory(self, q: complex | float) -> "CanonicalCoefficients":
        # Complex q arises for a < 0 spectra; keep a7 real when q is real.
        qc = complex(q)
        return self._replace(a7=-qc if qc.imag != 0.0 else -qc.real)


def require_finite(**values: float) -> None:
    """Reject NaN and infinities, which would slip through every
    ``dev > tol`` style comparison downstream."""
    bad = [f"{name}={value!r}" for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValidationError("non-finite input: " + ", ".join(bad))


def make_parameters(
    gamma: float,
    delta: float,
    alpha: float,
    beta: float,
    a: float,
    q: float,
    epsilon: float | None = None,
) -> HeunParameters:
    """Validate and normalize a parameter set.

    epsilon is always recomputed from the exponent balance so the stored
    values satisfy it exactly; a supplied epsilon only has to agree within
    FUCHSIAN_TOL.  alpha and beta are stored sorted (alpha <= beta).
    """
    gamma, delta, alpha, beta, a, q = map(float, (gamma, delta, alpha, beta, a, q))
    require_finite(gamma=gamma, delta=delta, alpha=alpha, beta=beta, a=a, q=q)
    if epsilon is not None:
        require_finite(epsilon=float(epsilon))
    if a == 0.0 or a == 1.0:
        raise ValidationError(
            f"singularity location a={a} collides with a fixed singular point"
        )
    implied = alpha + beta + 1.0 - gamma - delta
    if epsilon is not None and not abs(float(epsilon) - implied) <= FUCHSIAN_TOL:
        raise ValidationError(
            "gamma+delta+epsilon - (alpha+beta+1) = "
            f"{gamma + delta + float(epsilon) - alpha - beta - 1.0:.3e} "
            f"exceeds tolerance {FUCHSIAN_TOL:g}"
        )
    if beta < alpha:
        alpha, beta = beta, alpha
    return HeunParameters(gamma, delta, implied, alpha, beta, a, q)


def lame_parameters(rho: float, a: float, q: float) -> HeunParameters:
    """Parameter set with gamma=delta=epsilon=1/2 and alpha*beta=rho(rho+1)/4.

    alpha, beta are the roots of t^2 - t/2 + rho(rho+1)/4; they are real only
    for rho(rho+1) <= 1/4.
    """
    rho = float(rho)
    require_finite(rho=rho)
    product = rho * (rho + 1.0) / 4.0
    disc = 0.25 - 4.0 * product
    if disc < 0.0:
        raise ValidationError(
            f"exponents at infinity are complex for rho={rho} "
            f"(discriminant {disc:.3e})"
        )
    root = math.sqrt(disc)
    alpha = (0.5 - root) / 2.0
    beta = (0.5 + root) / 2.0
    return make_parameters(0.5, 0.5, alpha, beta, a, q)


def canonical_coefficients(params: HeunParameters) -> CanonicalCoefficients:
    """Polynomial-form coefficients a0..a7 of the operator."""
    g, d, al, be, a, q = (
        params.gamma,
        params.delta,
        params.alpha,
        params.beta,
        params.a,
        params.q,
    )
    return CanonicalCoefficients(
        a0=1.0,
        a1=-(a + 1.0),
        a2=a,
        a3=1.0 + al + be,
        a4=-(a * g + a * d - d + al + be + 1.0),
        a5=a * g,
        a6=al * be,
        a7=-q,
    )


def _rows(coeffs: CanonicalCoefficients, pp, p, one):
    """The rows that f1 y'' + f2 y' + f3 y puts on z^(p+1), z^p and z^(p-1)
    from the factors pp, p and one that y'', y' and y carry: p(p-1), p and
    1 for y = z^p.  The one statement of the rows, plain arithmetic, so the
    same expression gives signed rows and, on |a_i| and |factors|, the sums
    of the terms' magnitudes, on floats, arrays and integers alike."""
    c = coeffs
    return (
        c.a0 * pp + c.a3 * p + c.a6 * one,
        c.a1 * pp + c.a4 * p + c.a7 * one,
        c.a2 * pp + c.a5 * p,
    )


def canonical_rows(coeffs: CanonicalCoefficients, p):
    """f1 y'' + f2 y' + f3 y on y = z^p: the coefficients of z^(p+1), z^p and
    z^(p-1), in that order.  Plain arithmetic, so it serves floats and exact
    numbers (integer coefficients and a Fraction p) alike."""
    return _rows(coeffs, p * (p - 1), p, 1)


def row_matrix(coeffs: CanonicalCoefficients) -> Tuple[Tuple[float, ...], ...]:
    """The rows as a 3 x 3 matrix: entry (i, j) is what the factor j
    (p(p-1), p or 1) puts on the row i (z^(p+1), z^p or z^(p-1)).  The rows
    are linear in the factors, so column j is _rows at the unit factor j,
    and the matrix times the factors of any p gives canonical_rows there."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return tuple(zip(*(_rows(coeffs, *unit) for unit in units)))


def _integer_rows(coeffs: CanonicalCoefficients, sizes: CanonicalCoefficients, key: int, e: int):
    """The signed rows and their magnitude sums at the exponent key / e,
    times e^2, for integer coefficients and their magnitudes: integers."""
    pp, p = key * (key - e), key * e
    return _rows(coeffs, pp, p, e * e), _rows(sizes, abs(pp), abs(p), e * e)


ASCENDING = "ascending"
DESCENDING = "descending"


class SeriesRecord(NamedTuple):
    """A truncated series y = sum_m coefficients[m] * z^(p0 + step*m) as a
    document states it, step +1 ascending and -1 descending, with the
    accessory q it solves for and its open domain of convergence.
    series_engine.SeriesSolution is this record with caches for evaluation."""

    p0: float
    direction: str
    parity: str
    q: complex
    coefficients: Tuple[complex, ...]
    domain: Tuple[float, float]

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    @property
    def step(self) -> int:
        """+1 ascending, -1 descending: z^(p0 + step*m) is term m."""
        return 1 if self.direction == ASCENDING else -1

    def to_json_dict(self) -> dict:
        return {
            "p0": self.p0,
            "direction": self.direction,
            "parity": self.parity,
            "q": self.q,
            "K": self.truncation,
            "coefficients": list(self.coefficients),
            "domain": list(self.domain),
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping):
        lo, hi = doc["domain"]
        if doc["direction"] not in (ASCENDING, DESCENDING):
            raise ValidationError(f"series direction {doc['direction']!r} is neither "
                                  f"{ASCENDING!r} nor {DESCENDING!r}")
        if doc["parity"] not in ("even", "odd"):
            raise ValidationError(f"series parity {doc['parity']!r} is neither 'even' nor 'odd'")
        if as_number(doc["K"]) != len(doc["coefficients"]) - 1:
            raise ValidationError(f"series K={doc['K']!r} does not match its "
                                  f"{len(doc['coefficients'])} coefficients")
        return cls(
            p0=float(as_number(doc["p0"])),
            direction=doc["direction"],
            parity=doc["parity"],
            q=float(as_number(doc["q"])),
            coefficients=tuple(float(as_number(b)) for b in doc["coefficients"]),
            domain=(float(as_number(lo)), math.inf if hi is None else float(as_number(hi))),
        )


def convergence_domain(a: float, direction: str) -> Tuple[float, float]:
    """Open interval of convergence of a series with singularity location a:
    up to the nearest other singularity.

    Ascending series converge on (0, min(1,|a|)), descending ones on
    (max(1,|a|), inf); |a| covers singularity locations off the positive
    axis (a < 0), where the radius is still the distance to the origin.
    series_solution states this domain and verify re-derives it.
    """
    if direction == ASCENDING:
        return (0.0, min(1.0, abs(a)))
    return (max(1.0, abs(a)), math.inf)


def chebyshev_points(lo: float, hi: float, count: int = DEFAULT_SAMPLE_COUNT) -> Tuple[float, ...]:
    """Chebyshev-spaced interior points of (lo, hi), ascending."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return tuple(sorted(mid + half * math.cos(math.pi * (2 * k + 1) / (2 * count))
                        for k in range(count)))


_UNCLEAR = f"off the positive axis or within {SINGULARITY_RADIUS:g} of a singular point"


def _clear(z: float, a: float) -> bool:
    """Whether z may be a sample: positive, and at least SINGULARITY_RADIUS
    from 1 and from a.  A NaN is not."""
    return z > 0.0 and abs(z - 1.0) >= SINGULARITY_RADIUS and abs(z - a) >= SINGULARITY_RADIUS


def check_sample_points(z_samples: Sequence[float], a: float) -> None:
    """Reject the sample points that default_sample_points clips."""
    for z in z_samples:
        if not _clear(z, a):
            raise ValidationError(f"sample z={z} is {_UNCLEAR}")


class Samples(tuple):
    """Sample points; when none is left, cause says why."""

    cause = ""


def solution_samples(
    a: float, domain: Tuple[float, float] = (0.0, math.inf), count: int = DEFAULT_SAMPLE_COUNT
) -> Samples:
    """The samples of a solution's domain, the one sample rule, which scores
    a series' truncation rows and places the CSV points of a spectrum:
    (0, min(1,|a|)) for a terminating eigenfunction on (0, inf), (0, R/2)
    for an ascending series on (0, R) and (2R, 4R) for a descending one on
    (R, inf), less the nodes default_sample_points clips.  From R of about
    3e307 on, 2R + 4R, the sum that chebyshev_points forms, overflows and
    no sample is left."""
    lo, hi = domain
    if lo > 0.0:
        if 2.0 * lo + 4.0 * lo == math.inf:
            samples = Samples()
            samples.cause = f"the sample domain (2R, 4R) lies past the largest float at R={lo:g}"
            return samples
        domain = (2.0 * lo, 4.0 * lo)
    else:
        domain = None if hi == math.inf else (0.0, 0.5 * hi)
    samples = Samples(default_sample_points(a, domain, count))
    if not samples:
        samples.cause = f"each is {_UNCLEAR}"
    return samples


def default_sample_points(
    a: float, domain: Tuple[float, float] | None = None, count: int = DEFAULT_SAMPLE_COUNT
) -> Tuple[float, ...]:
    """Chebyshev samples in domain, less every node off the positive axis or
    within SINGULARITY_RADIUS of 1 or a; with no domain, in (0, min(1,|a|)),
    where a terminating eigenfunction is sampled.
    The clip matters for a domain that straddles 1 or a, and for the
    eigenfunction's domain (0, |a|) at small |a|: its top node lies about
    1e-3*|a| below |a|, so from |a| = 1e-3 down the clip removes nodes near
    a, and at a = 1e-6 or 1e-7 it removes all 25.  On that empty set the
    worst residual of any candidate is inf."""
    lo, hi = (0.0, min(1.0, abs(a))) if domain is None else domain
    return tuple(z for z in chebyshev_points(lo, hi, count) if _clear(z, a))


# Bits that math.isqrt keeps below the integer part of a complex modulus.
_ROOT_BITS = 64


def _dyadic(values) -> Tuple[List[int], int]:
    """(values times s, s) for finite floats: s, the largest of their
    denominators, is a power of two that each of the others divides."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((d for _, d in ratios), default=1)
    return [n * (scale // d) for n, d in ratios], scale


def _modulus(re: int, im: int, shift: int) -> int:
    """|re + i im| 2^shift, exact when im is 0, else rounded down."""
    return abs(re) << shift if not im else math.isqrt((re * re + im * im) << 2 * shift)


def _ratio_up(num: int, den: int) -> float:
    """The least float at or above num / den, for integers num >= 0 < den."""
    x = num / den
    n, d = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if n * den < num * d else x


def exact_residuals(coeffs: CanonicalCoefficients, candidates: Sequence) -> List[float]:
    """The exact residual max_k |r_k| / s_k of each candidate (exponents,
    values, q), given as Python numbers, with a7 = -q, rounded up (module
    docstring).  A candidate with a non-finite number, or with no nonzero
    value (the zero function, which solves every equation and so proves
    nothing), scores inf.  The rows of each distinct exponent p are built
    once, by _integer_rows, and every number is written as an integer at one
    binary scale: a0..a6 and the q's at the scale s of their largest
    denominator, the exponents at E = 2^e, so that the rows times E^2 are
    integers at s, and each candidate's values at their own."""
    live = [all(map(cmath.isfinite, (*p, *c, q))) and any(c) for p, c, q in candidates]
    qs = [complex(q) for (_, _, q), ok in zip(candidates, live) if ok]
    ints, _ = _dyadic([*coeffs[:7], *(x for q in qs for x in (q.real, q.imag))])
    a, q_ints = CanonicalCoefficients(*ints[:7], a7=0), iter(ints[7:])
    sizes = CanonicalCoefficients(*map(abs, a))
    exponents = sorted({p for (ps, _, _), ok in zip(candidates, live) if ok for p in ps})
    keys, e = _dyadic(exponents)
    e2 = e * e
    rows = {}  # p -> (the powers (p + 1, p, p - 1) E, the signed rows, their magnitudes)
    for p, key in zip(exponents, keys):
        rows[p] = ((key + e, key, key - e), *_integer_rows(a, sizes, key, e))
    worst = []
    for (ps, cs, _), ok in zip(candidates, live):
        if not ok:
            worst.append(math.inf)
            continue
        qr, qi = next(q_ints), next(q_ints)
        parts, _ = _dyadic([x for c in map(complex, cs) for x in (c.real, c.imag)])
        # A complex candidate's moduli, and so its sums, carry g bits below the point.
        g = _ROOT_BITS if qi or any(parts[1::2]) else 0
        mq = e2 * _modulus(qr, qi, g)
        r_re: dict = {}
        r_im: dict = {}
        s: dict = {}
        for p, cr, ci in zip(ps, parts[::2], parts[1::2]):
            powers, signed, magnitudes = rows[p]
            mc = _modulus(cr, ci, g)
            for k, row, size in zip(powers, signed, magnitudes):
                r_re[k] = r_re.get(k, 0) + row * cr
                r_im[k] = r_im.get(k, 0) + row * ci
                s[k] = s.get(k, 0) + size * mc
            k = powers[1]
            r_re[k] -= e2 * (qr * cr - qi * ci)
            r_im[k] -= e2 * (qr * ci + qi * cr)
            s[k] += mq * mc >> g
        worst.append(max((_ratio_up(_modulus(r_re[k], r_im[k], g) + bool(r_im[k]), s[k])
                          for k in s if s[k]), default=0.0))
    return worst


# The truncation share drops each term of S(z) below 2^_SHARE_FLOOR of its
# largest, which only lowers S, by less than (K + 3) 2^-64 of it, and
# counts each term of its numerator at least 2^-1074.
_SHARE_FLOOR = -64.0
_TINY = 2.0**-1074


def series_residual(coeffs: CanonicalCoefficients, series, samples: Sequence[float]) -> float:
    """The score of a real series record (module docstring): the largest
    exact |r_k| / s_k over its recurrence rows plus the largest truncation
    share over the samples, an upper bound of that share, the sum rounded up
    once.  A non-finite number, the zero function or an empty sample set
    scores inf.  a7 is -q of the record.

    With t = step log2 z < 0 at each sample, row j (the power z^(p0 +
    step j), j = -1..K+1) is weighted by z^(step (j + 1)) = 2^((j + 1) t)
    <= 1, against the power z^(p0 - step) that all rows share, so no power
    overflows.  Each term is formed in log2, as 2^x with x = log2 s_j +
    (j + 1) t, against the largest term of S(z).  The error of each x, from
    the logs, the products and the sums, is at most delta = 2^-46 (the
    largest |log2| of a row's integer plus its scale, + (K + 2)|t| + 1):
    each term of S is taken at x - delta and dropped 2^_SHARE_FLOOR below
    the largest, each numerator term at x + delta plus 2^-1074, and 2^-40
    covers every other rounding, each at most 2^-52."""
    b, q, step = series.coefficients, series.q, series.step
    if not (all(map(math.isfinite, (series.p0, q, *b))) and any(b)) or not samples:
        return math.inf
    ints, _ = _dyadic([*coeffs[:7], -q])
    a = CanonicalCoefficients(*ints)
    sizes = CanonicalCoefficients(*map(abs, ints))
    (start,), e = _dyadic([series.p0])
    # Term m's rows toward m + 1 (outward), on its own power and toward
    # m - 1 (inward), signed and as magnitudes, times b_m's numerator, with
    # d = log2 of its denominator; two zero terms padded on each side.
    out, inward = (0, 2) if step > 0 else (2, 0)
    zero = (0,) * 7
    terms = [zero, zero]
    for m, x in enumerate(b):
        num, den = x.as_integer_ratio()
        rows, row_sizes = _integer_rows(a, sizes, start + step * m * e, e)
        mag = abs(num)
        terms.append((den.bit_length() - 1, rows[out] * num, rows[1] * num, rows[inward] * num,
                      row_sizes[out] * mag, row_sizes[1] * mag, row_sizes[inward] * mag))
    terms += (zero, zero)
    n = len(b)
    best_r, best_s = 0, 1  # the largest recurrence ratio, exact
    logs, tops = [], []  # (j + 1, log2 s_j) over all rows; (j + 1, log2 |r_j|) over the last two
    size = 1.0  # 1 + the largest |log2| of an integer below, plus its scale
    # Row j holds b_(j-1)'s outward, b_j's own and b_(j+1)'s inward terms,
    # at the scale 2^-g of the finest of their denominators.
    for j, (lo, mid, hi) in enumerate(zip(terms, terms[1:], terms[2:]), -1):
        g = max(lo[0], mid[0], hi[0])
        r = abs((lo[1] << g - lo[0]) + (mid[2] << g - mid[0]) + (hi[3] << g - hi[0]))
        s = (lo[4] << g - lo[0]) + (mid[5] << g - mid[0]) + (hi[6] << g - hi[0])
        if not s:
            continue
        log_s = math.log2(s)
        size = max(size, abs(log_s) + g + 1.0)
        logs.append((j + 1, log_s - g))
        if j >= n - 1:
            if r:
                tops.append((j + 1, math.log2(r) - g))
        elif r * best_s > best_r * s:
            best_r, best_s = r, s
    share = 0.0
    if tops:
        for z in samples:
            t = step * math.log2(z)
            delta = 2.0**-46 * (size + (n + 1) * abs(t))
            xs = [x + i * t for i, x in logs]
            top = max(xs) + delta
            cut = top + _SHARE_FLOOR
            den = math.fsum([2.0 ** (x - top) for x in xs if x > cut])
            num = sum(2.0 ** (x + i * t - top + 2.0 * delta) + _TINY for i, x in tops)
            share = max(share, num / den * (1.0 + 2.0**-40))
    sn, sd = share.as_integer_ratio()
    return _ratio_up(best_r * sd + sn * best_s, best_s * sd)
