"""Evidence that the componentwise residual scale is sound and sensitive.

The residual divides |f1 y'' + f2 y' + f3 y| by the sum of |term| over every
individual term.  These tests fix what that buys on the finite ladders
gamma=1/2, delta=-1/2, alpha=mu, beta=mu+1/2, mu=-(n-1)/2, with the verify
threshold of 1e-8 unchanged:

- correct eigenpairs score near machine epsilon at every size the solver
  accepts;
- wrong answers (q or one coefficient moved) still score above the
  threshold;
- the plain float sum of the terms agrees with the exact value of the
  same float inputs to within 8 * (number of monomials) * 2^-53 of the
  scale, so no compensated summation is needed;
- the powers that the residual's power matrix and evaluate_series skip as
  underflowed are exactly 0.0, over both series sample domains and past
  them, so skipping them changes no bit.

verify scores a spectrum document exactly, in coefficient space, not at
samples.  That changes how the check measures, so the evidence is here too:
a pair forged in the null space of the sampled map, which the samples
score at rounding level, fails it; the benchmark's two planted answers
fail it; and on drawn honest ladders every printed score lies between the
exact residual and 2^-50 above it.

series and verify score a series by its exact recurrence rows plus the
share of its two truncation rows at the samples.  The same evidence holds
for it: a series forged in the null space of its sampled map fails; the
benchmark's two plants on a series fail; and on drawn series verify exits
as series did, each score at least the exact value of the rule
(oracle.series_reference).
"""

import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub
from pathlib import Path

import numpy as np
import pytest

from heun_su11.cli import main
from heun_su11.heun_core import (
    CanonicalCoefficients,
    SeriesRecord,
    canonical_coefficients,
    canonical_rows,
    exact_residuals,
    make_parameters,
    solution_samples,
)
from heun_su11.monomials import UNDERFLOW_LOG2, MonomialSum
from heun_su11.representations import RepresentationClass, classify, split_even_odd
from heun_su11.series_engine import ASCENDING, DESCENDING, _live_terms, series_solution
from heun_su11.spectrum import build_matrix, solve_spectrum
from heun_su11.su11_algebra import decompose, rebuild_coefficients
from heun_su11.verifier import default_sample_points, residual_for_coefficients
from oracle import (
    check_exact_scores,
    continuant,
    dyadic_integers,
    integer_form,
    series_reference,
    sturm_counts,
    terms,
)

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


def illinois_root(f, lo, hi, tol):
    """A point within tol/2 of the one sign change of f in [lo, hi].

    Regula falsi whose endpoint kept twice in a row has its f value halved,
    so both ends converge superlinearly (the Illinois method, Dowell and
    Jarratt, BIT 11, 1971).  Each point is kept at least tol/2 inside the
    bracket, so once the secant has found the root the next step closes
    the bracket on it, and every step shrinks it by tol/2 at least.  Points
    and values are integers, so each step rounds down.
    """
    f_lo, f_hi = f(lo), f(hi)
    assert (f_lo < 0) != (f_hi < 0)
    kept = None
    while hi - lo > tol:
        x = min(max(hi - f_hi * (hi - lo) // (f_hi - f_lo), lo + tol // 2), hi - tol // 2)
        fx = f(x)
        if fx == 0:
            return x
        if (fx < 0) == (f_lo < 0):
            lo, f_lo, f_hi = x, fx, f_hi // 2 if kept == "lo" else f_hi
            kept = "lo"
        else:
            hi, f_hi, f_lo = x, fx, f_lo // 2 if kept == "hi" else f_lo
            kept = "hi"
    return (lo + hi) // 2


def reference_eigenvector(matrix, q_float, width, k):
    """Column k of adj(T - q) = det(T - q) (T - q)^-1, exact integers at one
    scale, for the eigenvalue q of the float matrix within width of q_float:
    the Sturm count isolates it, and Illinois steps on det(T - x) narrow the
    bracket to 2^-160 (7e-49) relative width.  k is the peak of the float
    eigenvector: from a start vector of all ones the other eigenvectors
    would stay in x at about 1e-50 of the peak, which swamps the smallest
    components (1e-57 at a=4, n=128)."""
    lo, hi = Fraction(q_float) - Fraction(width), Fraction(q_float) + Fraction(width)
    assert sub(*sturm_counts(matrix, (hi, lo))) == 1
    tol = Fraction(max(1, round(abs(lo))), 1 << 160)
    diag, lower, upper, (lo, hi, tol) = integer_form(matrix, (lo, hi, tol))
    q = illinois_root(lambda x: continuant(diag, lower, upper, x)[-1], lo, hi, tol)
    leading = continuant(diag, lower, upper, q)
    trailing = continuant(diag[::-1], upper[::-1], lower[::-1], q)[::-1]
    # Entry i: the product of -T_(m,m+1) over i <= m < k, or of -T_(m+1,m)
    # over k <= m < i, times leading[min(i, k)] and trailing[max(i, k) + 1].
    above = [*accumulate((-u for u in reversed(upper[:k])), mul, initial=1)][::-1]
    below = [*accumulate((-l for l in lower[k:]), mul, initial=1)][1:]
    return ([f * leading[i] * trailing[k + 1] for i, f in enumerate(above)]
            + [g * leading[k] * trailing[i + 1] for i, g in enumerate(below, k + 1)])


def test_eigenvector_components_match_high_precision_reference():
    """Every component of every even eigenvector at a=4, n=128, relative to
    its own size, against the exact reference."""
    n, a = 128, 4.0
    mu = -(n - 1) / 2.0
    dec = decompose(make_parameters(0.5, -0.5, mu, mu + 0.5, a, 0.0))
    rep = next(r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
    matrix = build_matrix(dec, split_even_odd(rep).even)
    pairs = [pair for pair in solve_spectrum(dec, rep).pairs if pair.parity == "even"]
    assert len(pairs) == len(matrix.diagonal)
    qs = [pair.q for pair in pairs]
    width = 1e-10 * max(1.0, *map(abs, qs))
    assert min(b - a for a, b in zip(qs, qs[1:])) > 2 * width
    for pair in pairs:
        vec = pair.eigenfunction.coefficients
        k = max(range(len(vec)), key=lambda i: abs(vec[i]))
        x = reference_eigenvector(matrix, pair.q, width, k)
        v, _ = dyadic_integers(vec)  # |v_i - r_i| / |r_i|, r = x v_k / x_k
        worst = max(abs(vi * x[k] - xi * v[k]) / abs(xi * v[k]) for vi, xi in zip(v, x))
        assert worst <= 1e-9


# A 1e-6 move of q at n=32, a=4 scores only 8.4e-9, so the larger ladders
# are probed with 1e-5.
MUTATIONS = [(a, n, 1e-6) for a in (2.0, 4.0, -3.0) for n in range(3, 17)] + [
    (a, n, 1e-5) for a in (2.0, 4.0) for n in (32, 64)
]


@pytest.mark.parametrize("a,n,rel", MUTATIONS)
def test_mutated_pairs_are_caught(a, n, rel):
    """The emitter passes a pair exactly when verify's exact score does (at
    a = 2, n = 6 one pair scores 1 in both, NOISE_PAIR), and a moved q or
    coefficient fails every multi-term pair at the samples."""
    coeffs, pairs = ladder(n, a)
    samples = default_sample_points(a)
    multi_term = [pair for pair in pairs if len(pair.eigenfunction.coefficients) > 1]
    assert multi_term
    for pair in multi_term:
        series = pair.eigenfunction
        exponents = [series.p0 + m for m in range(len(series.coefficients))]
        [exact] = exact_residuals(coeffs, [(exponents, series.coefficients, pair.q)])
        assert (pair.residual <= THRESHOLD) == (exact <= THRESHOLD)
        y = pair.eigenfunction.as_monomial_sum()
        moved_q = pair.q + rel * max(1.0, abs(pair.q))
        report = residual_for_coefficients(coeffs.with_accessory(moved_q), y, samples)
        assert report.max_relative_residual > THRESHOLD
        k = max(range(len(y.coeffs)), key=lambda j: abs(y.coeffs[j]))
        scaled = y._replace(coeffs=(*y.coeffs[:k], y.coeffs[k] * (1.0 + rel), *y.coeffs[k + 1:]))
        report = residual_for_coefficients(coeffs.with_accessory(pair.q), scaled, samples)
        assert report.max_relative_residual > THRESHOLD


def exact_numerators(coeffs, y, samples):
    """Fractions lo <= |f1 y'' + f2 y' + f3 y| <= hi at each z in samples, for
    real y: z^(p0 - 1), p0 the least exponent, times a polynomial whose exact
    coefficients are formed once, summed by Horner's rule on integers.  lo
    and hi differ where p0 is a half-integer: math.isqrt brackets sqrt(z)."""
    a0, a1, a2, a3, a4, a5, a6, a7 = map(Fraction, coeffs)
    p0 = min(map(Fraction, y.exponents))
    rows = [Fraction(0)] * (len(y.exponents) + 2)
    for p, c in terms(y):
        p, c = Fraction(p), Fraction(c)
        e = int(p - p0)
        assert e == p - p0
        rows[e] += c * (a2 * p * (p - 1) + a5 * p)
        rows[e + 1] += c * (a1 * p * (p - 1) + a4 * p + a7)
        rows[e + 2] += c * (a0 * p * (p - 1) + a3 * p + a6)
    rows, scale = dyadic_integers(rows)
    whole, half = divmod(p0 - 1, 1)
    assert half in (0, 0.5)
    for z in samples:
        num, den = float(z).as_integer_ratio()
        shift = den.bit_length() - 1
        total = 0
        for e, row in enumerate(reversed(rows)):
            total = total * num + (row << shift * e)
        value = abs(Fraction(total, scale << shift * (len(rows) - 1))) * Fraction(z) ** whole
        root, unit = (math.isqrt(num << shift + 400), 1 << shift + 200) if half else (1, 1)
        yield value * Fraction(root, unit), value * Fraction(root + bool(half), unit)


def assert_plain_sum_is_sound(coeffs, y, samples):
    report = residual_for_coefficients(coeffs, y, samples)
    bound = 8 * len(y.coeffs) * UNIT_ROUNDOFF
    brackets = exact_numerators(coeffs, y, samples)
    for (lo, hi), residual, scale in zip(brackets, report.residuals, report.scales):
        computed = Fraction(residual) * Fraction(scale)
        assert max(abs(computed - lo), abs(computed - hi)) <= bound * scale


def moved(q):
    """q moved as test_mutated_pairs_are_caught moves it.  A candidate's
    numerator is then far above rounding, so it pins the reference's scale,
    where a correct candidate's numerator, itself at rounding level, would
    let a reference off by a factor pass."""
    return q + 1e-6 * max(1.0, abs(q))


def test_plain_sum_matches_high_precision_on_ladder():
    coeffs, pairs = ladder(32, 2.0)
    samples = default_sample_points(2.0)
    for pair in pairs:
        for q in (pair.q, moved(pair.q)):
            assert_plain_sum_is_sound(
                coeffs.with_accessory(q), pair.eigenfunction.as_monomial_sum(), samples
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
    coeffs = canonical_coefficients(params)
    for q in (0.3, moved(0.3)):
        assert_plain_sum_is_sound(coeffs.with_accessory(q), sol.as_monomial_sum(), samples)


# Edges of the series domains: min(1, |a|) ascending, max(1, |a|) descending.
SWEEP_EDGES = {ASCENDING: (0.25, 0.5, 1.0), DESCENDING: (1.0, 2.0, 3.0, 4.0)}
SWEEP_BASES = (-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.5, 7.0)
SWEEP_TRUNCATIONS = (60, 1000, 5000)


def sweep_points(direction, edge, count=16):
    """Geometric points from the edge down to 1e-3 of it ascending, or from
    it up to 16 times it descending: both sample domains and beyond."""
    if direction == ASCENDING:
        return [edge * 10.0 ** (-3.0 * k / count) for k in range(1, count + 1)]
    return [edge * 16.0 ** (k / count) for k in range(1, count + 1)]


def sweep_cases():
    for direction, edges in SWEEP_EDGES.items():
        step = 1 if direction == ASCENDING else -1
        for edge in edges:
            for base in SWEEP_BASES:
                for K in SWEEP_TRUNCATIONS:
                    yield step, sweep_points(direction, edge), base, K


def test_power_matrix_is_exactly_zero_past_the_underflow_bound():
    # The residual's power matrix is numpy's z**p in full; the bound D on a
    # prefix's dropped terms (monomials.tail_cut) counts every power with
    # p*log2(z) < UNDERFLOW_LOG2 as exactly 0.0.
    underflowed = 0
    odd_exponents = [math.nan, -math.nan, math.inf, -math.inf]
    for step, points, base, K in sweep_cases():
        z = np.array(points)
        p = np.concatenate([base + step * np.arange(K + 1.0), odd_exponents])
        with np.errstate(all="ignore"):
            power = z[:, None] ** p[None, :]
            past = p[None, :] * np.log2(z)[:, None] < UNDERFLOW_LOG2
        assert np.all(power[past] == 0.0)
        underflowed += np.count_nonzero(past)
    assert underflowed > 10**6


def test_evaluate_series_skips_only_exact_zeros():
    skipped = 0
    for step, points, base, K in sweep_cases():
        for z in points:
            live = _live_terms(base, step, z, K + 1)
            exponents = [base + step * m for m in range(live, K + 1)]
            assert not any(map(z.__pow__, exponents))
            skipped += len(exponents)
    assert skipped > 10**6


def run(argv, capsys, monkeypatch, stdin=""):
    """(exit code, stdout) of heun-su11 argv with stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = main(argv)
    return rc, capsys.readouterr().out


def ladder_argv(n, gamma, a, delta=-0.5):
    """spectrum flags for the finite ladder of length n."""
    mu = {0.5: 0.0, 1.5: 0.5}[gamma] - (n - 1) / 2.0
    return ["spectrum", "--gamma", repr(gamma), "--delta", repr(delta), "--alpha", repr(mu),
            "--beta", repr(mu + 0.5), "--a", repr(a)]


def verify_scores(doc, capsys, monkeypatch):
    """verify's exit code and per-pair scores on the document."""
    rc, out = run(["verify", "--solution", "-"], capsys, monkeypatch, json.dumps(doc))
    return rc, [r["max_relative_residual"] for r in json.loads(out)["results"]]


def test_verify_fails_a_pair_forged_in_the_null_space_of_the_samples(capsys, monkeypatch):
    """n = 128, a = 2: the middle even pair plus a null vector of its map
    from 64 coefficients to the residual's numerator at the 25 samples,
    scaled to 0.1 max|c|.  The samples score it at rounding level; its exact
    residual is 0.56."""
    _, out = run(ladder_argv(128, 0.5, 2.0), capsys, monkeypatch)
    doc = json.loads(out)
    coeffs = CanonicalCoefficients.from_json_dict(doc["ode_coefficients"])
    even = [i for i, pair in enumerate(doc["eigenpairs"]) if pair["parity"] == "even"]
    i = even[len(even) // 2]
    pair = doc["eigenpairs"][i]
    p = np.array([t["exponent"] for t in pair["coefficients"]], dtype=float)
    c = np.array([t["value"] for t in pair["coefficients"]])
    z = np.array(default_sample_points(coeffs.a2))
    up, same, down = np.array([canonical_rows(coeffs.with_accessory(pair["q"]), x) for x in p]).T
    sampled_map = z[:, None] ** p * (up * z[:, None] + same + down / z[:, None])
    null = np.linalg.svd(sampled_map)[2][-1]
    forged = c + 0.1 * np.abs(c).max() * null / np.abs(null).max()
    y = MonomialSum(tuple(p.tolist()), tuple(forged.tolist()))
    sampled = residual_for_coefficients(coeffs.with_accessory(pair["q"]), y, tuple(z.tolist()))
    assert sampled.max_relative_residual <= 1e-14
    for term, value in zip(pair["coefficients"], forged.tolist()):
        term["value"] = value
    rc, scores = verify_scores(doc, capsys, monkeypatch)
    assert rc == 1
    assert [j for j, score in enumerate(scores) if score > THRESHOLD] == [i]
    assert scores[i] > 0.1


# The benchmark's plants (bench/check.py): q moved by 1e-6, relative to |q|
# when |q| > 1, and the largest coefficient of the first multi-term pair
# scaled by 1 + 1e-6.
PLANTED_DOCUMENTS = {
    "example1": ["spectrum", "--preset", "example1"],
    "n=16": ladder_argv(16, 0.5, 2.0),
    "n=32": ladder_argv(32, 0.5, 2.0),
}


@pytest.mark.parametrize("name", list(PLANTED_DOCUMENTS))
def test_verify_fails_the_benchmarks_planted_answers(name, capsys, monkeypatch):
    _, out = run(PLANTED_DOCUMENTS[name], capsys, monkeypatch)
    planted_q, planted_c = json.loads(out), json.loads(out)
    pair = planted_q["eigenpairs"][0]
    pair["q"] += 1e-6 * max(1.0, abs(pair["q"]))
    pair = next(p for p in planted_c["eigenpairs"] if len(p["coefficients"]) > 1)
    term = max(pair["coefficients"], key=lambda t: abs(t["value"]))
    term["value"] *= 1.0 + 1e-6
    for doc in (planted_q, planted_c):
        rc, scores = verify_scores(doc, capsys, monkeypatch)
        assert rc == 1 and max(scores) > 1e-7


@pytest.mark.sweep
def test_verify_scores_drawn_spectra_exactly(seed, capsys, monkeypatch):
    """Honest spectrum documents at drawn a and delta, as the M1 sweep draws
    a (log-uniform in [1e-5, 3] with n up to 128, and in [-3, -0.5] with n
    up to 32), both gammas: verify passes every pair, and each printed score
    is at least the exact residual and at most 2^-50 relative above it."""
    rng = random.Random(f"exact-verify-sweep-{seed}")
    for gamma in (0.5, 1.5):
        for sign, lo, hi, top in ((1.0, 1e-5, 3.0, 128), (-1.0, 0.5, 3.0, 32)):
            a = sign * math.exp(rng.uniform(math.log(lo), math.log(hi)))
            argv = ladder_argv(rng.randint(1, top), gamma, a, round(rng.uniform(-1.0, 1.0), 6))
            _, out = run(argv, capsys, monkeypatch)
            doc = json.loads(out)
            rc, scores = verify_scores(doc, capsys, monkeypatch)
            assert rc == 0, argv
            check_exact_scores(doc, scores)


# 2^-48 bounds |spectrum's float64 score - verify's exact one| (spectrum._residuals).
FLOAT_TO_EXACT = 2.0**-48


def assert_spectrum_agrees_with_verify(argv, capsys, monkeypatch):
    """Run spectrum with argv and verify on its document; assert that both
    exit alike and that each printed residual lies within FLOAT_TO_EXACT
    of verify's exact score; return the exit code and the document."""
    rc, out = run(argv, capsys, monkeypatch)
    doc = json.loads(out)
    verdict, scores = verify_scores(doc, capsys, monkeypatch)
    residuals = [pair["residual"] for pair in doc["eigenpairs"]]
    assert rc == verdict, argv
    assert all(abs(r - s) <= FLOAT_TO_EXACT for r, s in zip(residuals, scores)), argv
    return rc, doc


# Documents that spectrum once scored at 25 samples and verify exactly, with
# different verdicts, and verify's verdict, which spectrum now shares.
DISAGREED = {
    "n6-a2": (ladder_argv(6, 0.5, 2.0), 1),
    **{f"delta-1.5-a{a:g}": (ladder_argv(5, 0.5, a, delta=-1.5), 1)
       for a in (0.5, 2.0, 3.0, 4.0, 1000.0)},
    "n128-a1e6": (ladder_argv(128, 0.5, 1e6), 1),
    "example1-a1e-7": (["spectrum", "--preset", "example1", "--a", "1e-7"], 0),
    "example1-a1e308": (["spectrum", "--preset", "example1", "--a", "1e308"], 0),
    "n128-a1e-5": (ladder_argv(128, 0.5, 1e-5), 0),
}
# The failing pair at a = 2, n = 6: its true q and middle coefficient are 0,
# and row z^0 holds only -q c_0 and a5 c_1, the rounding noise of both, so
# the componentwise score of that row is exactly 1, in spectrum and verify.
NOISE_PAIR = {"q": -2.85288813758595e-16, "coefficients": [1, 1.5849378542144169e-16,
                                                           -0.8333333333333334]}


@pytest.mark.parametrize("name", list(DISAGREED))
def test_spectrum_exits_as_verify_judges_its_document(name, capsys, monkeypatch):
    argv, verdict = DISAGREED[name]
    rc, doc = assert_spectrum_agrees_with_verify(argv, capsys, monkeypatch)
    assert rc == verdict
    if name == "n6-a2":
        failing = [pair for pair in doc["eigenpairs"] if pair["residual"] > THRESHOLD]
        assert [(pair["q"], [t["value"] for t in pair["coefficients"]], pair["residual"])
                for pair in failing] == [(*NOISE_PAIR.values(), 1)]


@pytest.mark.parametrize("name", ["example1", "example2", "lame", "n32-a2", "n32-a-3",
                                  "n128-a4"])
def test_golden_spectrum_residuals_lie_within_the_bound_of_verify(name):
    """The float64 score of every pair of each spectrum fixture, against the
    exact score of its verify fixture."""
    golden = Path(__file__).parent / "golden"
    pairs = json.loads((golden / f"spectrum-{name}.out").read_text(encoding="utf-8"))["eigenpairs"]
    results = json.loads((golden / f"verify-{name}.out").read_text(encoding="utf-8"))["results"]
    assert len(pairs) == len(results)
    for pair, result in zip(pairs, results):
        assert abs(pair["residual"] - result["max_relative_residual"]) <= FLOAT_TO_EXACT


# gamma, a, delta and n = 1..40 of the agreement grid; a seed takes every
# eighth ladder, from its own offset, so any eight consecutive seeds cover it.
AGREEMENT_GRID = [(gamma, a, delta, n) for gamma in (0.5, 1.5)
                  for a in (0.25, 2.0, 3.0, 4.0, 10.0, 1e3, -3.0)
                  for delta in (-1.5, -0.5, -0.47, 0.3) for n in range(1, 41)]


@pytest.mark.sweep
def test_spectrum_agrees_with_verify_on_the_grid(seed, capsys, monkeypatch):
    """On each ladder of the grid, spectrum exits 1 exactly when verify
    fails its document, and each printed residual lies within
    FLOAT_TO_EXACT of verify's exact score."""
    for gamma, a, delta, n in AGREEMENT_GRID[seed % 8::8]:
        assert_spectrum_agrees_with_verify(ladder_argv(n, gamma, a, delta), capsys, monkeypatch)


SERIES = {
    "example1-pd": ["series", "--preset", "example1", "--a", "2", "--q", "0.3"],
    "example2-nd": ["series", "--preset", "example2", "--a", "4", "--q", "0.3", "--rep", "nd"],
    "lame-a-3": ["series", "--preset", "lame", "--a", "-3", "--q", "0.7"],
}


@pytest.mark.parametrize("name", list(SERIES))
def test_verify_fails_a_series_forged_in_the_null_space_of_the_samples(name, capsys,
                                                                        monkeypatch):
    """A K = 60 series plus a null vector of its map from 61 coefficients to
    the residual's numerator at the 25 samples, scaled to 0.1 max|b|.  The
    samples score it at rounding level; its recurrence rows do not."""
    _, out = run(SERIES[name], capsys, monkeypatch)
    doc = json.loads(out)
    coeffs = CanonicalCoefficients.from_json_dict(doc["ode_coefficients"])
    series = SeriesRecord.from_json_dict(doc["series"])
    b = np.array(series.coefficients)
    p = series.p0 + series.step * np.arange(len(b))
    z = np.array(solution_samples(coeffs.a2, series.domain))
    up, same, down = np.array([canonical_rows(coeffs, x) for x in p]).T
    sampled_map = z[:, None] ** p * (up * z[:, None] + same + down / z[:, None])
    null = np.linalg.svd(sampled_map)[2][-1]
    forged = b + 0.1 * np.abs(b).max() * null / np.abs(null).max()
    y = MonomialSum(tuple(p.tolist()), tuple(forged.tolist()))
    sampled = residual_for_coefficients(coeffs, y, tuple(z.tolist()))
    assert sampled.max_relative_residual <= 1e-14
    doc["series"]["coefficients"] = forged.tolist()
    rc, [score] = verify_scores(doc, capsys, monkeypatch)
    assert rc == 1 and score > 0.01


# The series the benchmark plants on: the presets at K = 80, as cli_presets
# runs them, and the K = 1000 series of both ladders.
PLANTED_SERIES = {
    **{f"{preset}-k80": ["series", "--preset", preset, "--q", "0.3", "--kmax", "80"]
       for preset in ("example1", "example2", "lame")},
    **{f"{rep}-k1000": ["series", "--preset", "example1", "--q", "0.3", "--rep", rep,
                        "--kmax", "1000"] for rep in ("pd", "nd")},
}


@pytest.mark.parametrize("name", list(PLANTED_SERIES))
def test_verify_fails_the_benchmarks_planted_series(name, capsys, monkeypatch):
    # bench/check.py's plants on a series: q moved by 1e-6, relative to |q|
    # when |q| > 1, and b_1 scaled by 1 + 1e-6.
    rc, out = run(PLANTED_SERIES[name], capsys, monkeypatch)
    assert rc == 0
    planted_q, planted_b = json.loads(out), json.loads(out)
    planted_q["series"]["q"] += 1e-6 * max(1.0, abs(planted_q["series"]["q"]))
    planted_b["series"]["coefficients"][1] *= 1.0 + 1e-6
    for doc in (planted_q, planted_b):
        rc, [score] = verify_scores(doc, capsys, monkeypatch)
        assert rc == 1 and score > 1e-8


@pytest.mark.sweep
def test_verify_scores_drawn_series_by_the_rule(seed, capsys, monkeypatch):
    """Series at a drawn preset, |a| log-uniform in [1e-3, 1e3] of either
    sign, q, K in {1, 60, 1000}, ladder and parity: verify exits on the
    printed document as series did, and each score is at least the exact
    value of the rule; a non-finite series scores inf (null)."""
    rng = random.Random(f"series-verify-sweep-{seed}")
    for _ in range(6):
        preset = rng.choice(("example1", "example2", "lame"))
        a = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        argv = ["series", "--preset", preset, "--a", repr(a),
                "--q", repr(round(rng.uniform(-2.0, 2.0), 6)),
                "--kmax", str(rng.choice((1, 60, 1000))), "--rep", rng.choice(("pd", "nd")),
                "--parity", rng.choice(("even", "odd"))]
        code, out = run(argv, capsys, monkeypatch)
        doc = json.loads(out)
        rc, [score] = verify_scores(doc, capsys, monkeypatch)
        assert rc == code, argv
        if score is None:
            assert code == 1 and None in doc["series"]["coefficients"], argv
            continue
        coeffs = CanonicalCoefficients.from_json_dict(doc["ode_coefficients"])
        series = SeriesRecord.from_json_dict(doc["series"])
        reference = series_reference(coeffs, series, solution_samples(coeffs.a2, series.domain))
        assert Fraction(score) >= reference, (argv, score, float(reference))
