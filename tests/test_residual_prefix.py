"""The residual of one long series scores a certified prefix of its terms.

residual_for_coefficients keeps the leading k terms of one long real sum when
a majorant bounds the rest by D, at most 2^-50 of the prefix's scale at every
sample, and reports (num_k + D) / scale_k rounded up.  These tests fix what
that rule must keep:

- D bounds the exact Fraction sum of the dropped terms' computed magnitudes
  at every sample, the reported residual is never below the full sum's
  beyond 2^-40, and both pass or fail the 1e-8 threshold alike;
- a wrong coefficient inside the prefix, or a wrong q, still fails;
- an overflowed series scores inf with NaN scales without a power matrix,
  and the exit gate still names its cause;
- the spectrum's eigenfunctions never take the rule;
- series and verify, which score a series by its exact rows, never score
  it below the library's sampled residual, and reach the same verdict.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heun_su11 import verifier
from heun_su11.cli import PRESETS, _score_series, main
from heun_su11.heun_core import (
    canonical_coefficients,
    default_sample_points,
    lame_parameters,
    make_parameters,
    solution_samples,
)
from heun_su11.representations import RepresentationClass, classify
from heun_su11.series_engine import series_solution
from heun_su11.spectrum import solve_spectrum
from heun_su11.su11_algebra import decompose, rebuild_coefficients
from heun_su11.verifier import ode_residual, residual_for_coefficients
from oracle import exact_magnitude, scale_terms, terms

POS = RepresentationClass.POSITIVE_DISCRETE
NEG = RepresentationClass.NEGATIVE_DISCRETE
THRESHOLD = 1e-8


def preset_case(preset, a, q, cls, parity, K):
    """The parameters and the series of a preset at its own a and q."""
    p = PRESETS[preset]
    params = (lame_parameters(p["rho"], a, q) if "rho" in p else
              make_parameters(p["gamma"], p["delta"], p["alpha"], p["beta"], a, q))
    dec = decompose(params)
    rep = next(r for r in classify(dec) if r.rep_class is cls)
    return params, series_solution(dec, rep, parity, q, truncation=K)


def record(monkeypatch, name):
    """A list of what verifier.<name> returns from here on."""
    calls = []
    real = getattr(verifier, name)

    def recording(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(verifier, name, recording)
    return calls


def record_powers(monkeypatch):
    """A list of the exponent count of each power matrix that verifier._sums
    forms from here on."""
    calls = []
    real = verifier._sums

    def recording(z, p, *args):
        calls.append(len(p))
        return real(z, p, *args)

    monkeypatch.setattr(verifier, "_sums", recording)
    return calls


def full_sum(monkeypatch, coeffs, y, samples):
    """The report of the full sum, with the prefix rule switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "tail_cut", lambda *args, **kwargs: None)
        return residual_for_coefficients(coeffs, y, samples)


@pytest.mark.sweep
def test_prefix_bounds_the_exact_dropped_scale(seed, monkeypatch):
    # Over the presets at five a, both ladders and parities and K = 100 and
    # 1000, overflowed series included: each cut's D must bound the exact
    # sum of the dropped terms' computed magnitudes at every sample, and the
    # reported residual must keep the full sum's, and its verdict.
    rng = random.Random(f"residual-prefix-{seed}")
    cuts = record(monkeypatch, "tail_cut")
    taken = {POS: 0, NEG: 0}
    for a in (2.0, 4.0, -3.0, 0.3, 1.7):
        for cls in (POS, NEG):
            for parity in ("even", "odd"):
                for K in (100, 1000):
                    q = round(rng.uniform(-1.0, 1.0), 6)
                    params, sol = preset_case(rng.choice(sorted(PRESETS)), a, q, cls, parity, K)
                    coeffs = canonical_coefficients(params)
                    y = sol.as_monomial_sum()
                    samples = solution_samples(a, sol.domain)
                    where = (a, cls.value, parity, K, q)
                    cuts.clear()
                    report = residual_for_coefficients(coeffs, y, samples)
                    full = full_sum(monkeypatch, coeffs, y, samples)
                    for k, bound in filter(None, cuts):
                        dropped = terms(y)[k:]
                        for z, d in zip(samples, bound):
                            rest = exact_magnitude(scale_terms(coeffs, dropped, z))
                            assert rest <= Fraction(d), where + (k, z)
                    for got, want in zip(report.residuals, full.residuals):
                        assert got >= want - 2.0**-40, where
                    assert ((report.max_relative_residual <= THRESHOLD)
                            == (full.max_relative_residual <= THRESHOLD)), where
                    taken[cls] += report.scales != full.scales
    assert taken[POS] > 0 and taken[NEG] > 0


@pytest.mark.parametrize("cls", [POS, NEG])
def test_prefix_still_fails_a_wrong_answer(cls, monkeypatch):
    # A K=1000 series passes on a prefix of its terms; a coefficient inside
    # that prefix scaled by 1 + 1e-6, or q moved by 1e-6, fails on one too.
    params, sol = preset_case("example1", 2.0, 0.3, cls, "even", 1000)
    coeffs = canonical_coefficients(params)
    y = sol.as_monomial_sum()
    samples = solution_samples(2.0, sol.domain)
    scored = record_powers(monkeypatch)
    wrong_coefficient = y._replace(coeffs=(y.coeffs[0], y.coeffs[1] * (1.0 + 1e-6),
                                           *y.coeffs[2:]))
    for c, candidate, passes in ((coeffs, y, True), (coeffs, wrong_coefficient, False),
                                 (coeffs.with_accessory(0.3 + 1e-6), y, False)):
        scored.clear()
        report = residual_for_coefficients(c, candidate, samples)
        assert (report.max_relative_residual <= THRESHOLD) is passes
        assert [n < len(y.coeffs) / 4 for n in scored] == [True]


OVERFLOWED = [("example2", 4.0, "even"), ("example2", 4.0, "odd"),
              ("lame", -3.0, "even"), ("lame", -3.0, "odd")]


@pytest.mark.parametrize("preset, a, parity", OVERFLOWED)
def test_an_overflowed_series_scores_inf_with_nan_scales(preset, a, parity, monkeypatch, capsys):
    # The four overflowed K=1000 descending series of the benchmark: each
    # scores inf with a NaN scale at every sample, computes no power, and
    # the series command still names the non-finite coefficients.
    params, sol = preset_case(preset, a, 0.3, NEG, parity, 1000)
    first = next(m for m, b in enumerate(sol.coefficients) if not math.isfinite(b))
    y = sol.as_monomial_sum()
    samples = solution_samples(a, sol.domain)
    powers = record_powers(monkeypatch)
    report = ode_residual(params, y, samples)
    assert powers == []
    assert report.max_relative_residual == math.inf
    assert set(report.residuals) == {math.inf} and all(map(math.isnan, report.scales))
    argv = ["series", "--preset", preset, "--a", str(a), "--q", "0.3", "--rep", "nd",
            "--parity", parity, "--kmax", "1000"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"heun-su11: the series has non-finite coefficients from "
                                       f"b_{first} on, so its residual inf is over 1e-08\n")


@pytest.mark.parametrize("seed", [1, 2])
def test_spectrum_ladders_keep_the_full_sum(seed, monkeypatch):
    # The benchmark's finite ladders (n up to 128, a = 2, 4 and -3, delta
    # drawn from the seed): no pair's report takes the prefix rule, so every
    # spectrum residual is the full sum's.
    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum pair took the prefix rule")

    monkeypatch.setattr(verifier, "tail_cut", refuse)
    rng = random.Random(f"spectrum_ladders-{seed}")
    for n, a in [(n, a) for a in (2.0, 4.0) for n in (2, 16, 64, 128)] + [(16, -3.0), (64, -3.0)]:
        mu = -(n - 1) / 2.0
        dec = decompose(make_parameters(0.5, round(rng.uniform(-0.55, -0.45), 6), mu, mu + 0.5,
                                        a, 0.0))
        rep = next(r for r in classify(dec)
                   if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
        result = solve_spectrum(dec, rep)
        coeffs = rebuild_coefficients(dec)
        samples = default_sample_points(coeffs.a2)
        for pair in result.pairs:
            y = pair.eigenfunction.as_monomial_sum()
            residual_for_coefficients(coeffs.with_accessory(pair.q), y, samples)


def test_the_library_scores_a_series_as_the_cli_does():
    # Over series_long's grid (each preset at its own a, both ladders and
    # parities, K = 60 and 1000, q drawn as at seed 1): series and verify
    # score a series by cli._score_series, its exact recurrence rows plus
    # its truncation share.  That score is never below the sampled residual
    # that ode_residual finds on as_monomial_sum, beyond the sampled sum's
    # rounding (under one 2^-53 per term of the scale), so both reach one
    # verdict at 1e-8, inf for the four overflowed series.  The sum reuses
    # the series' cached exponents.
    rng = random.Random("series_long-1")
    overflowed = 0
    for preset, a in (("example1", 2.0), ("example2", 4.0), ("lame", -3.0)):
        for cls in (POS, NEG):
            for parity in ("even", "odd"):
                for K in (60, 1000):
                    q = round(rng.uniform(-1.0, 1.0), 6)
                    for _ in range(25):  # the bench draws 25 evaluation points
                        rng.uniform(0.0, 1.0)
                    params, sol = preset_case(preset, a, q, cls, parity, K)
                    y = sol.as_monomial_sum()
                    assert y.exponents is sol.exponents
                    lo, hi = sol.domain
                    domain = (0.0, 0.5 * hi) if cls is POS else (2.0 * lo, 4.0 * lo)
                    sampled = ode_residual(params, y, domain=domain).max_relative_residual
                    (worst,), _, _ = _score_series(canonical_coefficients(params), sol)
                    where = (preset, a, cls.value, parity, K, q, sampled, worst)
                    assert sampled <= worst + 8 * (K + 1) * 2.0**-53, where
                    assert (sampled <= 1e-8) == (worst <= 1e-8), where
                    overflowed += worst == math.inf
    assert overflowed == 4


def bits(values):
    """The bit patterns of some floats, which tell -0.0 from 0.0."""
    return np.array(values, dtype=float).view(np.uint64).tolist()


def assert_full_sum(monkeypatch, coeffs, y, samples):
    """The report of y is the full sum's, bit for bit, residuals and scales."""
    report = residual_for_coefficients(coeffs, y, samples)
    full = full_sum(monkeypatch, coeffs, y, samples)
    assert bits(report.residuals) == bits(full.residuals)
    assert bits(report.scales) == bits(full.scales)
    assert bits([report.max_relative_residual]) == bits([full.max_relative_residual])


def k100_case():
    """example1's ascending K=100 series at a = 2, which the prefix rule
    cuts at its samples, with its coefficients and those samples."""
    params, sol = preset_case("example1", 2.0, 0.3, POS, "even", 100)
    return canonical_coefficients(params), sol.as_monomial_sum(), solution_samples(2.0, sol.domain)


@pytest.mark.parametrize("case", ["half-steps", "not-monotone", "samples-above-1", "edge-underflows"])
def test_a_column_outside_the_prefix_rule_keeps_the_full_sum(case, monkeypatch):
    # A long real column whose exponents step by 1/2, or not in one
    # direction, whose ascending powers do not fall at samples above 1, or
    # whose edge sample 2 max z is at most 2^-1021: the rule does not apply,
    # so tail_cut is never asked, and the residuals are the full sum's.
    coeffs, y, samples = k100_case()
    if case == "half-steps":
        y = y._replace(exponents=tuple(0.5 * p for p in y.exponents))
    elif case == "not-monotone":
        p = list(y.exponents)
        p[10], p[11] = p[11], p[10]
        y = y._replace(exponents=tuple(p))
    elif case == "samples-above-1":
        samples = (1.2, 1.5)
    else:
        samples = (1e-308, 2e-308)
    cuts = record(monkeypatch, "tail_cut")
    assert_full_sum(monkeypatch, coeffs, y, samples)
    assert cuts == []


def test_a_prefix_over_its_scale_bound_is_refused(monkeypatch):
    # With the accepted bound D <= 2^-10000 scale_k, which is 0.0, the cut
    # that tail_cut finds is refused: the prefix is scored, then the full
    # sum, and the residuals are the full sum's.
    coeffs, y, samples = k100_case()
    monkeypatch.setattr(verifier, "_PREFIX_LOG2_SCALE", -1e4)
    cuts = record(monkeypatch, "tail_cut")
    powers = record_powers(monkeypatch)
    assert_full_sum(monkeypatch, coeffs, y, samples)
    k = cuts[0][0]
    assert k < len(y.exponents)
    assert powers == [k, len(y.exponents), len(y.exponents)]


def test_tail_cut_refuses_an_exponent_of_2_to_the_32(monkeypatch):
    # The certified error bound holds for |p| < 2^32 only: a column whose
    # last exponent is 2^32 gets no cut, and its residuals are the full sum's.
    coeffs, y, samples = k100_case()
    y = y._replace(exponents=(*y.exponents[:70], 2.0**32), coeffs=y.coeffs[:71])
    cuts = record(monkeypatch, "tail_cut")
    assert_full_sum(monkeypatch, coeffs, y, samples)
    assert cuts == [None]
