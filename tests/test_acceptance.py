"""End-to-end checks of the advertised guarantees, one test per criterion,
and a second for criterion 6: valid sets score far below a planted error.

Every test enforces its stated tolerance with plain asserts and prints one
PASS line with the measured worst case (visible under pytest -s; the pytest
report line itself is the per-criterion pass/fail record).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from heun_su11.heun_core import canonical_coefficients, lame_parameters, make_parameters
from heun_su11.representations import RepresentationClass, classify, split_even_odd
from heun_su11.series_engine import DESCENDING, series_solution
from heun_su11.spectrum import build_matrix, solve_spectrum
from heun_su11.su11_algebra import (
    algebra_identity_check,
    check_factorizable,
    decompose,
    rebuild_coefficients,
    reconstruction_check,
)
from heun_su11.verifier import default_sample_points, residual_for_coefficients
from oracle import check_eigenvalues

A_SET = (0.25, 2.0, 4.0)
SERIES_POINTS = ((2.0, 1.0), (0.5, -0.3))

EXAMPLE1 = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, q=0.0)
EXAMPLE2 = dict(gamma=1.5, delta=-0.5, alpha=-0.5, beta=0.0, q=0.0)


def finite_spectrum(base, a):
    params = make_parameters(a=a, **base)
    dec = decompose(params)
    rep = next(
        r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL
    )
    return dec, solve_spectrum(dec, rep)


def ladder_params(n, gamma, a):
    nu = {0.5: 0.0, 1.5: 0.5}[gamma]
    mu = nu - (n - 1) / 2.0
    alpha = mu
    return make_parameters(gamma, 0.3, alpha, alpha + 0.5, a, 0.0)


def closed_forms(a, q, parity):
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


def test_criterion_1_even_odd_spectrum_with_eigenfunctions():
    worst = 0.0
    started = time.perf_counter()
    for a in A_SET:
        dec, result = finite_spectrum(EXAMPLE1, a)
        root = math.sqrt(a)
        even = sorted(
            (p for p in result.pairs if p.parity == "even"), key=lambda p: p.q
        )
        odd = [p for p in result.pairs if p.parity == "odd"]
        for pair, target in zip(even, (-root / 2.0, root / 2.0)):
            assert pair.q == pytest.approx(target, abs=1e-10)
            worst = max(worst, abs(pair.q - target))
            b = pair.eigenfunction.coefficients
            assert pair.eigenfunction.p0 == 0.0 and len(b) == 2
            ratio_target = root if pair.q > 0 else -root
            assert b[0] / b[1] == pytest.approx(ratio_target, rel=1e-10)
            worst = max(worst, abs(b[0] / b[1] - ratio_target) / root)
        assert len(odd) == 1
        assert odd[0].q == pytest.approx((a + 1.0) / 4.0, abs=1e-10)
        worst = max(worst, abs(odd[0].q - (a + 1.0) / 4.0))
        assert odd[0].eigenfunction.p0 == 0.5
        assert odd[0].eigenfunction.coefficients == (1.0,)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS - worst error {worst:.2e} (tol 1e-10), "
        f"runtime {elapsed * 1e3:.0f} ms (< 1 s)"
    )


def test_criterion_2_shifted_spectrum_with_constant_mode():
    worst = 0.0
    for a in A_SET:
        dec, result = finite_spectrum(EXAMPLE2, a)
        root = math.sqrt(a)
        shift = -(a + 1.0) / 4.0
        even = sorted(p.q for p in result.pairs if p.parity == "even")
        expected = sorted((shift - root / 2.0, shift + root / 2.0))
        for got, want in zip(even, expected):
            assert got == pytest.approx(want, abs=1e-10)
            worst = max(worst, abs(got - want))
        odd = [p for p in result.pairs if p.parity == "odd"]
        assert len(odd) == 1
        assert odd[0].q == pytest.approx(0.0, abs=1e-10)
        assert odd[0].eigenfunction.p0 == 0.0
        assert odd[0].eigenfunction.coefficients == (1.0,)
        worst = max(worst, abs(odd[0].q))
    print(f"criterion 2: PASS - worst eigenvalue error {worst:.2e} (tol 1e-10)")


def test_criterion_3_series_closed_forms():
    worst = 0.0
    for a, q in SERIES_POINTS:
        dec = decompose(lame_parameters(0.0, a, q))
        reps = {r.rep_class: r for r in classify(dec)}
        for parity in ("even", "odd"):
            asc = series_solution(
                dec, reps[RepresentationClass.POSITIVE_DISCRETE], parity, q
            )
            desc = series_solution(
                dec, reps[RepresentationClass.NEGATIVE_DISCRETE], parity, q
            )
            for m, value in enumerate(closed_forms(a, q, parity), start=1):
                for computed, want in (
                    (asc.coefficients[m], value),
                    (desc.coefficients[m], a**m * value),
                ):
                    assert computed == pytest.approx(want, rel=1e-12)
                    worst = max(worst, abs(computed - want) / abs(want))
    print(f"criterion 3: PASS - worst relative coefficient error {worst:.2e} (tol 1e-12)")


def _edge_residual(a, q, p0, direction, truncation, z_ladder):
    """Exact-rational residual magnitude of the truncated series: the two
    image terms past the kept range, weighted by ladder-variable powers."""
    a_r, q_r = Fraction(a), Fraction(q)

    def up(p):
        return p * (2 * p + 1) / 2

    def down(p):
        return a_r * p * (2 * p - 1) / 2

    def diag(p):
        return -(a_r + 1) * p * p

    if direction == DESCENDING:
        sign, inward, divisor = -1, down, up
        in_shift, div_shift = 1, -1
    else:
        sign, inward, divisor = 1, up, down
        in_shift, div_shift = -1, 1
    b = [Fraction(1)]
    for m in range(truncation):
        p = p0 + sign * m
        prev = b[m - 1] if m >= 1 else Fraction(0)
        b.append(-(inward(p + in_shift) * prev + (diag(p) - q_r) * b[m]) / divisor(p + div_shift))
    p_edge = p0 + sign * truncation
    r_edge = inward(p_edge + in_shift) * b[truncation - 1] + (diag(p_edge) - q_r) * b[truncation]
    r_past = inward(p_edge + sign + in_shift) * b[truncation]
    return abs(r_edge) * z_ladder**truncation + abs(r_past) * z_ladder ** (truncation + 1)


def test_criterion_4_ode_residuals():
    worst_poly = 0.0
    for base in (EXAMPLE1, EXAMPLE2):
        for a in A_SET:
            dec, result = finite_spectrum(base, a)
            points = default_sample_points(4.0 * dec.c_minus)
            assert len(points) == 25
            rebuilt = rebuild_coefficients(dec)
            for pair in result.pairs:
                report = residual_for_coefficients(
                    rebuilt.with_accessory(pair.q),
                    pair.eigenfunction.as_monomial_sum(),
                    points,
                )
                assert report.max_relative_residual <= 1e-12
                worst_poly = max(worst_poly, report.max_relative_residual)
    worst_series = 0.0
    least_shrink = math.inf
    for a, q in SERIES_POINTS:
        params = lame_parameters(0.0, a, q)
        coeffs = canonical_coefficients(params)
        dec = decompose(params)
        reps = {r.rep_class: r for r in classify(dec)}
        for cls in (
            RepresentationClass.POSITIVE_DISCRETE,
            RepresentationClass.NEGATIVE_DISCRETE,
        ):
            for parity in ("even", "odd"):
                sol = series_solution(dec, reps[cls], parity, q, truncation=60)
                if sol.direction == DESCENDING:
                    z_half = 2.0 * max(1.0, abs(a))
                    z_ladder = 1 / Fraction(z_half)
                else:
                    z_half = min(1.0, abs(a)) / 2.0
                    z_ladder = Fraction(z_half)
                report = residual_for_coefficients(coeffs, sol.as_monomial_sum(), [z_half])
                assert report.max_relative_residual <= 1e-8
                worst_series = max(worst_series, report.max_relative_residual)
                # truncation decay is invisible at float roundoff, so the
                # K -> 2K shrink is checked on the exact rational residual
                p0 = Fraction(sol.p0)
                s60 = _edge_residual(a, q, p0, sol.direction, 60, z_ladder)
                s120 = _edge_residual(a, q, p0, sol.direction, 120, z_ladder)
                assert s120 * 10 <= s60
                least_shrink = min(least_shrink, s60 / s120)
    print(
        f"criterion 4: PASS - polynomial residual {worst_poly:.2e} (tol 1e-12), "
        f"series residual {worst_series:.2e} (tol 1e-8), "
        f"least K=60->120 shrink {float(least_shrink):.1e}x (>= 10x)"
    )


def test_criterion_5_algebra_identities():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        mu = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.uniform(-3.0, 3.0))
        p = float(rng.uniform(-4.0, 4.0))
        worst = max(worst, algebra_identity_check(mu, nu, [p]))
    assert worst <= 1e-12
    print(f"criterion 5: PASS - worst identity deviation {worst:.2e} on 100 triples (tol 1e-12)")


def criterion_6_sets(count):
    """(params, decomposition, test exponents) of count random factorizable sets."""
    rng = np.random.default_rng(20260806)
    for _ in range(count):
        gamma = float(rng.choice([0.5, 1.5]))
        alpha = float(rng.uniform(-2.0, 2.0))
        a = float(rng.uniform(1.2, 3.0))
        params = make_parameters(
            gamma,
            float(rng.uniform(-2.0, 2.0)),
            alpha,
            alpha + float(rng.choice([-0.5, 0.5])),
            a,
            float(rng.uniform(-2.0, 2.0)),
        )
        exponents = rng.choice(np.arange(-6, 7) * 0.5, size=10, replace=False)
        rng.uniform(-2.0, 2.0, size=10)  # unused weights: drawn to keep the sets as they were
        yield params, decompose(params), exponents


def test_criterion_6_reconstruction():
    worst = max(reconstruction_check(*drawn) for drawn in criterion_6_sets(50))
    assert worst <= 1e-10
    print(f"criterion 6: PASS - worst reconstruction deviation {worst:.2e} on 50 sets (tol 1e-10)")


def test_criterion_6_valid_sets_stay_far_below_planted_errors():
    # Scored one monomial at a time, every valid set stays at rounding level
    # (2.13e-14 at worst over these 2000 sets), far below the 1e-9 that one
    # planted coefficient error scores at least (test_su11_algebra).
    worst = max(reconstruction_check(*drawn) for drawn in criterion_6_sets(2000))
    assert worst <= 1e-13
    print(f"criterion 6: PASS - worst valid-set deviation {worst:.2e} on 2000 sets (tol 1e-13)")


def test_criterion_7_gating():
    rng = np.random.default_rng(20260807)
    for i in range(50):
        mode = i % 3
        gamma = float(rng.choice([0.5, 1.5]))
        gap = 0.5
        expected = set()
        if mode in (0, 2):
            gap += float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.05, 0.4))
            expected.add("exponent_gap")
        if mode in (1, 2):
            gamma += float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.05, 0.3))
            expected.add("gamma")
        alpha = float(rng.uniform(-2.0, 2.0))
        params = make_parameters(
            gamma,
            float(rng.uniform(-2.0, 2.0)),
            alpha,
            alpha + gap,
            float(rng.uniform(1.5, 3.0)),
            0.0,
        )
        report = check_factorizable(params)
        assert report.accepted is False
        assert set(report.failures) == expected
    for params in (
        make_parameters(a=2.0, **EXAMPLE1),
        make_parameters(a=2.0, **EXAMPLE2),
        lame_parameters(0.0, 2.0, 0.0),
    ):
        assert check_factorizable(params).accepted is True
    print("criterion 7: PASS - 50 violating sets rejected with exact reason codes, 3 examples accepted")


def test_criterion_8_oracle_equivalence():
    """The Sturm count certifies every solver eigenvalue within 1e-10 on
    every sub-grid, up to the dimension-64 sub-grids of the n=128 ladders."""
    decs = [decompose(make_parameters(a=a, **base)) for base in (EXAMPLE1, EXAMPLE2) for a in A_SET]
    decs += [
        decompose(ladder_params(n, gamma, 2.0))
        for n in (4, 7, 11, 16, 32, 64, 128)
        for gamma in (0.5, 1.5)
    ]
    decs.append(decompose(lame_parameters(0.0, 2.0, 0.0)))
    compared = 0
    for dec in decs:
        rep = next(
            r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL
        )
        result = solve_spectrum(dec, rep)
        split = split_even_odd(rep)
        for subgrid, parity in ((split.even, "even"), (split.odd, "odd")):
            if subgrid.size == 0:
                continue
            solver = [pair.q for pair in result.pairs if pair.parity == parity]
            check_eigenvalues(build_matrix(dec, subgrid), solver, tol=1e-10)
            compared += 1
    assert compared >= 41
    print(
        f"criterion 8: PASS - every solver eigenvalue within 1e-10 of the Sturm "
        f"count over {compared} matrices, up to dimension 64"
    )
