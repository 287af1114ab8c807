import math
import random

import numpy as np
import pytest

from heun_su11.errors import NotFactorizable
from heun_su11.heun_core import (
    canonical_coefficients,
    lame_parameters,
    make_parameters,
    second_order_action,
)
from heun_su11.monomials import MonomialSum
from heun_su11.su11_algebra import (
    algebra_identity_check,
    apply_lowering,
    apply_quadratic,
    apply_raising,
    apply_weight,
    check_factorizable,
    decompose,
    rebuild_coefficients,
    reconstruction_check,
)

EXAMPLE1 = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=2.0, q=0.0)
EXAMPLE2 = dict(gamma=1.5, delta=-0.5, alpha=-0.5, beta=0.0, a=2.0, q=0.0)


def random_factorizable(rng, a=None, q=None):
    """Random parameter set satisfying both factorization conditions."""
    gamma = float(rng.choice([0.5, 1.5]))
    delta = float(rng.uniform(-2.0, 2.0))
    alpha = float(rng.uniform(-2.0, 2.0))
    beta = alpha + float(rng.choice([-0.5, 0.5]))
    if a is None:
        a = float(rng.uniform(0.2, 3.0))
        while abs(a - 1.0) < 1e-3:
            a = float(rng.uniform(0.2, 3.0))
    if q is None:
        q = float(rng.uniform(-2.0, 2.0))
    return make_parameters(gamma, delta, alpha, beta, a, q)


def random_half_step_poly(rng, count=10):
    exps = rng.choice(np.arange(-6, 7) * 0.5, size=count, replace=False)
    return MonomialSum.from_terms(zip(exps, rng.standard_normal(count)))


def test_generators_shift_degree_by_half_steps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = float(rng.integers(-6, 7) * 0.5)
        mu, nu = float(rng.standard_normal()), float(rng.standard_normal())
        y = MonomialSum.monomial(p)
        up = apply_raising(mu, y).terms()
        down = apply_lowering(nu, y).terms()
        level = apply_weight(mu, nu, y).terms()
        if up:
            assert up[0][0] == p + 0.5
            assert abs(up[0][1] - (2 * p + 2 * mu)) <= 1e-14
        if down:
            assert down[0][0] == p - 0.5
            assert abs(down[0][1] - (2 * p + 2 * nu)) <= 1e-14
        if level:
            assert level[0][0] == p
            assert abs(level[0][1] - (2 * p + mu + nu)) <= 1e-14


def test_algebra_identities_on_fixed_points():
    assert algebra_identity_check(-1.0, 0.0, [0.0, 0.5, 1.0]) <= 1e-12
    grid = [x * 0.5 for x in range(-6, 7)]
    assert algebra_identity_check(0.37, -2.2, grid) <= 1e-12


def test_casimir_vanishes_for_equal_parameters():
    assert algebra_identity_check(0.25, 0.25, [0.0, 1.5, -2.0]) <= 1e-12


def test_algebra_identities_random_triples():
    rng = np.random.default_rng(202)
    for _ in range(100):
        mu = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.uniform(-3.0, 3.0))
        p = float(rng.integers(-8, 9) * 0.5)
        assert algebra_identity_check(mu, nu, [p]) <= 1e-12


def test_check_factorizable_accepts_examples():
    assert check_factorizable(make_parameters(**EXAMPLE1)).accepted
    assert check_factorizable(make_parameters(**EXAMPLE2)).accepted
    assert check_factorizable(lame_parameters(0.0, 2.0, 1.0)).accepted


def test_check_factorizable_reports_both_failures():
    p = make_parameters(gamma=1.0, delta=1.0, alpha=1.0, beta=1.0, a=2.0, q=0.0)
    report = check_factorizable(p)
    assert not report.accepted
    assert set(report.failures) == {"exponent_gap", "gamma"}
    assert report.exponent_gap == 0.0
    assert report.gamma_deviation == pytest.approx(0.5)
    assert "not factorizable" in report.describe()


def test_check_factorizable_single_failures():
    only_gamma = make_parameters(gamma=1.0, delta=0.5, alpha=0.0, beta=0.5, a=2.0, q=0.0)
    assert check_factorizable(only_gamma).failures == ("gamma",)
    only_gap = make_parameters(gamma=0.5, delta=0.5, alpha=0.0, beta=0.75, a=2.0, q=0.0)
    assert check_factorizable(only_gap).failures == ("exponent_gap",)


def test_decompose_example1():
    dec = decompose(make_parameters(**EXAMPLE1))
    assert (dec.mu, dec.nu, dec.casimir) == (-1.0, 0.0, -2.0)
    assert (dec.c_plus, dec.c_minus, dec.c2) == (0.25, 0.5, -0.75)
    assert dec.c1 == 0.0
    assert dec.c0 == 0.75
    # coefficient-matching identities
    c = canonical_coefficients(make_parameters(**EXAMPLE1))
    s = dec.mu + dec.nu
    assert c.a4 == pytest.approx(2.0 * (dec.c1 + 2.0 * dec.c2 * (1.0 + s)), abs=1e-14)
    assert c.a7 == pytest.approx(dec.c0 + s * (dec.c1 + dec.c2 * s), abs=1e-14)


def test_decompose_example2():
    dec = decompose(make_parameters(**EXAMPLE2))
    assert (dec.mu, dec.nu, dec.casimir) == (-0.5, 0.5, -2.0)


def test_decompose_lame():
    for rho in (0.0, -1.0):
        dec = decompose(lame_parameters(rho, 2.0, 1.0))
        assert (dec.mu, dec.nu, dec.casimir) == (0.0, 0.0, 0.0)


def test_decompose_rejects_with_report():
    p = make_parameters(gamma=1.0, delta=1.0, alpha=1.0, beta=1.0, a=2.0, q=0.0)
    with pytest.raises(NotFactorizable) as info:
        decompose(p)
    assert set(info.value.report.failures) == {"exponent_gap", "gamma"}


def test_zero_tolerance_accepts_every_exactly_factorizable_input():
    # check_factorizable is the one gate: at tolerance 0 it accepts every
    # gamma of exactly 1/2 or 3/2 with beta - alpha == 0.5 in floats, and the
    # decomposition is the one the default tolerance gives.
    rng = random.Random(1409)
    for _ in range(3000):
        alpha = rng.uniform(-3.0, 3.0)
        beta = alpha + 0.5
        assert beta - alpha == 0.5
        gamma = rng.choice([0.5, 1.5])
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        p = make_parameters(gamma, rng.uniform(-2.0, 2.0), alpha, beta, a, rng.uniform(-5.0, 5.0))
        dec = decompose(p, 0.0)
        assert dec == decompose(p)
        assert dec.nu == (0.5 if gamma == 1.5 else 0.0)


def test_rebuild_roundtrip_random():
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = random_factorizable(rng)
        c = canonical_coefficients(p)
        back = rebuild_coefficients(decompose(p))
        for x, y in zip(c.as_tuple(), back.as_tuple()):
            assert x == pytest.approx(y, abs=1e-12)


def test_accessory_linearity_dyadic_exact():
    for q in (0.75, 2.5, -3.25, 0.0):
        base = decompose(make_parameters(**{**EXAMPLE1, "q": 0.0}))
        shifted = decompose(make_parameters(**{**EXAMPLE1, "q": q}))
        assert shifted.c0 - base.c0 == -q
        assert (shifted.mu, shifted.nu, shifted.c_plus, shifted.c_minus) == (
            base.mu,
            base.nu,
            base.c_plus,
            base.c_minus,
        )
        assert (shifted.c2, shifted.c1, shifted.casimir) == (
            base.c2,
            base.c1,
            base.casimir,
        )


def test_accessory_linearity_random_near_exact():
    rng = np.random.default_rng(77)
    for _ in range(20):
        q = float(rng.uniform(-5.0, 5.0))
        p = random_factorizable(rng, q=q)
        with_q = decompose(p)
        without_q = decompose(p.with_accessory(0.0))
        tol = max(4.0 * abs(q) * 2.3e-16, 1e-15)
        assert with_q.c0 - without_q.c0 == pytest.approx(-q, abs=tol)


def test_boundary_annihilation_exact():
    rng = np.random.default_rng(17)
    for _ in range(20):
        dec = decompose(random_factorizable(rng))
        assert dec.up(-dec.mu) == 0.0
        assert dec.down(-dec.nu) == 0.0
        assert abs(dec.up(-dec.mu - 0.5)) <= 1e-12
        assert abs(dec.down(-dec.nu + 0.5)) <= 1e-12


def test_ladder_action_matches_quadratic_application():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dec = decompose(random_factorizable(rng))
        p = float(rng.integers(-4, 5) * 0.5)
        y = MonomialSum.monomial(p)
        expected = MonomialSum.from_terms(
            [
                (p + 1.0, dec.up(p)),
                (p, dec.diag_base(p) - dec.accessory_q),
                (p - 1.0, dec.down(p)),
            ],
            base=p,
        )
        assert apply_quadratic(dec, y).max_abs_diff(expected) <= 1e-12


def test_ladder_action_example1_odd_point():
    dec = decompose(make_parameters(**EXAMPLE1))
    a = 4.0 * dec.c_minus
    assert dec.up(0.5) == 0.0
    assert dec.down(0.5) == 0.0
    # with the accessory set to (a+1)/4 the diagonal vanishes: sqrt(z) solves
    assert dec.diag_base(0.5) == pytest.approx((a + 1.0) / 4.0, abs=1e-14)


def test_ladder_action_lame_singlet():
    dec = decompose(lame_parameters(0.0, 2.0, 1.5))
    assert dec.up(0.0) == 0.0
    assert dec.down(0.0) == 0.0
    assert dec.diag_base(0.0) - dec.accessory_q == -1.5
    assert dec.accessory_q == pytest.approx(1.5, abs=1e-14)


def test_reconstruction_check_example_solutions():
    # On an actual eigenfunction the canonical operator must annihilate it.
    a = 4.0
    p1 = make_parameters(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=a, q=1.0)
    y = MonomialSum.from_terms([(1.0, 1.0), (0.0, math.sqrt(a))])
    dec = decompose(p1)
    assert reconstruction_check(p1, dec, y) <= 1e-12
    f1_part, f2_part, f3_part = second_order_action(canonical_coefficients(p1), y)
    assert (f1_part + f2_part + f3_part).max_abs() <= 1e-12


def test_reconstruction_check_random_polynomials():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        p = random_factorizable(rng)
        dec = decompose(p)
        poly = random_half_step_poly(rng, count=10)
        assert reconstruction_check(p, dec, poly) <= 1e-10


def test_decomposition_json_roundtrip():
    dec = decompose(make_parameters(**EXAMPLE2))
    assert type(dec).from_json_dict(dec.to_json_dict()) == dec
