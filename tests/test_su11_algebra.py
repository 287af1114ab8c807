import math
import random
from decimal import Decimal

import numpy as np
import pytest

from heun_su11.errors import ValidationError
from heun_su11 import su11_algebra
from heun_su11.cli import PRESETS, RECONSTRUCTION_THRESHOLD
from heun_su11.heun_core import canonical_coefficients, lame_parameters, make_parameters
from heun_su11.su11_algebra import (
    NU_BY_GAMMA,
    Su11Decomposition,
    algebra_identity_check,
    casimir_value,
    check_factorizable,
    decompose,
    lowering,
    quadratic_rows,
    raising,
    rebuild_coefficients,
    reconstruction_check,
    weight,
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


def random_half_step_exponents(rng, count=10):
    return rng.choice(np.arange(-6, 7) * 0.5, size=count, replace=False)


def test_generators_shift_degree_by_half_steps():
    # E+E+ z^p lands on z^(p+1) and E-E- z^p on z^(p-1), each the product of
    # the generators' factors at p and at the half step they moved to.
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = float(rng.integers(-6, 7) * 0.5)
        mu, nu = float(rng.standard_normal()), float(rng.standard_normal())
        assert abs(raising(mu, p) - (2 * p + 2 * mu)) <= 1e-14
        assert abs(lowering(nu, p) - (2 * p + 2 * nu)) <= 1e-14
        assert abs(weight(mu, nu, p) - (2 * p + mu + nu)) <= 1e-14
        unit = Su11Decomposition(mu, nu, 1.0, 1.0, 0.0, 0.0, 0.0, casimir_value(mu, nu))
        up, same, down = quadratic_rows(unit, p)
        assert up == raising(mu, p + 0.5) * raising(mu, p)
        assert down == lowering(nu, p - 0.5) * lowering(nu, p)
        assert same == 0.0


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
    assert check_factorizable(make_parameters(**EXAMPLE1)).describe() == "factorizable"


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
    with pytest.raises(ValidationError, match=r"^not factorizable: \|alpha-beta\|=0 is off 1/2 by "
                       r"5\.000e-01, over the rounding bound 4\.441e-16 of alpha and beta; "
                       r"gamma=1 is off \{1/2, 3/2\} by 5\.000e-01$"):
        decompose(p)
    assert set(check_factorizable(p).failures) == {"exponent_gap", "gamma"}


def test_zero_tolerance_accepts_every_exactly_factorizable_input():
    # check_factorizable is the one gate: it accepts every gamma of exactly
    # 1/2 or 3/2 with beta - alpha == 0.5 in floats at zero deviation, and
    # nu follows gamma.
    rng = random.Random(1409)
    for _ in range(3000):
        alpha = rng.uniform(-3.0, 3.0)
        beta = alpha + 0.5
        assert beta - alpha == 0.5
        gamma = rng.choice([0.5, 1.5])
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        p = make_parameters(gamma, rng.uniform(-2.0, 2.0), alpha, beta, a, rng.uniform(-5.0, 5.0))
        report = check_factorizable(p)
        assert (report.gap_deviation, report.gamma_deviation) == (0.0, 0.0)
        dec = decompose(p)
        assert dec.nu == (0.5 if gamma == 1.5 else 0.0)


@pytest.mark.sweep
def test_gate_accepts_decimal_half_gaps_and_refuses_what_rounding_cannot_explain(seed):
    # Decimal alpha with 0-9 fractional digits, |alpha| up to 1e8, and beta =
    # alpha +/- 1/2 written as a decimal: each float is the decimal rounded,
    # so the float gap is not always 1/2, yet every draw is factorizable.  The
    # gate still refuses gamma one ulp off 1/2 or 3/2, and beta moved by four
    # times the rounding bound.
    rng = random.Random(seed)
    inexact = 0
    for _ in range(5000):
        digits = rng.randint(0, 9)
        alpha = Decimal(rng.randrange(10 ** rng.randint(1, 8 + digits))).scaleb(-digits)
        alpha *= rng.choice((-1, 1))
        beta = alpha + rng.choice((Decimal("-0.5"), Decimal("0.5")))
        gamma = rng.choice(("0.5", "1.5"))
        params = make_parameters(float(gamma), -0.5, float(format(alpha, "f")),
                                 float(format(beta, "f")), 2.0, 0.3)
        dec = decompose(params)
        assert dec.nu == NU_BY_GAMMA[params.gamma]
        inexact += check_factorizable(params).gap_deviation > 0.0
        for g in (0.5, 1.5):
            for off in (math.nextafter(g, -math.inf), math.nextafter(g, math.inf)):
                assert check_factorizable(params._replace(gamma=off)).failures == ("gamma",)
        moved = 4.0 * (math.ulp(params.alpha) + math.ulp(params.beta))
        for beta_off in (params.beta - moved, params.beta + moved):
            report = check_factorizable(params._replace(beta=beta_off))
            assert report.failures == ("exponent_gap",), report
    assert inexact > 0


def test_rebuild_roundtrip_random():
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = random_factorizable(rng)
        c = canonical_coefficients(p)
        back = rebuild_coefficients(decompose(p))
        for x, y in zip(c, back):
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
        expected = (dec.up(p), dec.diag_base(p) - dec.accessory_q, dec.down(p))
        for got, want in zip(quadratic_rows(dec, p), expected):
            assert abs(got - want) <= 1e-12


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
    # The monomials of y = z + sqrt(a), which solves the a = 4 equation at
    # q = 1 (its annihilation is test_verifier's exact-solution test).
    a = 4.0
    p1 = make_parameters(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=a, q=1.0)
    assert reconstruction_check(p1, decompose(p1), [1.0, 0.0]) <= 1e-12


def test_reconstruction_check_random_polynomials():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        p = random_factorizable(rng)
        dec = decompose(p)
        assert reconstruction_check(p, dec, random_half_step_exponents(rng)) <= 1e-10


CLI_EXPONENTS = [-3.0 + 0.5 * i for i in range(13)]


def preset_parameters(name):
    preset = PRESETS[name]
    if "rho" in preset:
        return lame_parameters(preset["rho"], preset["a"], preset["q"])
    return make_parameters(**preset)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("field", ["c_plus", "c_minus", "c2", "c1", "c0"])
def test_reconstruction_fails_a_planted_coefficient_error(preset, field):
    # Scored one monomial at a time, a decomposition coefficient that is off
    # by 1e-9 still deviates beyond the threshold on check-algebra's exponents.
    params = preset_parameters(preset)
    dec = decompose(params)
    assert reconstruction_check(params, dec, CLI_EXPONENTS) <= 1e-14
    planted = dec._replace(**{field: getattr(dec, field) + 1e-9})
    assert reconstruction_check(params, planted, CLI_EXPONENTS) > RECONSTRUCTION_THRESHOLD


# An n=128 ladder at a = 1e6, where c0 is about 9.8e8 and its rounding
# alone exceeded the old absolute reconstruction threshold.
LADDER_A_1E6 = dict(gamma=0.5, delta=-0.5, alpha=-63.5, beta=-63.0, a=1e6, q=0.7)


@pytest.mark.parametrize("field", ["c_plus", "c_minus", "c2", "c1", "c0"])
def test_reconstruction_fails_a_relative_plant_at_a_1e6(field):
    # Each row is measured against its own terms, so the exact coefficients
    # pass at a = 1e6, and one moved by 1e-9 of itself still fails.
    params = make_parameters(**LADDER_A_1E6)
    dec = decompose(params)
    assert reconstruction_check(params, dec, CLI_EXPONENTS) <= 1e-15
    planted = dec._replace(**{field: getattr(dec, field) * (1.0 + 1e-9)})
    assert reconstruction_check(params, planted, CLI_EXPONENTS) > RECONSTRUCTION_THRESHOLD


def test_reconstruction_holds_a_vanishing_row_to_an_absolute_bound():
    # mu is one ulp off 3, so at p = -3 the factored row c+ E+E+ is 4.4e-16
    # and the canonical one a rounding residue of -1.8e-15: against its own
    # size that row is off by 5, but its terms are far below 1, so it is
    # held to an absolute bound and passes.
    params = make_parameters(0.5, -0.5, 3.000000000000001, 3.500000000000001, 2.0, 0.0)
    assert reconstruction_check(params, decompose(params), CLI_EXPONENTS) <= 1e-14


@pytest.mark.parametrize("mu", [100.3, 1000.0, 1e6])
def test_identities_of_large_generators_pass_and_a_wrong_casimir_fails(mu, monkeypatch):
    # The identities' terms grow like mu^2, and each is measured against
    # them: exact generators pass at any mu, and a Casimir off by 1e-9 of
    # itself fails the 1e-12 threshold.
    assert algebra_identity_check(mu, 0.3, CLI_EXPONENTS) <= 1e-15
    right = casimir_value
    monkeypatch.setattr(su11_algebra, "casimir_value", lambda m, n: right(m, n) * (1.0 + 1e-9))
    assert algebra_identity_check(mu, 0.3, CLI_EXPONENTS) > 1e-12


def test_algebra_identities_are_nan_at_mu_1e308():
    # inf - inf in every identity: the NaN must reach the caller, where max()
    # would drop a NaN that is not its first argument.
    assert math.isnan(algebra_identity_check(1e308, -1e308, CLI_EXPONENTS))
    assert math.isnan(algebra_identity_check(0.0, 0.0, [0.0, math.nan]))


def test_reconstruction_check_is_nan_when_any_row_is():
    params = make_parameters(**EXAMPLE1)
    dec = decompose(params)._replace(c_minus=math.nan)
    assert math.isnan(reconstruction_check(params, dec, CLI_EXPONENTS))
    assert reconstruction_check(params, decompose(params), []) == 0.0


def test_decomposition_json_roundtrip():
    dec = decompose(make_parameters(**EXAMPLE2))
    assert type(dec).from_json_dict(dec.to_json_dict()) == dec


def test_decomposition_reader_checks_the_casimir():
    # The record checks its own invariant, in the library as in the CLI: a
    # stored Casimir that disagrees with mu and nu is refused.
    doc = dict(mu=-0.5, nu=0.0, c_plus=0.25, c_minus=0.5, c2=-0.75, c1=0.0, c0=0.0,
               casimir=casimir_value(-0.5, 0.0))
    assert Su11Decomposition.from_json_dict(doc).to_json_dict() == doc
    for casimir in (123, doc["casimir"] + 2e-9):
        with pytest.raises(ValidationError, match=f"stored casimir {float(casimir)!r} "
                           r"does not match mu, nu \(expected -0.75\)"):
            Su11Decomposition.from_json_dict({**doc, "casimir": casimir})
    with pytest.raises(ValidationError, match="non-finite input: c1=nan"):
        Su11Decomposition.from_json_dict({**doc, "c1": None})
    with pytest.raises(TypeError, match="expected a number, got 'nan'"):
        Su11Decomposition.from_json_dict({**doc, "c1": "nan"})
