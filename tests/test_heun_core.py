import math
from fractions import Fraction

import numpy as np
import pytest

from heun_su11.errors import ValidationError
from heun_su11.heun_core import (
    CanonicalCoefficients,
    canonical_coefficients,
    canonical_rows,
    lame_parameters,
    make_parameters,
    row_matrix,
)

EXAMPLE1 = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=2.0, q=0.0)
EXAMPLE2 = dict(gamma=1.5, delta=-0.5, alpha=-0.5, beta=0.0, a=2.0, q=0.0)


def second_coefficients_by_expansion(params):
    """Independent route to (a3, a4, a5): expand
    gamma (z-1)(z-a) + delta z (z-a) + epsilon z (z-1)."""
    g, d, e, a = params.gamma, params.delta, params.epsilon, params.a
    a3 = g + d + e
    a4 = -(g * (a + 1.0) + d * a + e)
    a5 = g * a
    return a3, a4, a5


def random_parameters(rng):
    gamma = float(rng.uniform(-2.0, 2.0))
    delta = float(rng.uniform(-2.0, 2.0))
    alpha = float(rng.uniform(-2.0, 2.0))
    beta = float(rng.uniform(-2.0, 2.0))
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
    while a in (0.0, 1.0):
        a = float(rng.uniform(1.1, 3.0))
    q = float(rng.uniform(-2.0, 2.0))
    return make_parameters(gamma, delta, alpha, beta, a, q)


def test_epsilon_filled_from_exponent_balance():
    p = make_parameters(**EXAMPLE1)
    assert p.epsilon == -0.5
    p = make_parameters(**EXAMPLE2)
    assert p.epsilon == -0.5


def test_supplied_epsilon_must_be_consistent():
    p = make_parameters(epsilon=-0.5 + 1e-10, **EXAMPLE1)
    assert p.epsilon == -0.5  # recomputed, not the supplied value
    with pytest.raises(ValidationError,
                       match=r"alpha\+beta\+1\) = 1\.000e-06 exceeds tolerance 1e-09"):
        make_parameters(epsilon=-0.5 + 1e-6, **EXAMPLE1)


def test_alpha_beta_stored_sorted():
    p = make_parameters(gamma=0.5, delta=-0.5, alpha=-0.5, beta=-1.0, a=2.0, q=0.0)
    assert (p.alpha, p.beta) == (-1.0, -0.5)


def test_degenerate_singularity_rejected():
    with pytest.raises(ValidationError, match="a=0.0 collides with a fixed singular point"):
        make_parameters(gamma=1.0, delta=1.0, alpha=1.0, beta=1.0, a=0.0, q=0.0)
    with pytest.raises(ValidationError, match="a=1.0 collides with a fixed singular point"):
        make_parameters(gamma=1.0, delta=1.0, alpha=1.0, beta=1.0, a=1.0, q=0.0)


def test_canonical_coefficients_example1():
    c = canonical_coefficients(make_parameters(**EXAMPLE1))
    assert tuple(c) == (1.0, -3.0, 2.0, -0.5, 0.0, 1.0, 0.5, 0.0)


def test_canonical_coefficients_lame_preset():
    c = canonical_coefficients(lame_parameters(0.0, 2.0, 1.0))
    assert (c.a3, c.a4, c.a5, c.a6, c.a7) == (1.5, -3.0, 1.0, 0.0, -1.0)


def test_accessory_enters_only_a7():
    p0 = make_parameters(**EXAMPLE1)
    p1 = p0.with_accessory(2.5)
    c0, c1 = canonical_coefficients(p0), canonical_coefficients(p1)
    assert c1.a7 == -2.5
    assert c0[:7] == c1[:7]


def test_first_order_coefficients_match_expansion_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = random_parameters(rng)
        c = canonical_coefficients(p)
        a3, a4, a5 = second_coefficients_by_expansion(p)
        assert c.a3 == pytest.approx(a3, abs=1e-12)
        assert c.a4 == pytest.approx(a4, abs=1e-12)
        assert c.a5 == pytest.approx(a5, abs=1e-12)
        assert c.a0 == 1.0


def test_lame_parameters_exponents():
    p = lame_parameters(0.0, 2.0, 1.0)
    assert (p.gamma, p.delta, p.epsilon) == (0.5, 0.5, 0.5)
    assert (p.alpha, p.beta) == (0.0, 0.5)
    # rho and -1-rho give the same exponent product
    p2 = lame_parameters(-1.0, 2.0, 1.0)
    assert (p2.alpha, p2.beta) == (0.0, 0.5)


def test_lame_parameters_complex_roots_rejected():
    with pytest.raises(ValidationError, match="exponents at infinity are complex for rho=1.0"):
        lame_parameters(1.0, 2.0, 0.0)


def test_canonical_action_against_pointwise_evaluation():
    # Oracle: f1 y'' + f2 y' + f3 y on y = z^p, evaluated numerically from
    # the polynomial form, equals the three rows on z^(p+1), z^p, z^(p-1).
    rng = np.random.default_rng(99)
    for _ in range(30):
        c = canonical_coefficients(random_parameters(rng))
        p = float(rng.integers(-6, 7) * 0.5)
        z = float(rng.uniform(0.3, 2.5))
        f1 = z**3 + c.a1 * z**2 + c.a2 * z
        f2 = c.a3 * z**2 + c.a4 * z + c.a5
        f3 = c.a6 * z + c.a7
        direct = f1 * p * (p - 1.0) * z ** (p - 2.0) + f2 * p * z ** (p - 1.0) + f3 * z**p
        up, same, down = canonical_rows(c, p)
        rows = up * z ** (p + 1.0) + same * z**p + down * z ** (p - 1.0)
        assert math.isclose(rows, direct, rel_tol=1e-11, abs_tol=1e-11)


def test_second_order_action_parts_sum_to_action():
    # Oracle: on z^p, f1 y'' gives a0 p(p-1), a1 p(p-1), a2 p(p-1) on z^(p+1),
    # z^p, z^(p-1); f2 y' gives a3 p, a4 p, a5 p; f3 y gives a6 and a7 on the
    # first two.  Summed in exact rationals from example2's dyadic a's, the
    # float rows must match bit for bit.
    c = canonical_coefficients(make_parameters(**EXAMPLE2))
    a = [Fraction(v) for v in c]
    for k in range(-6, 7):
        p = Fraction(k, 2)
        f1, f2 = p * (p - 1), p
        expected = (
            a[0] * f1 + a[3] * f2 + a[6],
            a[1] * f1 + a[4] * f2 + a[7],
            a[2] * f1 + a[5] * f2,
        )
        assert canonical_rows(c, float(p)) == tuple(map(float, expected))
        # The same arithmetic on exact numbers stays exact.
        exact = canonical_rows(CanonicalCoefficients(*a), p)
        assert exact == expected and all(isinstance(row, Fraction) for row in exact)
        # row_matrix times the factors gives the same rows, exactly.
        matrix = row_matrix(CanonicalCoefficients(*a))
        assert tuple(sum(m * f for m, f in zip(row, (f1, f2, 1))) for row in matrix) == expected


def test_coefficients_json_roundtrip():
    c = canonical_coefficients(make_parameters(**EXAMPLE2))
    assert CanonicalCoefficients.from_json_dict(c.to_json_dict()) == c
