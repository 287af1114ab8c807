import math

import numpy as np
import pytest

from heun_su11.monomials import LATTICE_TOL, MonomialSum
from oracle import sum_by_terms


def test_monomial_roundtrip_terms():
    y = MonomialSum.monomial(1.5, 2.0)
    assert y.terms() == ((1.5, 2.0),)


def test_from_terms_merges_on_lattice():
    y = MonomialSum.from_terms([(0.0, 1.0), (0.5, 2.0), (0.5, 3.0), (1.0, -1.0)])
    assert y.terms() == ((0.0, 1.0), (0.5, 5.0), (1.0, -1.0))


def test_from_terms_rejects_off_lattice():
    with pytest.raises(ValueError):
        MonomialSum.from_terms([(0.0, 1.0), (0.3, 1.0)])


def test_from_terms_accepts_near_lattice_snap():
    y = MonomialSum.from_terms([(0.0, 1.0), (0.5 + LATTICE_TOL / 4, 1.0)])
    assert y.terms()[1][0] == 0.5


def test_addition_rebases_other_operand():
    f = MonomialSum.from_terms([(1.0, 2.0)], base=1.0)
    g = MonomialSum.from_terms([(1.5, 3.0)], base=0.5)
    assert (f + g).terms() == ((1.0, 2.0), (1.5, 3.0))


def test_subtraction_and_max_abs_diff():
    f = MonomialSum.from_terms([(0.0, 1.0), (1.0, 2.0)])
    g = MonomialSum.from_terms([(0.0, 1.0), (1.0, 2.5)])
    assert f.max_abs_diff(g) == 0.5
    assert (f - f).max_abs() == 0.0


def test_map_terms_shifts_and_weights():
    y = MonomialSum.from_terms([(1.0, 3.0)])
    out = y.map_terms(1, lambda p: 2.0 * p)
    assert out.terms() == ((1.5, 6.0),)


def test_map_terms_drops_zero_weights():
    y = MonomialSum.from_terms([(0.0, 1.0), (1.0, 1.0)])
    out = y.map_terms(0, lambda p: p)
    assert out.terms() == ((1.0, 1.0),)


def test_derivative_matches_power_rule():
    y = MonomialSum.from_terms([(2.0, 1.0), (0.5, 4.0)])
    d = y.derivative()
    assert d.terms() == ((-0.5, 2.0), (1.0, 2.0))


def test_random_sums_evaluate_linearly():
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        exps = rng.integers(-4, 5, size=6) * 0.5
        cf = rng.standard_normal(6)
        cg = rng.standard_normal(6)
        f = MonomialSum.from_terms(zip(exps, cf))
        g = MonomialSum.from_terms(zip(exps, cg))
        z = float(rng.uniform(0.2, 3.0))
        lhs = sum_by_terms((f + g).terms(), z)
        rhs = sum_by_terms(f.terms(), z) + sum_by_terms(g.terms(), z)
        assert math.isclose(lhs, rhs, rel_tol=1e-13, abs_tol=1e-13)
