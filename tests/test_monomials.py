import pytest

from heun_su11.monomials import LATTICE_TOL, MonomialSum
from oracle import monomial, terms


def test_monomial_roundtrip_terms():
    y = monomial(1.5, 2.0)
    assert terms(y) == ((1.5, 2.0),)


def test_from_terms_merges_on_lattice():
    y = MonomialSum.from_terms([(0.0, 1.0), (0.5, 2.0), (0.5, 3.0), (1.0, -1.0)])
    assert terms(y) == ((0.0, 1.0), (0.5, 5.0), (1.0, -1.0))


def test_from_terms_rejects_off_lattice():
    with pytest.raises(ValueError):
        MonomialSum.from_terms([(0.0, 1.0), (0.3, 1.0)])


def test_from_terms_accepts_near_lattice_snap():
    y = MonomialSum.from_terms([(0.0, 1.0), (0.5 + LATTICE_TOL / 4, 1.0)])
    assert terms(y)[1][0] == 0.5
