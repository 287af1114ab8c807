from heun_su11.monomials import MonomialSum
from oracle import monomial, terms


def test_monomial_roundtrip_terms():
    y = monomial(1.5, 2.0)
    assert terms(y) == ((1.5, 2.0),)


def test_from_terms_keeps_order_duplicates_and_zeros():
    given = ((1.0, -1.0), (0.5, 2.0), (0.0, 0.0), (0.5, 3.0), (0.3, 0j))
    y = MonomialSum.from_terms(iter(given))
    assert terms(y) == given
    assert type(y.coeffs[-1]) is complex
    assert MonomialSum.from_terms([]) == MonomialSum((), ())
