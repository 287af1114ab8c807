"""The package's records are NamedTuples: immutable, rebuilt with _replace,
and picklable, with a per-instance cache where a record keeps one."""

import math
import pickle
import struct

import numpy as np
import pytest

from heun_su11.heun_core import canonical_coefficients, make_parameters
from heun_su11.monomials import MonomialSum
from heun_su11.representations import RepresentationClass, classify, split_even_odd
from heun_su11.series_engine import series_solution
from heun_su11.spectrum import build_matrix, solve_spectrum
from heun_su11.su11_algebra import check_factorizable, decompose
from heun_su11.verifier import residual_for_coefficients


def records():
    """One of each record, from the example1 pipeline at a = 4."""
    params = make_parameters(0.5, -0.5, -1.0, -0.5, 4.0, 0.3)
    dec = decompose(params)
    by_class = {rep.rep_class: rep for rep in classify(dec)}
    finite = by_class[RepresentationClass.FINITE_DIMENSIONAL]
    split = split_even_odd(finite)
    result = solve_spectrum(dec, finite)
    coeffs = canonical_coefficients(params)
    y = MonomialSum.from_terms([(0.0, 1.0), (1.0, -0.5)])
    return {
        "HeunParameters": params,
        "CanonicalCoefficients": coeffs,
        "FactorizabilityReport": check_factorizable(params),
        "Su11Decomposition": dec,
        "ExponentGrid": split.even,
        "RepresentationDescriptor": finite,
        "SubspaceSplit": split,
        "MonomialSum": y,
        "SeriesSolution": series_solution(
            dec, by_class[RepresentationClass.POSITIVE_DISCRETE], "even", 0.3),
        "TridiagonalMatrix": build_matrix(dec, split.even),
        "EigenPair": result.pairs[0],
        "SpectralResult": result,
        "ResidualReport": residual_for_coefficients(coeffs, y, (0.1, 0.2)),
        "TemplatedList": result.to_json_list(),
    }


RECORDS = records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_field_cannot_be_set(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace_builds_a_new_record_of_the_same_type(name):
    record = RECORDS[name]
    first, *rest = record._fields
    marker = object()
    new = record._replace(**{first: marker})
    assert type(new) is type(record)
    assert getattr(new, first) is marker and getattr(record, first) is not marker
    assert all(getattr(new, f) is getattr(record, f) for f in rest)


def test_replace_starts_a_new_cache():
    # The cached arrays belong to one record; a replaced p0 moves them.
    sol = RECORDS["SeriesSolution"]
    exponents = sol.exponents.copy()
    moved = sol._replace(p0=sol.p0 + 1.0)
    assert np.array_equal(moved.exponents, exponents + 1.0)
    assert np.array_equal(sol.exponents, exponents)


CACHED = ("coefficient_array", "exponents", "exponent_list", "log2_edge", "log2_majorant",
          "non_finite_tail")


def overflowed_series():
    """example1's descending K=1000 series at a = 4, whose coefficients are
    not finite from b_516 on."""
    dec = RECORDS["Su11Decomposition"]
    nd = next(r for r in classify(dec) if r.rep_class is RepresentationClass.NEGATIVE_DISCRETE)
    return series_solution(dec, nd, "even", 0.3, truncation=1000)


def check_cache_survives_pickle(sol):
    """Each cached value is present after first use, is pickled with the
    record, and is ignored by equality."""
    fresh = sol._replace()
    for name in CACHED:
        getattr(sol, name)
    assert set(CACHED) <= set(vars(sol)) and not vars(fresh)
    assert fresh == sol
    copy = pickle.loads(pickle.dumps(sol))
    assert type(copy) is type(sol)
    assert np.array_equal(copy.coefficients, sol.coefficients, equal_nan=True)
    assert copy._replace(coefficients=sol.coefficients) == sol
    for name in CACHED:
        assert np.array_equal(vars(copy)[name], vars(sol)[name], equal_nan=True)
    assert struct.pack("d", vars(copy)["non_finite_tail"]) == struct.pack("d", sol.non_finite_tail)


def test_a_series_with_its_cache_filled_survives_pickle():
    sol = RECORDS["SeriesSolution"]
    check_cache_survives_pickle(sol)
    assert len(sol.log2_majorant) == len(sol.coefficients) and sol.non_finite_tail == 0.0
    report = RECORDS["ResidualReport"]
    assert pickle.loads(pickle.dumps(report)) == report


def test_an_overflowed_series_caches_its_finite_run_and_its_tail():
    # Its majorant stops at its first non-finite coefficient, and its tail
    # is a NaN; both survive pickle like the finite series' cache.
    sol = overflowed_series()
    finite_run = next(m for m, b in enumerate(sol.coefficients) if not math.isfinite(b))
    check_cache_survives_pickle(sol)
    assert len(sol.log2_majorant) == finite_run and math.isnan(sol.non_finite_tail)


def test_a_spectral_result_equals_only_itself():
    # It holds arrays, whose == is elementwise; identity keeps == a bool.
    result = RECORDS["SpectralResult"]
    twin = result._replace()
    assert result == result and not result == twin and result != twin
    assert len({result, twin}) == 2
