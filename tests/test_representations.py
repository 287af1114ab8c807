import numpy as np
import pytest

from heun_su11.errors import UnsupportedClass
from heun_su11.heun_core import lame_parameters, make_parameters
from heun_su11.representations import (
    ExponentGrid,
    RepresentationClass,
    classify,
    finite_dimension,
    split_even_odd,
)
from heun_su11.su11_algebra import (
    Su11Decomposition,
    casimir_value,
    decompose,
)

EXAMPLE1 = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=2.0, q=0.0)
EXAMPLE2 = dict(gamma=1.5, delta=-0.5, alpha=-0.5, beta=0.0, a=2.0, q=0.0)


def synthetic_decomposition(mu, nu):
    return Su11Decomposition(
        mu=mu,
        nu=nu,
        c_plus=0.25,
        c_minus=0.6,
        c2=-1.1,
        c1=0.3,
        c0=-0.2,
        casimir=casimir_value(mu, nu),
    )


def classes_of(reps):
    return [r.rep_class for r in reps]


def test_classify_example1_triplet():
    reps = classify(decompose(make_parameters(**EXAMPLE1)))
    fd = reps[0]
    assert fd.rep_class is RepresentationClass.FINITE_DIMENSIONAL
    assert fd.n == 3
    assert fd.grid.exponents() == (0.0, 0.5, 1.0)
    assert fd.casimir == -2.0
    assert classes_of(reps) == [
        RepresentationClass.FINITE_DIMENSIONAL,
        RepresentationClass.POSITIVE_DISCRETE,
        RepresentationClass.NEGATIVE_DISCRETE,
    ]


def test_classify_example2_triplet():
    reps = classify(decompose(make_parameters(**EXAMPLE2)))
    assert reps[0].grid.exponents() == (-0.5, 0.0, 0.5)


def test_classify_lame_singlet():
    reps = classify(decompose(lame_parameters(0.0, 2.0, 1.0)))
    fd = reps[0]
    assert fd.n == 1
    assert fd.grid.exponents() == (0.0,)
    assert fd.casimir == 0.0
    # casimir 0 admits no complementary or principal series
    assert RepresentationClass.COMPLEMENTARY_SERIES not in classes_of(reps)
    assert RepresentationClass.PRINCIPAL_SERIES not in classes_of(reps)


def test_classify_principal_series_boundary():
    reps = classify(synthetic_decomposition(mu=0.5, nu=0.0))
    assert reps[0].casimir == 0.25
    classes = classes_of(reps)
    assert RepresentationClass.PRINCIPAL_SERIES in classes
    assert RepresentationClass.COMPLEMENTARY_SERIES not in classes
    assert RepresentationClass.FINITE_DIMENSIONAL not in classes
    ps = [r for r in reps if r.rep_class is RepresentationClass.PRINCIPAL_SERIES][0]
    assert ps.has_solutions is False
    assert ps.grid is None


def test_classify_complementary_series_window():
    reps = classify(synthetic_decomposition(mu=0.25, nu=0.0))
    classes = classes_of(reps)
    assert RepresentationClass.COMPLEMENTARY_SERIES in classes
    assert RepresentationClass.PRINCIPAL_SERIES not in classes
    cs = [r for r in reps if r.rep_class is RepresentationClass.COMPLEMENTARY_SERIES][0]
    assert cs.has_solutions is False
    assert cs.casimir == pytest.approx(0.1875)


def test_discrete_ladders_always_present():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dec = synthetic_decomposition(
            mu=float(rng.uniform(-3, 3)), nu=float(rng.uniform(-3, 3))
        )
        classes = classes_of(classify(dec))
        assert RepresentationClass.POSITIVE_DISCRETE in classes
        assert RepresentationClass.NEGATIVE_DISCRETE in classes
        pd = [r for r in classify(dec) if r.rep_class is RepresentationClass.POSITIVE_DISCRETE][0]
        nd = [r for r in classify(dec) if r.rep_class is RepresentationClass.NEGATIVE_DISCRETE][0]
        assert pd.grid.base == -dec.nu
        assert pd.grid.step == 0.5
        assert nd.grid.base == -dec.mu
        assert nd.grid.step == -0.5


def test_finite_dimension_integrality_tolerance():
    assert finite_dimension(0.0, 1.5) == 4
    assert finite_dimension(-2.5e-10, 1.5) == 4
    assert finite_dimension(-2e-9, 1.5) is None
    assert finite_dimension(1.0, 0.0) is None  # negative 2(nu-mu)


def test_grid_casimir_consistency():
    rng = np.random.default_rng(29)
    for k in range(0, 9):
        nu = float(rng.uniform(-2.0, 2.0))
        mu = nu - 0.5 * k
        n = finite_dimension(mu, nu)
        assert n == k + 1
        assert -(n * n - 1.0) / 4.0 == pytest.approx(casimir_value(mu, nu), abs=1e-12)


def test_weight_range_of_finite_grid():
    dec = decompose(make_parameters(**EXAMPLE1))
    fd = classify(dec)[0]
    h = [2.0 * p + dec.mu + dec.nu for p in fd.grid.exponents()]
    half_span = (fd.n - 1) / 2.0
    assert h[0] == -half_span
    assert h[-1] == half_span
    assert np.allclose(np.diff(h), 1.0)


def test_split_even_odd_examples():
    dec1 = decompose(make_parameters(**EXAMPLE1))
    split1 = split_even_odd(classify(dec1)[0])
    assert split1.even.exponents() == (0.0, 1.0)
    assert split1.odd.exponents() == (0.5,)

    dec2 = decompose(make_parameters(**EXAMPLE2))
    split2 = split_even_odd(classify(dec2)[0])
    assert split2.even.exponents() == (-0.5, 0.5)
    assert split2.odd.exponents() == (0.0,)


def test_split_even_odd_lame_discrete():
    reps = classify(decompose(lame_parameters(0.0, 2.0, 1.0)))
    pd = [r for r in reps if r.rep_class is RepresentationClass.POSITIVE_DISCRETE][0]
    split = split_even_odd(pd)
    assert split.even.size is None
    assert [split.even.exponent(m) for m in range(3)] == [0.0, 1.0, 2.0]
    assert [split.odd.exponent(m) for m in range(3)] == [0.5, 1.5, 2.5]


def test_split_sizes_for_finite_ladders():
    for k in range(0, 9):
        dec = synthetic_decomposition(mu=-0.5 * k, nu=0.0)
        fd = classify(dec)[0]
        assert fd.n == k + 1
        split = split_even_odd(fd)
        assert split.even.size == (fd.n + 1) // 2
        assert split.odd.size == fd.n // 2
        combined = sorted(split.even.exponents() + split.odd.exponents())
        assert combined == sorted(fd.grid.exponents())


def test_split_rejects_series_classes():
    ps = classify(synthetic_decomposition(mu=0.5, nu=0.0))
    target = [r for r in ps if r.rep_class is RepresentationClass.PRINCIPAL_SERIES][0]
    with pytest.raises(UnsupportedClass):
        split_even_odd(target)


def test_closure_of_parity_subgrids():
    rng = np.random.default_rng(37)
    for _ in range(20):
        k = int(rng.integers(0, 9))
        nu = float(rng.choice([0.0, 0.5]))
        mu = nu - 0.5 * k
        dec = synthetic_decomposition(mu=mu, nu=nu)
        fd = classify(dec)[0]
        split = split_even_odd(fd)
        for grid in (split.even, split.odd):
            if grid.size == 0:
                continue
            exps = grid.exponents()
            assert abs(dec.down(min(exps))) <= 1e-12
            assert abs(dec.up(max(exps))) <= 1e-12


def test_exponent_grid_guards():
    infinite = ExponentGrid(0.0, 0.5, None)
    assert infinite.size is None
    with pytest.raises(ValueError):
        infinite.exponents()


def test_descriptor_json_shapes():
    reps = classify(decompose(make_parameters(**EXAMPLE1)))
    fd_doc = reps[0].to_json_dict()
    assert fd_doc["class"] == "finite_dimensional"
    assert fd_doc["p_grid"] == [0.0, 0.5, 1.0]
    pd_doc = reps[1].to_json_dict()
    assert pd_doc["direction"] == "ascending"
    assert pd_doc["p_base"] == 0.0
    nd_doc = reps[2].to_json_dict()
    assert nd_doc["direction"] == "descending"
