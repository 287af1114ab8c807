import importlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heun_su11.errors import NumericalError, ValidationError
from heun_su11.heun_core import (
    canonical_coefficients,
    canonical_rows,
    lame_parameters,
    make_parameters,
)
from heun_su11.representations import (
    ExponentGrid,
    RepresentationClass,
    classify,
    split_even_odd,
)
from heun_su11 import heun_core
from heun_su11 import spectrum as spectrum_module
from heun_su11 import verifier as verifier_module
from heun_su11.series_engine import evaluate_series
from heun_su11.spectrum import TridiagonalMatrix, build_matrix, solve_spectrum
from heun_su11.su11_algebra import decompose, rebuild_coefficients
from heun_su11.monomials import MonomialSum
from heun_su11.verifier import default_sample_points, residual_for_coefficients
from oracle import check_eigenvalues, dyadic_integers, m1_image, m3_image, sturm_counter, terms


def example1(a, q=0.0):
    return make_parameters(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=a, q=q)


def example2(a, q=0.0):
    return make_parameters(gamma=1.5, delta=-0.5, alpha=-0.5, beta=0.0, a=a, q=q)


def ladder_params(n, gamma, a, delta=0.3, q=0.0):
    """Parameters whose finite ladder has length n (n >= 1)."""
    nu = {0.5: 0.0, 1.5: 0.5}[gamma]
    mu = nu - (n - 1) / 2.0
    total = 2.0 * mu + 0.5  # alpha+beta from mu
    alpha = (total - 0.5) / 2.0
    beta = alpha + 0.5
    return make_parameters(gamma, delta, alpha, beta, a, q)


def dense_of(matrix):
    """T as a dense array, from its three diagonals."""
    return np.diag(matrix.diagonal) + np.diag(matrix.lower, -1) + np.diag(matrix.upper, 1)


def finite_rep(dec):
    return [r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL][0]


def matrices_for(params):
    dec = decompose(params)
    split = split_even_odd(finite_rep(dec))
    out = []
    for grid in (split.even, split.odd):
        if grid.size:
            out.append(build_matrix(dec, grid))
    return out


def test_build_matrix_example1_even_against_operator_readoff():
    a = 2.0
    dec = decompose(example1(a))
    split = split_even_odd(finite_rep(dec))
    matrix = build_matrix(dec, split.even)
    assert matrix.exponents.tolist() == [0.0, 1.0]
    assert matrix.diagonal.tolist() == [0.0, 0.0]
    assert matrix.lower.tolist() == [0.5]
    assert matrix.upper.tolist() == [a / 2.0]
    # Oracle: columns of the matrix are what the canonical operator does to
    # the basis monomials (q=0 so the diagonal shift vanishes).
    coeffs = canonical_coefficients(example1(a))
    for col, p in enumerate(matrix.exponents):
        got = dict(zip((p + 1.0, p, p - 1.0), canonical_rows(coeffs, p)))
        for row, p_row in enumerate(matrix.exponents):
            entry = dense_of(matrix)[row][col]
            assert got.get(p_row, 0.0) == pytest.approx(entry, abs=1e-14)


def test_build_matrix_example1_odd():
    a = 2.0
    dec = decompose(example1(a))
    split = split_even_odd(finite_rep(dec))
    matrix = build_matrix(dec, split.odd)
    assert matrix.exponents.tolist() == [0.5]
    assert matrix.diagonal.tolist() == [(a + 1.0) / 4.0]


def test_build_matrix_lame_singlet():
    dec = decompose(lame_parameters(0.0, 2.0, 1.0))
    split = split_even_odd(finite_rep(dec))
    matrix = build_matrix(dec, split.even)
    assert matrix.diagonal.tolist() == [0.0]
    assert split.odd.size == 0


def test_build_matrix_cap_and_grid_guards():
    dec = decompose(example1(2.0))
    with pytest.raises(ValidationError, match="^sub-grid size 65 exceeds the cap 64$"):
        build_matrix(dec, ExponentGrid(0.0, 1.0, 65))
    with pytest.raises(ValidationError, match="^sub-grid is infinite; only finite ladders build"):
        build_matrix(dec, ExponentGrid(0.0, 1.0, None))
    # The first is example1's even sub-grid {0, 1}, given descending.
    for grid in (ExponentGrid(1.0, -1.0, 2), ExponentGrid(0.0, 0.5, 3)):
        with pytest.raises(ValueError, match=r"^parity sub-grids must step by \+1$"):
            build_matrix(dec, grid)
    # a grid that is not actually closed for this operator
    with pytest.raises(ValueError):
        build_matrix(dec, ExponentGrid(0.25, 1.0, 2))


@pytest.mark.parametrize("a", [0.25, 2.0, 4.0])
def test_example1_spectrum_closed_form(a):
    dec = decompose(example1(a))
    result = solve_spectrum(dec, finite_rep(dec))
    by_parity = {}
    for pair in result.pairs:
        by_parity.setdefault(pair.parity, []).append(pair)
    even_q = [pair.q for pair in by_parity["even"]]
    root = math.sqrt(a) / 2.0
    assert even_q == pytest.approx([-root, root], abs=1e-10)
    assert by_parity["odd"][0].q == pytest.approx((a + 1.0) / 4.0, abs=1e-10)
    # eigenfunctions proportional to z -/+ sqrt(a) and sqrt(z)
    for pair, sign in zip(by_parity["even"], (-1.0, 1.0)):
        b = pair.eigenfunction.coefficients
        assert b[0] / b[1] == pytest.approx(sign * math.sqrt(a), rel=1e-10)
    assert by_parity["odd"][0].eigenfunction.coefficients == (1.0,)
    assert result.warnings == ()


@pytest.mark.parametrize("a", [0.25, 2.0, 4.0])
def test_example2_spectrum_closed_form(a):
    dec = decompose(example2(a))
    result = solve_spectrum(dec, finite_rep(dec))
    qs = sorted(pair.q for pair in result.pairs)
    expected = sorted(
        [
            -(a + 1.0) / 4.0 - math.sqrt(a) / 2.0,
            -(a + 1.0) / 4.0 + math.sqrt(a) / 2.0,
            0.0,
        ]
    )
    assert qs == pytest.approx(expected, abs=1e-10)


def test_example1_even_spectrum_symmetry():
    dec = decompose(example1(3.7))
    result = solve_spectrum(dec, finite_rep(dec))
    even_q = [pair.q for pair in result.pairs if pair.parity == "even"]
    assert even_q[0] == pytest.approx(-even_q[1], abs=1e-12)


def test_spectrum_runtime_small():
    started = time.perf_counter()
    for a in (0.25, 2.0, 4.0):
        dec = decompose(example1(a))
        solve_spectrum(dec, finite_rep(dec))
    assert time.perf_counter() - started < 1.0


def test_eigenfunction_residuals_and_parity_separation():
    for params in (example1(4.0), example2(0.25), ladder_params(7, 0.5, 2.0)):
        dec = decompose(params)
        rep = finite_rep(dec)
        split = split_even_odd(rep)
        grids = {"even": split.even, "odd": split.odd}
        for pair in solve_spectrum(dec, rep).pairs:
            assert pair.residual <= 1e-12
            allowed = set(grids[pair.parity].exponents())
            used = {exp for exp, _ in terms(pair.eigenfunction.as_monomial_sum())}
            assert used <= allowed


def test_eigenvector_normalization_convention():
    dec = decompose(example1(4.0))
    for pair in solve_spectrum(dec, finite_rep(dec)).pairs:
        b = pair.eigenfunction.coefficients
        assert max(abs(x) for x in b) == pytest.approx(1.0, abs=1e-14)
        leading = next(x for x in b if abs(x) > 1e-12)
        assert leading > 0.0


def test_solve_spectrum_rejects_series_reps():
    dec = decompose(example1(2.0))
    pd = [r for r in classify(dec) if r.rep_class is RepresentationClass.POSITIVE_DISCRETE][0]
    with pytest.raises(ValidationError, match="^spectra are only computed on finite ladders, "
                                              "not positive_discrete$"):
        solve_spectrum(dec, pd)


def test_negative_a_complex_pairs_flagged():
    dec = decompose(example1(-2.0))
    result = solve_spectrum(dec, finite_rep(dec))
    even = [pair for pair in result.pairs if pair.parity == "even"]
    assert all(isinstance(pair.q, complex) for pair in even)
    assert even[0].q == pytest.approx(complex(0.0, -math.sqrt(2.0) / 2.0), abs=1e-10)
    assert even[1].q == pytest.approx(complex(0.0, math.sqrt(2.0) / 2.0), abs=1e-10)
    assert result.warnings
    for pair in even:
        assert pair.residual <= 1e-10


def test_small_a_diagonal_is_exact_at_p_0():
    # gamma=1/2, delta=-1/2, alpha=-7.5, beta=-7, n=16 at a=1e-5: the diagonal
    # at p=0 is exactly 0; the expanded c2 h^2 + c1 h - s(c1 + c2 s) cancels
    # there to -7.1e-15, which scores the even sub-grid 1.7e-10.
    dec = decompose(make_parameters(0.5, -0.5, -7.5, -7.0, 1e-5, 0.0))
    rep = finite_rep(dec)
    assert build_matrix(dec, split_even_odd(rep).even).diagonal[0] == 0.0
    assert all(pair.residual <= 1e-8 for pair in solve_spectrum(dec, rep).pairs)


@pytest.mark.parametrize("a", [3e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("gamma, n", [(0.5, 16), (0.5, 96), (1.5, 64), (1.5, 96)])
def test_small_non_dyadic_a_scores_near_epsilon(a, gamma, n):
    dec = decompose(ladder_params(n, gamma, a, delta=-0.5))
    for sub in solve_spectrum(dec, finite_rep(dec)).subgrids:
        assert sub.residuals.max() <= 1e-14


def test_sturm_count_simple_matrices():
    two = TridiagonalMatrix((0.0, 1.0), (0.0, 0.0), (0.5,), (2.0,))
    count = sturm_counter(two)
    assert [count(x) for x in (-1.5, -1.0, 0.0, 1.0, 1.5)] == [0, 0, 1, 1, 2]
    check_eigenvalues(two, [-1.0, 1.0], tol=1e-12)
    one = TridiagonalMatrix((0.5,), (0.75,), (), ())
    check_eigenvalues(one, [0.75], tol=1e-14)
    # The 2x2 leading minor is exactly 0 at x = 0 and x = 2; the eigenvalues
    # are about -0.247, 1.445 and 2.802.
    three = TridiagonalMatrix((0.0, 1.0, 2.0), (1.0, 1.0, 2.0), (1.0, 1.0), (1.0, 1.0))
    assert [sturm_counter(three)(x) for x in (0.0, 2.0)] == [1, 2]
    # A zero product splits the matrix: past the zero minor at x = 0 every
    # minor is 0, and the block (-1) still counts.
    split = TridiagonalMatrix((0.0, 1.0), (0.0, -1.0), (1.0,), (0.0,))
    assert [sturm_counter(split)(x) for x in (-1.0, 0.0, 0.5)] == [0, 1, 2]


def test_dyadic_integers_refuses_a_denominator_its_scale_does_not_hold():
    # 2^55, the denominator of 0.1, is the largest here, and 10^12 does not
    # divide it: 10^-12 would be written as 36028 / 2^55.
    with pytest.raises(ValueError, match="do not all divide"):
        dyadic_integers([0.1, Fraction(10) ** -12])
    # So is a probe at 10^-12 beside the entries of a ladder at a = 0.3.
    with pytest.raises(ValueError, match="do not all divide"):
        sturm_counter(matrices_for(example1(0.3))[0])(Fraction(10) ** -12)
    assert dyadic_integers([0.75, Fraction(-3, 8), 2]) == ([6, -3, 16], 8)


def test_sturm_count_example1_quarter():
    matrices = matrices_for(example1(0.25))
    check_eigenvalues(matrices[0], [-0.25, 0.25])


def test_sturm_count_refuses_negative_products():
    matrices = matrices_for(example1(-2.0))
    with pytest.raises(ValueError):
        sturm_counter(matrices[0])


# At large a the tolerance is relative: an absolute 1e-10 is below the ulp
# of q there (q_0 is about -4.0e9 at n = 128, a = 1e6, with an ulp of 4.8e-7).
@pytest.mark.parametrize("n, gamma, a", [
    *((n, gamma, a) for n in (2, 3, 6, 11, 16, 32, 64, 128) for gamma in (0.5, 1.5)
      for a in (0.25, 2.0, 4.0)),
    *((n, gamma, a) for n in (16, 128) for gamma in (0.5, 1.5) for a in (64.0, 1e6)),
])
def test_solver_agrees_with_oracle(n, gamma, a):
    params = ladder_params(n, gamma, a, q=0.0)
    dec = decompose(params)
    rep = finite_rep(dec)
    assert rep.n == n
    split = split_even_odd(rep)
    result = solve_spectrum(dec, rep)
    tol = 1e-10 if a <= 4.0 else 1e-13 * max(1.0, *(abs(pair.q) for pair in result.pairs))
    for parity, grid in (("even", split.even), ("odd", split.odd)):
        if not grid.size:
            continue
        solved = [pair.q for pair in result.pairs if pair.parity == parity]
        check_eigenvalues(build_matrix(dec, grid), solved, tol=tol)


@pytest.mark.parametrize("n, a", [(128, 2.0), (32, -3.0)])
def test_solver_solves_the_matrix_build_matrix_returns(n, a, monkeypatch):
    # The oracle checks build_matrix's matrix, so that must be the matrix
    # the eigensolver is given, field by field and bit for bit.
    dec = decompose(ladder_params(n, 0.5, a, delta=-0.5))
    rep = finite_rep(dec)
    solved = []
    eigensolve = spectrum_module._eigensolve

    def recording(matrix, *where):
        solved.append(matrix)
        return eigensolve(matrix, *where)

    monkeypatch.setattr(spectrum_module, "_eigensolve", recording)
    solve_spectrum(dec, rep)
    split = split_even_odd(rep)
    assert len(solved) == 2
    for matrix, grid in zip(solved, (split.even, split.odd)):
        built = build_matrix(dec, grid)
        assert type(matrix) is type(built) is TridiagonalMatrix
        for got, want in zip(matrix, built):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("plant", ["moved-1e-9", "dropped", "duplicated", "over-neighbour"])
@pytest.mark.parametrize("n", [4, 128])
def test_oracle_check_rejects_planted_answers(n, plant):
    """On the even sub-grid of the a=4 ladder the check passes the solver's
    values and fails each planted wrong answer."""
    dec = decompose(ladder_params(n, 0.5, 4.0, delta=-0.5))
    rep = finite_rep(dec)
    matrix = build_matrix(dec, split_even_odd(rep).even)
    qs = sorted(pair.q for pair in solve_spectrum(dec, rep).pairs if pair.parity == "even")
    check_eigenvalues(matrix, qs)
    k = (len(qs) - 1) // 2
    wrong = {
        "moved-1e-9": qs[:k] + [qs[k] + 1e-9] + qs[k + 1:],
        "dropped": qs[:k] + qs[k + 1:],
        "duplicated": qs[:k + 1] + qs[k:],
        "over-neighbour": qs[:k + 1] + qs[k:k + 1] + qs[k + 2:],
    }[plant]
    with pytest.raises(AssertionError):
        check_eigenvalues(matrix, wrong)


@pytest.mark.parametrize("solver,upper", [("eigvalsh", 2.0), ("eigvals", -2.0)],
                         ids=["eigvalsh", "eigvals"])
def test_eigensolver_failure_is_wrapped(monkeypatch, solver, upper):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(spectrum_module.np.linalg, solver, boom)
    # a positive off-diagonal product takes the symmetric route, a negative
    # one the dense route
    matrix = TridiagonalMatrix((0.0, 1.0), (0.0, 0.0), (0.5,), (upper,))
    with pytest.raises(NumericalError, match="^did not converge$"):
        spectrum_module._eigensolve(matrix, "even", 2.0)


@pytest.mark.parametrize("matrix", [
    TridiagonalMatrix((0.0, 1.0), (math.inf, 0.0), (0.5,), (2.0,)),
    TridiagonalMatrix((0.0, 1.0), (0.0, 0.0), (0.5,), (-math.inf,)),
    TridiagonalMatrix((0.0, 1.0), (0.0, 0.0), (1e200,), (1e200,)),
], ids=["inf-diagonal", "inf-upper", "product-overflow"])
def test_an_overflowed_matrix_is_refused_before_lapack(monkeypatch, matrix):
    """An inf entry, or an off-diagonal product that overflows on the
    symmetric route, is named as an overflow of that sub-grid at that a,
    and neither LAPACK solver runs."""
    def boom(_):
        raise AssertionError("LAPACK was handed a non-finite matrix")

    monkeypatch.setattr(spectrum_module.np.linalg, "eigvalsh", boom)
    monkeypatch.setattr(spectrum_module.np.linalg, "eigvals", boom)
    with pytest.raises(NumericalError) as caught:
        spectrum_module._eigensolve(matrix, "odd", 1e308)
    assert str(caught.value) == "the matrix of the odd sub-grid overflows float64 at a=1e+308"


EIGEN_CASES = {
    "n=1": TridiagonalMatrix((0.5,), (0.75,), (), ()),
    # lower[0] = 0 splits off the eigenvalue 1.0, whose leading pivot is 0
    "zero-off-diagonal": TridiagonalMatrix((0.0, 1.0, 2.0), (1.0, 3.0, 5.0), (0.0, 1.0), (2.0, 1.0)),
    "complex": matrices_for(ladder_params(32, 0.5, -3.0, delta=-0.5))[0],
}


@pytest.mark.parametrize("case", sorted(EIGEN_CASES))
def test_eigenvectors_satisfy_t_v_equals_q_v(case):
    matrix = EIGEN_CASES[case]
    values, vectors = spectrum_module._eigensolve(matrix, "even", 2.0)
    assert np.iscomplexobj(values) == (case == "complex")
    assert np.all(np.isfinite(vectors))
    dense = dense_of(matrix)
    lhs, rhs = dense @ vectors, vectors * values
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * (np.abs(dense) @ np.abs(vectors) + np.abs(rhs)))


def twisted_eigenvectors_reference(matrix, values):
    """The twisted factorization as two arrays, D+ top-down and D- bottom-up,
    each stepped on its own; the solver steps both in one stacked array."""
    n = len(matrix.diagonal)
    shifted = np.asarray(matrix.diagonal)[:, None] - values
    lower = np.asarray(matrix.lower)[:, None]
    upper = np.asarray(matrix.upper)[:, None]
    products = lower * upper
    entries = (1.0, *matrix.diagonal, *matrix.lower, *matrix.upper)
    tiny = np.finfo(float).eps * max(map(abs, entries))
    plus, minus = shifted.copy(), shifted.copy()
    for i, j in zip(range(n - 1), range(n - 1, 0, -1)):
        plus[i] = np.where(plus[i] == 0.0, tiny, plus[i])
        plus[i + 1] -= products[i] / plus[i]
        minus[j] = np.where(minus[j] == 0.0, tiny, minus[j])
        minus[j - 1] -= products[j - 1] / minus[j]
    twist = np.argmin(np.abs(plus + minus - shifted), axis=0)
    rows = np.arange(n - 1)[:, None]
    above = np.where(rows < twist, -upper / plus[:-1], 1.0)
    below = np.where(rows >= twist, -lower / minus[1:], 1.0)
    ones = np.ones_like(shifted[:1])
    above_twist = np.cumprod(np.vstack((ones, above[::-1])), axis=0)[::-1]
    return above_twist * np.cumprod(np.vstack((ones, below)), axis=0)


def _solver_values(matrix):
    return matrix, spectrum_module._eigensolve(matrix, "even", 2.0)[0]


TWISTED_CASES = {
    # q = 1 zeroes the first D+ pivot and q = 2 the first D- pivot.
    "zero-pivot": (TridiagonalMatrix((0.0, 1.0), (1.0, 2.0), (0.0,), (0.0,)), np.array([1.0, 2.0])),
    # q = 1 zeroes both outer pivots, and the eigenvector's middle entry is
    # of the size of the pivot put in their place.
    "zero-pivots-coupled": (
        TridiagonalMatrix((0.0, 1.0, 2.0), (1.0, 5.0, 1.0), (1.0, 1.0), (1.0, 1.0)), np.array([1.0])),
    # At q = 0 the second D+ pivot is 1 - 1/1 = 0, mid-sweep; no pivot of
    # the q = 0.5 column is 0, so the floor must patch the q = 0 column alone.
    "interior-zero-pivot": (
        TridiagonalMatrix((0.0, 1.0, 2.0), (1.0, 1.0, 5.0), (1.0, 1.0), (1.0, 1.0)),
        np.array([0.0, 0.5])),
    # The same pivots with a fourth row whose small diagonal puts both
    # twists at the bottom, so the patched pivot, and any pivot of the
    # q = 0.5 column patched by mistake, reaches the eigenvectors.
    "interior-zero-pivot-above-the-twist": (
        TridiagonalMatrix((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 5.0, 0.01), (1.0,) * 3, (1.0,) * 3),
        np.array([0.0, 0.5])),
    "symmetrizable-n64-a4": _solver_values(matrices_for(ladder_params(64, 0.5, 4.0, delta=-0.5))[0]),
    "complex-a-3": _solver_values(matrices_for(ladder_params(32, 0.5, -3.0, delta=-0.5))[0]),
}


@pytest.mark.parametrize("case", sorted(TWISTED_CASES))
def test_twisted_eigenvectors_match_two_array_reference(case):
    matrix, values = TWISTED_CASES[case]
    got = spectrum_module._twisted_eigenvectors(matrix, values)
    want = twisted_eigenvectors_reference(matrix, values)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    if case == "complex-a-3":
        assert np.iscomplexobj(values)


SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(spectrum_module.__file__).parents[1])}


def test_import_leaves_scipy_out():
    code = "import sys, heun_su11; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=SRC_ENV).returncode == 0


REJECTED = ["decompose", "--gamma", "0.7", "--delta", "-0.5", "--alpha", "-1", "--beta", "-0.5",
            "--a", "2"]
CLI = ["-m", "heun_su11"]
# numpy and the package modules that import it.
NUMERIC = {"numpy", "heun_su11.monomials", "heun_su11.verifier", "heun_su11.series_engine",
           "heun_su11.spectrum"}
GOLDEN = Path(__file__).parent / "golden"
# The modules that only the solving subcommands load.
ALGEBRA = {"heun_su11.su11_algebra", "heun_su11.representations"}
# name -> (arguments, stdin): the scalar subcommands on the presets, the
# rejected input, verify on the spectrum documents the benchmark pipes, and
# verify on each golden series document.
SCALAR_RUNS = {
    **{f"{command}-{preset}": ([command, "--preset", preset], "")
       for preset in ("example1", "example2", "lame")
       for command in ("decompose", "classify", "check-algebra")},
    "rejected-decompose": (REJECTED, ""),
    **{f"verify-spectrum-{name}": (["verify", "--solution", "-"],
                                   (GOLDEN / f"spectrum-{name}.out").read_text(encoding="utf-8"))
       for name in ("example1", "example2", "lame", "n32-a2")},
    **{f"verify-series-{name}": (["verify", "--solution", "-"],
                                 (GOLDEN / f"series-{name}.out").read_text(encoding="utf-8"))
       for name in ("pd-k1000", "nd-k1000", "lame-a-3")},
}


@pytest.mark.parametrize("name", list(SCALAR_RUNS))
def test_scalar_commands_leave_numpy_out(name):
    argv, stdin = SCALAR_RUNS[name]
    returncode, imported = imported_modules([*CLI, *argv], stdin)
    assert returncode == (1 if argv is REJECTED else 0)
    assert "heun_su11.cli" in imported
    assert not NUMERIC & imported
    assert "dataclasses" not in imported
    if argv[0] == "verify":
        assert not ALGEBRA & imported


def imported_modules(args, stdin=""):
    """The exit code of `python args` and the names of the modules it
    imports, which -X importtime lists on stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=SRC_ENV, input=stdin, capture_output=True, text=True)
    return proc.returncode, {line.rsplit("|", 1)[-1].strip()
                             for line in proc.stderr.splitlines() if line.startswith("import time:")}


def package_modules(args):
    returncode, imported = imported_modules(args)
    assert returncode == 0
    return {name.split(".", 1)[1] for name in imported if name.startswith("heun_su11.")}


@pytest.mark.parametrize("code,modules", [
    ("import heun_su11", set()),
    ("from heun_su11 import decompose", {"errors", "heun_core", "jsonio", "su11_algebra"}),
    ("import heun_su11; heun_su11.ode_residual",
     {"errors", "heun_core", "jsonio", "monomials", "verifier"}),
], ids=["bare", "decompose", "ode_residual"])
def test_each_name_loads_only_its_home_module_and_its_imports(code, modules):
    assert package_modules(["-c", code]) == modules


def test_spectrum_leaves_the_sampled_scorer_out():
    # spectrum scores in coefficient space: it loads neither the sampled
    # scorer nor the monomial sums it works on.
    loaded = package_modules([*CLI, "spectrum", "--preset", "example1"])
    assert "spectrum" in loaded and not {"verifier", "monomials"} & loaded


def test_spectrum_loads_series_engine_only_to_write_csv(tmp_path):
    argv = [*CLI, "spectrum", "--preset", "example1"]
    assert "series_engine" not in package_modules(argv)
    assert "series_engine" in package_modules([*argv, "--csv", str(tmp_path / "plot.csv")])


def test_numeric_commands_leave_dataclasses_out():
    # The records are NamedTuples, so no subcommand pays for the dataclass
    # machinery at start-up; the scalar ones, and verify on either kind of
    # document, are checked above.  spectrum and series load numpy.
    for argv in (["spectrum", "--preset", "example1"],
                 ["series", "--preset", "lame", "--q", "0.3"]):
        returncode, imported = imported_modules([*CLI, *argv])
        assert returncode == 0, argv
        assert "numpy" in imported
        assert "dataclasses" not in imported, argv


def test_namespace_serves_every_exported_name():
    import heun_su11

    assert len(heun_su11.__all__) == 25
    for name in heun_su11.__all__:
        obj = getattr(heun_su11, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace: dict = {}
    exec("from heun_su11 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(heun_su11.__all__)
    # A fresh interpreter lists every name before its first use, and serves
    # each from the module _HOMES names.
    code = (
        "import sys, heun_su11 as h\n"
        "listed = dir(h)\n"
        "for name, home in h._HOMES.items():\n"
        "    assert name in listed, name\n"
        "    obj = getattr(h, name)\n"
        "    assert obj.__module__ == 'heun_su11.' + home, name\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_namespace_refuses_unknown_names():
    import heun_su11

    with pytest.raises(AttributeError, match="no_such_name"):
        heun_su11.no_such_name
    assert not hasattr(heun_su11, "build_matrix")


def test_fresh_import_loads_numpy_with_the_first_numeric_name():
    code = (
        "import sys, heun_su11 as h\n"
        "dec = h.decompose(h.make_parameters(0.5, -0.5, -1.0, -0.5, 4.0, 0.0))\n"
        "reps = h.classify(dec)\n"
        "assert 'numpy' not in sys.modules\n"
        "result = h.solve_spectrum(dec, reps[0])\n"
        "assert 'numpy' in sys.modules\n"
        "print(*(pair.q for pair in result.pairs))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert [float(q) for q in proc.stdout.split()] == pytest.approx([-1.0, 1.0, 1.25], abs=1e-10)


def test_sqrt_z_polynomial_evaluation():
    dec = decompose(example1(4.0))
    pair = solve_spectrum(dec, finite_rep(dec)).pairs[-1]
    assert pair.eigenfunction.domain == (0.0, math.inf)
    assert evaluate_series(pair.eigenfunction, 0.49).value == pytest.approx(
        math.sqrt(0.49), abs=1e-14)


def normalize_vector_reference(vec):
    """The one-column normalization the block form replaced: peak magnitude
    1, then the first entry above SIGN_TOL made positive real."""
    out = vec / np.max(np.abs(vec))
    for x in out:
        if abs(x) > spectrum_module.SIGN_TOL:
            if np.iscomplexobj(out):
                out = out * (np.conj(x) / abs(x))
            elif x < 0.0:
                out = -out
            break
    return out


@pytest.mark.parametrize("dtype", [float, complex])
def test_normalize_rows_matches_one_vector_reference(dtype):
    rng = random.Random(7)
    for _ in range(250):
        n, count = rng.randint(1, 64), rng.randint(1, 64)
        draw = (lambda: rng.uniform(-1, 1)) if dtype is float else (
            lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        # Columns as the eigensolver returns them, with magnitudes far apart.
        block = np.array([[draw() * 10.0 ** rng.randint(-60, 3) for _ in range(count)]
                          for _ in range(n)])
        block[: rng.randint(0, n - 1), rng.randrange(count)] = 0.0  # leading zeros
        got = spectrum_module._normalize_rows(block.T)
        for j in range(count):
            want = normalize_vector_reference(block[:, j])
            assert got[j].tobytes() == want.tobytes()


def bits(values):
    return [float(x).hex() for x in values]


def parity_blocks(a, n, delta, gamma=0.5):
    """(coefficients, exponents, block, samples, pairs) for each non-empty
    parity sub-grid of a solved ladder."""
    dec = decompose(ladder_params(n, gamma, a, delta=delta))
    pairs = solve_spectrum(dec, finite_rep(dec)).pairs
    coeffs = rebuild_coefficients(dec)
    samples = default_sample_points(4.0 * dec.c_minus)
    for parity in ("even", "odd"):
        own = [pair for pair in pairs if pair.parity == parity]
        if own:
            poly = own[0].eigenfunction
            exponents = poly.p0 + np.arange(len(poly.coefficients))
            block = np.array([pair.eigenfunction.coefficients for pair in own]).T
            yield coeffs, exponents, block, samples, own


def sweep_cases(count, seed):
    """Seeded ladders plus fixed ones: complex pairs at a<0, n=2 with its
    q=0 constant eigenfunction, and n=128."""
    rng = random.Random(seed)
    cases = [(-3.0, 32, -0.5), (-0.5, 128, -0.5), (2.0, 2, -0.5), (4.0, 128, -0.5)]
    for _ in range(count):
        cases.append((rng.choice((0.25, 1.01, 2.0, 4.0, -3.0, -0.5)), rng.randint(2, 128),
                      rng.uniform(-0.55, -0.45)))
    return cases


def test_block_residual_equals_one_column_call():
    """Each pair's own residual, scored in coefficient space in its parity's
    block, is its one-column _residuals call.  The n=128 ladder at a=1e6
    has 102 exact-zero coefficients."""
    seen_complex = seen_zero_q = seen_zeros = 0
    for a, n, delta in sweep_cases(12, seed=2024) + [(1e6, 128, -0.5)]:
        for coeffs, exponents, block, _samples, own in parity_blocks(a, n, delta):
            seen_zeros += int(np.sum(block == 0.0))
            for j, pair in enumerate(own):
                [alone] = spectrum_module._residuals(
                    coeffs, exponents[0].item(), block[:, j:j + 1].T, np.array([pair.q], block.dtype))
                assert pair.residual == alone
                seen_complex += isinstance(pair.q, complex)
                seen_zero_q += pair.q == 0.0 and pair.residual == 0.0
    assert seen_complex and seen_zero_q and seen_zeros >= 102


def test_solve_spectrum_scores_each_parity_with_one_call(monkeypatch):
    """One _residuals call per parity sub-grid scores all of its pairs, and
    the sampled scorer is not called."""
    calls = []
    score = spectrum_module._residuals

    def counting(coeffs, base, rows, q):
        calls.append(rows.shape)
        return score(coeffs, base, rows, q)

    def sampled(*args):
        raise AssertionError("solve_spectrum called the sampled scorer")

    monkeypatch.setattr(spectrum_module, "_residuals", counting)
    monkeypatch.setattr(verifier_module, "residual_for_coefficients", sampled)
    for n, parities in ((1, 1), (2, 2), (33, 2), (128, 2)):
        calls.clear()
        dec = decompose(ladder_params(n, 0.5, 2.0, delta=-0.5))
        result = solve_spectrum(dec, finite_rep(dec))
        assert len(calls) == parities
        assert sum(count for count, _ in calls) == len(result.pairs) == n


@pytest.mark.parametrize("dtype", [float, complex])
def test_residuals_score_the_zero_function_and_non_finite_pairs_inf(dtype):
    """Each pair is scored on its own row: a zero row, a NaN or infinite
    coefficient and a NaN or infinite q score inf, without a warning, and
    leave the other pairs' scores as they were, bit for bit."""
    dec = decompose(ladder_params(16, 0.5, 2.0, delta=-0.47))
    coeffs = rebuild_coefficients(dec)
    sub = solve_spectrum(dec, finite_rep(dec)).subgrids[0]
    rows, q = sub.rows.astype(dtype), sub.q.astype(dtype)
    honest = spectrum_module._residuals(coeffs, sub.base, rows, q)
    assert honest.max() < 1e-14
    rows[1], rows[2, 3], rows[3, 0] = 0.0, math.nan, math.inf
    q[4], q[5] = math.nan, -math.inf
    got = spectrum_module._residuals(coeffs, sub.base, rows, q)
    assert got[1:6].tolist() == [math.inf] * 5
    assert bits(got[[0, 6, 7]]) == bits(honest[[0, 6, 7]])


def test_solve_spectrum_computes_no_sample_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_spectrum computed sample points")

    # Every sample rule takes its nodes from heun_core.chebyshev_points.
    monkeypatch.setattr(heun_core, "chebyshev_points", refuse)
    for a in (2.0, -3.0, 1e-7, 1e308):
        dec = decompose(example1(a))
        assert len(solve_spectrum(dec, finite_rep(dec)).pairs) == 3
    dec = decompose(ladder_params(128, 1.5, 4.0))
    assert max(pair.residual for pair in solve_spectrum(dec, finite_rep(dec)).pairs) < 1e-12


def test_planted_coefficient_fails_its_column_alone():
    """The sampled scorer fails a pair with one coefficient off by 1e-6, and
    its untouched siblings still pass."""
    rng = random.Random(11)
    for _ in range(8):
        a, n = rng.choice((2.0, 4.0, -3.0)), rng.randint(4, 16)
        for coeffs, _exponents, _block, samples, own in parity_blocks(a, n, rng.uniform(-0.55, -0.45)):
            sums = [pair.eigenfunction.as_monomial_sum() for pair in own]
            multi_term = [j for j, y in enumerate(sums) if np.count_nonzero(y.coeffs) > 1]
            j = rng.choice(multi_term)
            planted = np.array(sums[j].coeffs)
            planted[np.argmax(np.abs(planted))] *= 1.0 + 1e-6
            worst = [residual_for_coefficients(coeffs.with_accessory(pair.q), y, samples)
                     .max_relative_residual for pair, y in zip(own, sums)]
            after = residual_for_coefficients(coeffs.with_accessory(own[j].q),
                                              MonomialSum(sums[j].exponents, planted), samples)
            assert max(worst) <= 1e-10 < 1e-8 < after.max_relative_residual


# M1 distances, over max(1, max|q|), at delta = -1/2: at most 6.0e-15 for
# a in [1e-5, 3] and n up to 128, and 3.8e-10 for a in [-3, -0.5] and n up
# to 32.  M3 distances: at most 3.1e-15 for a in [1e-5, 4] and n up to 128,
# and 4.1e-11 for a in [-3, -0.5] and n up to 32.  From n = 64 on, the
# dense solver's values at a < 0 drift from 3e-7 to 9e-2 (ROADMAP item 2),
# so the negative cases stop at n = 32.
M1_TOLERANCE = {True: 1e-13, False: 1e-8}

# Per map: the image of the parameters, the q at the parameters that a q of
# the image stands for, and whether the parity sub-grids swap at length n.
MAPS = {
    "m1": (m1_image, lambda params, image, q: params.a * q, lambda n: False),
    "m3": (m3_image, lambda params, image, q: q - (image.q - params.q), lambda n: n % 2 == 0),
}


def map_distance(n, gamma, a, name="m1"):
    """The largest distance from a q of the ladder of length n at a to the
    nearest q that the named map's image stands for, or back, on either
    parity sub-grid, over max(1, max|q|)."""
    image_of, preimage_q, swaps = MAPS[name]
    params = ladder_params(n, gamma, a, delta=-0.5)
    image_params = image_of(params)
    spectra = []
    for p in (params, image_params):
        dec = decompose(p)
        spectra.append({sub.parity: sub.q for sub in solve_spectrum(dec, finite_rep(dec)).subgrids})
    here, image = spectra
    assert here.keys() == image.keys()
    scale = max(1.0, *(np.abs(q).max() for q in here.values()))
    distance = 0.0
    for parity, q in here.items():
        other = {"even": "odd", "odd": "even"}[parity] if swaps(n) else parity
        gaps = np.abs(q[:, None] - preimage_q(params, image_params, image[other])[None, :])
        distance = max(distance, gaps.min(axis=1).max(), gaps.min(axis=0).max())
    return distance / scale


@pytest.mark.parametrize("name, a, gamma", [
    *(pytest.param("m1", a, gamma, id=f"{a}-{gamma}")
      for a in (3.0, 1.7, 0.3, 1e-5, -3.0, -0.5) for gamma in (0.5, 1.5)),
    # M3 holds at gamma = 1/2 only; it needs no rounded 1/a, so a = 4 tests it too.
    *(pytest.param("m3", a, 0.5, id=f"m3-{a}") for a in (3.0, 1.7, 0.3, 1e-5, 4.0, -3.0, -0.5)),
])
def test_m1_maps_the_spectrum_to_its_image(name, a, gamma):
    # z = a w maps the ladder at a onto the ladder at 1/a, with every
    # eigenvalue q onto q/a, on both parity sub-grids; z = a/w maps it onto
    # the ladder at a with delta and epsilon swapped.
    for n in (1, 2, 3, 8, 16, 32) + ((64, 128) if a > 0 else ()):
        assert map_distance(n, gamma, a, name) <= M1_TOLERANCE[a > 0], (name, n, gamma, a)


@pytest.mark.sweep
def test_m1_maps_the_spectrum_at_drawn_a(seed):
    # Non-dyadic a, log-uniform in [1e-5, 3] and in [-3, -0.5]; M3 at gamma = 1/2.
    rng = random.Random(f"m1-sweep-{seed}")
    for a, top in ((math.exp(rng.uniform(math.log(1e-5), math.log(3.0))), 128),
                   (-math.exp(rng.uniform(math.log(0.5), math.log(3.0))), 32)):
        for gamma in (0.5, 1.5):
            for n in (rng.randint(1, top), top):
                for name in ("m1", "m3") if gamma == 0.5 else ("m1",):
                    distance = map_distance(n, gamma, a, name)
                    assert distance <= M1_TOLERANCE[a > 0], (name, n, gamma, a)
