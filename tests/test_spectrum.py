import importlib
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from heun_su11.errors import EigensolverNoConvergence, GridTooLarge
from heun_su11.heun_core import (
    canonical_coefficients,
    lame_parameters,
    make_parameters,
    second_order_action,
)
from heun_su11.monomials import MonomialSum
from heun_su11.representations import (
    ExponentGrid,
    RepresentationClass,
    classify,
    split_even_odd,
)
from heun_su11 import spectrum as spectrum_module
from heun_su11 import verifier as verifier_module
from heun_su11.spectrum import TridiagonalMatrix, build_matrix, solve_spectrum
from heun_su11.su11_algebra import decompose, rebuild_coefficients
from heun_su11.verifier import default_sample_points, residual_block, residual_for_coefficients
from oracle import check_eigenvalues, sturm_counter


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
    assert matrix.exponents == (0.0, 1.0)
    assert matrix.diagonal == (0.0, 0.0)
    assert matrix.lower == (0.5,)
    assert matrix.upper == (a / 2.0,)
    # Oracle: columns of the matrix are what the canonical operator does to
    # the basis monomials (q=0 so the diagonal shift vanishes).
    coeffs = canonical_coefficients(example1(a))
    for col, p in enumerate(matrix.exponents):
        f1_part, f2_part, f3_part = second_order_action(coeffs, MonomialSum.monomial(p))
        got = dict((f1_part + f2_part + f3_part).terms())
        for row, p_row in enumerate(matrix.exponents):
            entry = dense_of(matrix)[row][col]
            assert got.get(p_row, 0.0) == pytest.approx(entry, abs=1e-14)


def test_build_matrix_example1_odd():
    a = 2.0
    dec = decompose(example1(a))
    split = split_even_odd(finite_rep(dec))
    matrix = build_matrix(dec, split.odd)
    assert matrix.exponents == (0.5,)
    assert matrix.diagonal == ((a + 1.0) / 4.0,)


def test_build_matrix_lame_singlet():
    dec = decompose(lame_parameters(0.0, 2.0, 1.0))
    split = split_even_odd(finite_rep(dec))
    matrix = build_matrix(dec, split.even)
    assert matrix.diagonal == (0.0,)
    assert split.odd.size == 0


def test_build_matrix_cap_and_grid_guards():
    dec = decompose(example1(2.0))
    with pytest.raises(GridTooLarge):
        build_matrix(dec, ExponentGrid(0.0, 1.0, 65))
    with pytest.raises(GridTooLarge):
        build_matrix(dec, ExponentGrid(0.0, 1.0, None))
    with pytest.raises(ValueError):
        build_matrix(dec, ExponentGrid(0.0, 0.5, 3))
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
            used = {exp for exp, _ in pair.eigenfunction.as_monomial_sum().terms()}
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
    with pytest.raises(Exception) as info:
        solve_spectrum(dec, pd)
    assert "finite" in str(info.value)


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


def test_sturm_count_simple_matrices():
    two = TridiagonalMatrix((0.0, 1.0), (0.0, 0.0), (0.5,), (2.0,))
    count = sturm_counter(two)
    assert [count(x) for x in (-1.5, -1.0, 0.0, 1.0, 1.5)] == [0, 0, 1, 1, 2]
    check_eigenvalues(two, [-1.0, 1.0], tol=1e-12)
    one = TridiagonalMatrix((0.5,), (0.75,), (), ())
    check_eigenvalues(one, [0.75], tol=1e-14)


def test_sturm_count_example1_quarter():
    matrices = matrices_for(example1(0.25))
    check_eigenvalues(matrices[0], [-0.25, 0.25])


def test_sturm_count_refuses_negative_products():
    matrices = matrices_for(example1(-2.0))
    with pytest.raises(ValueError):
        sturm_counter(matrices[0])


@pytest.mark.parametrize("a", [0.25, 2.0, 4.0])
@pytest.mark.parametrize("gamma", [0.5, 1.5])
@pytest.mark.parametrize("n", [2, 3, 6, 11, 16, 32, 64, 128])
def test_solver_agrees_with_oracle(a, gamma, n):
    params = ladder_params(n, gamma, a, q=0.0)
    dec = decompose(params)
    rep = finite_rep(dec)
    assert rep.n == n
    split = split_even_odd(rep)
    result = solve_spectrum(dec, rep)
    for parity, grid in (("even", split.even), ("odd", split.odd)):
        if not grid.size:
            continue
        solved = [pair.q for pair in result.pairs if pair.parity == parity]
        check_eigenvalues(build_matrix(dec, grid), solved, tol=1e-10)


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
    with pytest.raises(EigensolverNoConvergence):
        spectrum_module._eigensolve(matrix)


EIGEN_CASES = {
    "n=1": TridiagonalMatrix((0.5,), (0.75,), (), ()),
    # lower[0] = 0 splits off the eigenvalue 1.0, whose leading pivot is 0
    "zero-off-diagonal": TridiagonalMatrix((0.0, 1.0, 2.0), (1.0, 3.0, 5.0), (0.0, 1.0), (2.0, 1.0)),
    "complex": matrices_for(ladder_params(32, 0.5, -3.0, delta=-0.5))[0],
}


@pytest.mark.parametrize("case", sorted(EIGEN_CASES))
def test_eigenvectors_satisfy_t_v_equals_q_v(case):
    matrix = EIGEN_CASES[case]
    values, vectors = spectrum_module._eigensolve(matrix)
    assert np.iscomplexobj(values) == (case == "complex")
    assert np.all(np.isfinite(vectors))
    dense = dense_of(matrix)
    lhs, rhs = dense @ vectors, vectors * values
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * (np.abs(dense) @ np.abs(vectors) + np.abs(rhs)))


def twisted_eigenvectors_reference(matrix, values):
    """The twisted factorization as two arrays, D+ top-down and D- bottom-up,
    each stepped on its own; the solver steps both in one stacked array."""
    n = matrix.dimension
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
    return matrix, spectrum_module._eigensolve(matrix)[0]


TWISTED_CASES = {
    # q = 1 zeroes the first D+ pivot and q = 2 the first D- pivot.
    "zero-pivot": (TridiagonalMatrix((0.0, 1.0), (1.0, 2.0), (0.0,), (0.0,)), np.array([1.0, 2.0])),
    # q = 1 zeroes both outer pivots, and the eigenvector's middle entry is
    # of the size of the pivot put in their place.
    "zero-pivots-coupled": (
        TridiagonalMatrix((0.0, 1.0, 2.0), (1.0, 5.0, 1.0), (1.0, 1.0), (1.0, 1.0)), np.array([1.0])),
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


@pytest.mark.parametrize("argv", [
    *([command, "--preset", preset]
      for preset in ("example1", "example2", "lame")
      for command in ("decompose", "classify", "check-algebra")),
    REJECTED,
], ids=lambda argv: "rejected-decompose" if argv is REJECTED else "-".join(argv[::2]))
def test_scalar_commands_leave_numpy_out(argv):
    # -X importtime lists every module the command imports, on stderr.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "heun_su11", *argv],
                          env=SRC_ENV, capture_output=True, text=True)
    assert proc.returncode == (1 if argv is REJECTED else 0)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "heun_su11.cli" in imported
    assert "numpy" not in imported


def test_namespace_serves_every_exported_name():
    import heun_su11

    assert len(heun_su11.__all__) == 38
    for name in heun_su11.__all__:
        obj = getattr(heun_su11, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace: dict = {}
    exec("from heun_su11 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(heun_su11.__all__)


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
    y = pair.eigenfunction.as_monomial_sum()
    assert y.evaluate(0.49) == pytest.approx(math.sqrt(0.49), abs=1e-14)


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
    """(coefficients, exponents, block, a7 per column, samples, pairs) for each
    non-empty parity sub-grid of a solved ladder."""
    dec = decompose(ladder_params(n, gamma, a, delta=delta))
    pairs = solve_spectrum(dec, finite_rep(dec)).pairs
    coeffs = rebuild_coefficients(dec)
    samples = default_sample_points(4.0 * dec.c_minus)
    for parity in ("even", "odd"):
        own = [pair for pair in pairs if pair.parity == parity]
        if own:
            poly = own[0].eigenfunction
            exponents = poly.base_exponent + np.arange(len(poly.coefficients))
            block = np.array([pair.eigenfunction.coefficients for pair in own]).T
            a7 = [coeffs.with_accessory(pair.q).a7 for pair in own]
            yield coeffs, exponents, block, a7, samples, own


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
    seen_complex = seen_zero_q = 0
    for a, n, delta in sweep_cases(12, seed=2024):
        for coeffs, exponents, block, a7, samples, own in parity_blocks(a, n, delta):
            residuals, scales = residual_block(coeffs, exponents, block, a7, samples)
            for j, pair in enumerate(own):
                y = pair.eigenfunction.as_monomial_sum()
                report = residual_for_coefficients(coeffs.with_accessory(pair.q), y, samples)
                assert bits(residuals[j]) == bits(report.residuals)
                assert bits(scales[j]) == bits(report.scales)
                assert pair.residual == report.max_relative_residual
                seen_complex += isinstance(pair.q, complex)
                seen_zero_q += pair.q == 0.0 and pair.residual == 0.0
    assert seen_complex and seen_zero_q


def test_block_columns_score_as_they_would_alone():
    """Also with an exact zero coefficient, which the block keeps.  The
    one-column call drops it, so on a larger sub-grid its gemm may sum in
    another order.  The eigenvectors of these ladders have no zero entry."""
    for a, n, delta in sweep_cases(6, seed=7):
        for coeffs, exponents, block, a7, samples, _own in parity_blocks(a, n, delta):
            planted = block.copy()
            planted[np.argmin(np.abs(planted[:, 0])), 0] = 0.0
            residuals, scales = residual_block(coeffs, exponents, planted, a7, samples)
            for j in range(planted.shape[1]):
                alone, alone_scales = residual_block(
                    coeffs, exponents, planted[:, j:j + 1], a7[j:j + 1], samples)
                assert bits(residuals[j]) == bits(alone[0])
                assert bits(scales[j]) == bits(alone_scales[0])


def test_solve_spectrum_scores_each_parity_with_one_call(monkeypatch):
    calls = []

    def counting(coeffs, exponents, block, a7, z_samples):
        calls.append(block.shape)
        return residual_block(coeffs, exponents, block, a7, z_samples)

    monkeypatch.setattr(verifier_module, "residual_block", counting)
    for n, parities in ((1, 1), (2, 2), (33, 2), (128, 2)):
        calls.clear()
        dec = decompose(ladder_params(n, 0.5, 2.0, delta=-0.5))
        result = solve_spectrum(dec, finite_rep(dec))
        assert len(calls) == parities
        assert sum(cols for _, cols in calls) == len(result.pairs) == n


def test_planted_coefficient_fails_its_column_alone():
    rng = random.Random(11)
    for _ in range(8):
        a, n = rng.choice((2.0, 4.0, -3.0)), rng.randint(4, 16)
        for coeffs, exponents, block, a7, samples, _own in parity_blocks(a, n, rng.uniform(-0.55, -0.45)):
            multi_term = [j for j in range(block.shape[1]) if np.count_nonzero(block[:, j]) > 1]
            j = rng.choice(multi_term)
            planted = block.copy()
            planted[np.argmax(np.abs(planted[:, j])), j] *= 1.0 + 1e-6
            before, _ = residual_block(coeffs, exponents, block, a7, samples)
            after, _ = residual_block(coeffs, exponents, planted, a7, samples)
            assert before[j].max() <= 1e-10 < 1e-8 < after[j].max()
            others = [k for k in range(block.shape[1]) if k != j]
            assert bits(after[others].ravel()) == bits(before[others].ravel())
