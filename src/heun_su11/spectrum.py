"""Finite spectra: tridiagonal eigenproblems on parity sub-grids.

On a finite ladder the factorized operator acts on the basis
(z^p0, z^(p0+1), ..., ordered by ascending exponent) as a tridiagonal
matrix T with T[m][m] = A(p_m), sub-diagonal T[m+1][m] = up(p_m) and
super-diagonal T[m][m+1] = down(p_(m+1)), where A is the accessory-free
diagonal: row m is the decomposition's three-term row at p_m, the series'
row too.  Admissible accessory values are then the eigenvalues of
T b = q b; each eigenvector b gives the solution for that q, the terminating
ascending series sum_m b_m z^(p0+m): a SeriesSolution on all of z > 0.
Each pair is scored in coefficient space, as verify scores it, with no
sample point (_residuals).

solve_spectrum takes the eigenvalues from numpy (symmetric or dense, by the
sign of the off-diagonal products) and every eigenvector from one twisted
factorization of T - q.  The tests hold an independent oracle, an exact
Sturm count, on integers, of the eigenvalues of T below a point, and with
it certify every eigenvalue the solver returns within 1e-10 (relative
1e-13 at large a) on each sub-grid whose off-diagonal products are not
negative.

A SpectralResult holds the solver's arrays of each sub-grid; its EigenPairs
are built from them on each read.  Its JSON form is written from the
arrays too: each sub-grid is one run of a jsonio.TemplatedList, whose
record skeleton holds the exponents and the parity and whose flat leaves
are the values, q and residuals, so no per-coefficient record is built.

Each sub-grid pays numpy's per-call overhead besides its arithmetic, so
each array is built once: the matrix keeps float64 arrays from the
three-term rows to the eigensolve, and the twisted factorization steps
both sweeps over prebuilt row views and tests for a zero pivot once per
sweep.  On the benchmark's ten ladders of n up to 128 (20 sub-grids,
26,172 printed floats), the 29 ms that solve_spectrum and canonical_dumps
take per pass go mostly to LAPACK's eigenvalues (1.5 ms) and the %.17g
digits of the printed floats (17.5 ms; in process, best of 40, 2-core
host).  The scores take 1.3 ms per pass, where the 25-sample scorer they
replaced took 2.4 ms (best of 250).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .heun_core import CanonicalCoefficients, row_matrix
from .jsonio import SLOT, TemplatedList
from .representations import (
    ExponentGrid,
    RepresentationClass,
    RepresentationDescriptor,
    split_even_odd,
)
from .su11_algebra import Su11Decomposition, rebuild_coefficients

if TYPE_CHECKING:
    from .series_engine import SeriesSolution

MATRIX_CAP = 64
SIGN_TOL = 1e-12


class TridiagonalMatrix(NamedTuple):
    """Operator matrix on one parity sub-grid, basis by ascending exponent."""

    exponents: np.ndarray
    diagonal: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _scale(matrix: TridiagonalMatrix) -> float:
    """max(1, max|T_ij|) over the entries that are not NaN, the scale of
    build_matrix's leak test and of the twisted factorization's zero-pivot
    floor."""
    entries = np.concatenate((matrix.diagonal, matrix.lower, matrix.upper))
    return float(np.fmax.reduce(np.abs(entries), initial=1.0))


class EigenPair(NamedTuple):
    q: complex
    eigenfunction: SeriesSolution
    parity: str
    residual: float


class SolvedSubgrid(NamedTuple):
    """The solver's arrays for one parity sub-grid: P eigenvalues q, the
    normalized eigenvectors as the rows of a P x n array on the exponents
    base, base + 1, ..., and the worst residual of each."""

    parity: str
    base: float
    q: np.ndarray
    rows: np.ndarray
    residuals: np.ndarray


class SpectralResult(NamedTuple):
    """The eigenpairs of a finite ladder as the solver's arrays, one
    SolvedSubgrid per non-empty parity sub-grid, even first.  It holds
    arrays, so two results are equal only when they are one object."""

    warnings: Tuple[str, ...]
    subgrids: Tuple[SolvedSubgrid, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def pairs(self) -> Tuple[EigenPair, ...]:
        """One EigenPair per eigenvalue, in the order of the sub-grids' arrays.
        series_engine is imported here, its only reader, so a spectrum that
        is only printed does not load it."""
        from .series_engine import ASCENDING, SeriesSolution

        return tuple(
            EigenPair(q=q, parity=sub.parity, residual=residual, eigenfunction=SeriesSolution(
                sub.base, ASCENDING, sub.parity, q, tuple(row), (0.0, math.inf)))
            for sub in self.subgrids
            for q, row, residual in zip(sub.q.tolist(), sub.rows.tolist(), sub.residuals.tolist())
        )

    def to_json_list(self) -> TemplatedList:
        """The eigenpairs array of a spectrum document, the pairs in order,
        written from the solver's arrays: one run per sub-grid, whose record
        skeleton holds the exponents and the parity, and whose leaves are
        each record's values, q and residual, in the document's sorted-key
        order."""
        runs = []
        for parity, base, q, rows, residuals in self.subgrids:
            block = np.column_stack((rows, q))
            leaf = SLOT
            if np.iscomplexobj(block):
                leaf = {"im": SLOT, "re": SLOT}
                # The float view holds re, im; the document writes im first.
                block = block.view(float).reshape(len(q), -1, 2)[:, :, ::-1].reshape(len(q), -1)
            skeleton = {
                "coefficients": [
                    {"exponent": base + m, "value": leaf} for m in range(rows.shape[1])
                ],
                "parity": parity,
                "q": leaf,
                "residual": SLOT,
            }
            # + 0.0 turns -0.0 into 0, which the template would print as -0.
            leaves = (np.column_stack((block, residuals)) + 0.0).ravel().tolist()
            runs.append((skeleton, len(q), tuple(leaves)))
        return TemplatedList(tuple(runs))


def build_matrix(dec: Su11Decomposition, subgrid: ExponentGrid) -> TridiagonalMatrix:
    """Matrix of the accessory-free operator on a finite parity sub-grid
    that steps +1, as split_even_odd's do, from the decomposition's
    three-term rows, its fields float64 arrays."""
    if subgrid.size is None:
        raise ValidationError("sub-grid is infinite; only finite ladders build matrices")
    if subgrid.size > MATRIX_CAP:
        raise ValidationError(f"sub-grid size {subgrid.size} exceeds the cap {MATRIX_CAP}")
    if subgrid.step != 1.0:
        raise ValueError("parity sub-grids must step by +1")
    exponents = subgrid.base + np.arange(subgrid.size, dtype=float)
    # Rows that overflow at huge |a| show up as failed residuals, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        inward, diag, outward = dec.three_term_rows(exponents, 1.0)
    matrix = TridiagonalMatrix(exponents, diag, inward[1:], outward[:-1])
    leak = max(abs(dec.up(exponents[-1].item())), abs(dec.down(exponents[0].item())))
    # scale >= 1, so a leak of at most 1e-8 passes without it.
    if leak > 1e-8 and leak > 1e-8 * _scale(matrix):
        raise ValueError(
            f"sub-grid is not closed under the operator (leak {leak:.3e}); "
            "grid and decomposition disagree"
        )
    return matrix


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row (one eigenvector) scaled to peak magnitude 1 with its first
    entry above SIGN_TOL made positive real.  A complex phase is formed one
    row at a time, because numpy's scalar division differs from its array
    division in the last bit; each row then meets its phase as a broadcast
    scalar, as a single vector would."""
    out = vectors / np.max(np.abs(vectors), axis=1, keepdims=True)
    first = out[np.arange(len(out)), np.argmax(np.abs(out) > SIGN_TOL, axis=1)]
    if np.iscomplexobj(out):
        return out * np.array([np.conj(x) / abs(x) for x in first])[:, None]
    return np.where(first[:, None] < 0.0, -out, out)


def _twisted_eigenvectors(matrix: TridiagonalMatrix, values: np.ndarray) -> np.ndarray:
    """Column eigenvectors of T by twisted factorization of T - q, for each q.

    With top-down pivots D+ and bottom-up pivots D-, the twist r minimizes
    |D+_r + D-_r - (T_rr - q)| and z_r = 1; above r each step multiplies by
    -upper_i / D+_i, below it by -lower_(i-1) / D-_i (Dhillon and Parlett,
    SIAM J. Matrix Anal. Appl. 25, 2004).  Each ratio is accurate to a few
    ulps, so tiny components stay accurate relative to their size.  A zero
    pivot is moved to eps * _scale(matrix).  The sweep runs without that
    floor and again with it only when some pivot came out exactly 0: the
    two agree up to the first zero pivot, so the floor acts where it would
    have acted in one sweep.
    """
    shifted = np.asarray(matrix.diagonal)[:, None] - values
    lower = np.asarray(matrix.lower)[:, None]
    upper = np.asarray(matrix.upper)[:, None]
    with np.errstate(over="ignore"):  # an inf product fails the residual, not a warning
        products = lower * upper
    # Row i holds D+_i and D-_(n-1-i), so one step moves both sweeps.
    def both(x):
        return np.concatenate((x, x[::-1]), axis=1).reshape(len(x), 2, x.shape[1])

    pivots, steps = both(shifted), both(products)
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, below, step in zip(pivots, pivots[1:], steps):
            below -= step / row
    if not pivots[:-1].all():
        tiny = np.finfo(float).eps * _scale(matrix)
        pivots = both(shifted)
        for row, below, step in zip(pivots, pivots[1:], steps):
            row[row == 0.0] = tiny
            below -= step / row
    plus, minus = pivots[:, 0], pivots[::-1, 1]
    twist = np.argmin(np.abs(plus + minus - shifted), axis=0)
    rows = np.arange(len(shifted) - 1)[:, None]
    # A leading 1 and then the ratios from the bottom up to the twist, and
    # from the top down to it: each column's products, a cumprod apiece.
    up, down = np.ones_like(shifted), np.ones_like(shifted)
    np.copyto(up[:0:-1], -upper / plus[:-1], where=rows < twist)
    np.copyto(down[1:], -lower / minus[1:], where=rows >= twist)
    return np.cumprod(up, axis=0)[::-1] * np.cumprod(down, axis=0)


def _eigensolve(matrix: TridiagonalMatrix, parity: str,
                a: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors of the tridiagonal matrix T of
    the parity sub-grid at a.

    With every off-diagonal product positive, T is similar to a symmetric
    matrix with off-diagonal sqrt(lower * upper); otherwise dense QR is used.
    A dense matrix with an entry beyond float64, as T has at huge |a|, is
    refused before LAPACK sees it.
    """
    n = len(matrix.diagonal)
    dense = np.diag(matrix.diagonal)
    # Every (n + 1)-th entry from n on is the sub-diagonal, from 1 on the super-diagonal.
    flat = dense.reshape(-1)
    with np.errstate(over="ignore"):  # as in build_matrix: an overflow is refused below
        products = np.asarray(matrix.lower) * np.asarray(matrix.upper)
    symmetric = np.all(products > 0.0)
    if symmetric:
        # eigvalsh reads only the lower triangle.
        flat[n::n + 1] = np.sqrt(products)
    else:
        flat[n::n + 1] = matrix.lower
        flat[1::n + 1] = matrix.upper
    if not np.isfinite(dense).all():
        raise NumericalError(f"the matrix of the {parity} sub-grid overflows float64 at a={a!r}")
    try:
        if symmetric:
            values = np.linalg.eigvalsh(dense)
        else:
            values = np.linalg.eigvals(dense)
            if np.all(values.imag == 0.0):
                values = values.real
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return values, _twisted_eigenvectors(matrix, values)


# Each term of a scaled s_k is below 2^(_TERM_LOG2 + 1), so s_k, a sum of
# at most eight, stays below 2^1022 (_residuals).
_TERM_LOG2 = 1018
_LEAST = 2.0**-1074


def _residuals(coeffs: CanonicalCoefficients, base: float, rows: np.ndarray,
               q: np.ndarray) -> np.ndarray:
    """The componentwise residual of each of P pairs on the exponents base,
    base + 1, ..., in float64: heun_core.exact_residuals' max_k |r_k| / s_k
    over the k with s_k > 0, with a7 = -q[j] for row j of rows (P x n, peak
    magnitude 1).  The rows at each exponent are heun_core.row_matrix (with
    a7 = 0) times the factors p(p-1), p and 1, their magnitude sums
    |row_matrix| times the factors' magnitudes, and -q and |q| join the
    middle ones; r and s, P x (n + 2) on z^(base - 1) to z^(base + n), are
    three shifted products of those rows with the coefficients and with
    their magnitudes.  The zero function and a non-finite number score inf.

    Scaling.  a0..a6 and every q are first multiplied by one power of two,
    2^t, which is exact and leaves every ratio as it is.  With powers of
    two M > max|a_i|, |q| (the finite ones) and F > max(1, |p(p-1)|, |p|),
    t = min(_TERM_LOG2 - log2 M - log2 F, 1023) keeps each term
    |a_i f_i(p) c| below 2^(_TERM_LOG2 + 1), so no finite input overflows,
    and only a term below about 2^-2000 of the largest can underflow.

    Bound.  With u = 2^-53, each term of r_k meets at most six roundings
    (its product a_i f_i, two sums in its row, the product with c, two sums
    in r_k), and a complex one at most sqrt(2) times more (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.6): the computed r_k is
    within 10u s_k of the exact one.  Each term of s_k meets at most seven,
    |c| and |q| included: the computed s_k is within 7.01u s_k.  The exact
    ratio e_k is at most 1, so the computed one, after its modulus and
    division (2u), lies within (e_k + 10u)(1 + 9.1u) - e_k < 20u of e_k.
    Each score thus lies within 20u of the exact one, and within 2^-48 of
    exact_residuals', which rounds the exact one up once, wherever no term
    underflows."""
    n = rows.shape[1]
    matrix = np.array(row_matrix(coeffs._replace(a7=0.0)))
    magnitudes, size_m, size_q = np.abs(rows), np.abs(matrix), np.abs(q)
    top = max(size_m.max(), size_q.max())
    if not math.isfinite(top):  # a non-finite number, which scores inf below
        top = max((x for x in (*size_m.flat, *size_q.tolist()) if math.isfinite(x)), default=1.0)
    reach = max(abs(base), abs(base + n - 1))
    scale = 2.0 ** min(_TERM_LOG2 - math.frexp(top)[1]
                       - math.frexp(max(1.0, reach * (reach + 1.0)))[1], 1023)
    p = base + np.arange(n, dtype=float)
    factors = np.array([p * (p - 1.0), p, np.ones(n)])
    signed, sizes = (matrix * scale) @ factors, (size_m * scale) @ np.abs(factors)
    r = np.zeros((len(q), n + 2), np.result_type(rows, q))
    s = np.zeros((len(q), n + 2))
    with np.errstate(invalid="ignore"):  # a non-finite number, which scores inf below
        # The rows of p_m land on z^(p_m + 1), z^p_m and z^(p_m - 1): columns m + 2, m + 1, m.
        r[:, 2:] = signed[0] * rows
        r[:, 1:-1] += (signed[1] - scale * q[:, None]) * rows
        r[:, :-2] += signed[2] * rows
        s[:, 2:] = sizes[0] * magnitudes
        s[:, 1:-1] += (sizes[1] + scale * size_q[:, None]) * magnitudes
        s[:, :-2] += sizes[2] * magnitudes
        # s_k is 0 only where each term of r_k is 0, and otherwise at least
        # the least subnormal, so the floor changes no ratio.
        worst = (np.abs(r) / np.maximum(s, _LEAST)).max(axis=1)
    # A non-finite number makes some ratio NaN (inf / inf, 0 * inf or NaN
    # itself), and so the score.
    worst[np.isnan(worst) | ~rows.any(axis=1)] = math.inf
    return worst


def solve_spectrum(dec: Su11Decomposition, rep: RepresentationDescriptor) -> SpectralResult:
    """All eigenpairs of the finite ladder, even sub-grid first.

    Eigenvalues within a parity are sorted by (real, imag); eigenvectors are
    normalized to peak magnitude 1 with the first nonzero coefficient made
    positive.  Each pair carries the residual of its eigenfunction in the
    original equation with the accessory set to that eigenvalue, scored in
    coefficient space with no sample point, within 2^-48 of verify's exact
    score (_residuals).  Every eigenfunction of a parity lives on the same
    exponents, so one _residuals call scores them all.
    """
    if rep.rep_class is not RepresentationClass.FINITE_DIMENSIONAL:
        raise ValidationError(
            f"spectra are only computed on finite ladders, not {rep.rep_class.value}"
        )
    coeffs = rebuild_coefficients(dec)
    split = split_even_odd(rep)
    warnings: List[str] = []
    subgrids: List[SolvedSubgrid] = []
    for parity, grid in (("even", split.even), ("odd", split.odd)):
        if grid.size == 0:
            continue
        matrix = build_matrix(dec, grid)
        values, vectors = _eigensolve(matrix, parity, coeffs.a2)
        order = np.lexsort((values.imag, values.real))
        values = values[order]
        rows = _normalize_rows(vectors.T[order])
        base = matrix.exponents[0].item()
        subgrids.append(SolvedSubgrid(parity, base, values, rows,
                                      _residuals(coeffs, base, rows, values)))
        if np.iscomplexobj(values):
            warnings.append(
                f"complex eigenvalues on the {parity} sub-grid; the "
                "singularity location a is negative or the matrix is "
                "otherwise non-symmetrizable"
            )
    return SpectralResult(warnings=tuple(warnings), subgrids=tuple(subgrids))
