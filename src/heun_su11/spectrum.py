"""Finite spectra: tridiagonal eigenproblems on parity sub-grids.

On a finite ladder the factorized operator acts on the basis
(z^p0, z^(p0+1), ..., ordered by ascending exponent) as a tridiagonal
matrix T with T[m][m] = A(p_m), sub-diagonal T[m+1][m] = up(p_m) and
super-diagonal T[m][m+1] = down(p_(m+1)), where A is the accessory-free
diagonal: row m is the decomposition's three-term row at p_m, the series'
row too.  Admissible accessory values are then the eigenvalues of
T b = q b, and each eigenvector gives a finite polynomial in powers of
sqrt(z) solving the equation with that q.

solve_spectrum takes the eigenvalues from numpy (symmetric or dense, by the
sign of the off-diagonal products) and every eigenvector from one twisted
factorization of T - q.  The tests hold an independent oracle, a 50-digit
Sturm count of the eigenvalues of T below a point, and with it certify
every eigenvalue the solver returns within 1e-10 on each sub-grid whose
off-diagonal products are not negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import EigensolverNoConvergence, GridTooLarge, UnsupportedClass
from .monomials import MonomialSum
from .representations import (
    ExponentGrid,
    RepresentationClass,
    RepresentationDescriptor,
    split_even_odd,
)
from .su11_algebra import Su11Decomposition, rebuild_coefficients
from .verifier import default_sample_points, worst_residuals

MATRIX_CAP = 64
SIGN_TOL = 1e-12


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Operator matrix on one parity sub-grid, basis by ascending exponent."""

    exponents: Tuple[float, ...]
    diagonal: Tuple[float, ...]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.diagonal)


@dataclass(frozen=True)
class SqrtZPolynomial:
    """y(z) = sum_m coefficients[m] * z^(base_exponent + m)."""

    base_exponent: float
    coefficients: Tuple[complex, ...]

    def as_monomial_sum(self) -> MonomialSum:
        return MonomialSum(
            self.base_exponent,
            {2 * m: c for m, c in enumerate(self.coefficients) if c != 0.0},
        )

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [
                {"exponent": self.base_exponent + m, "value": c}
                for m, c in enumerate(self.coefficients)
            ]
        }


@dataclass(frozen=True)
class EigenPair:
    q: complex
    eigenfunction: SqrtZPolynomial
    parity: str
    residual: float

    def to_json_dict(self) -> dict:
        doc = {"q": self.q, "parity": self.parity, "residual": self.residual}
        doc.update(self.eigenfunction.to_json_dict())
        return doc


@dataclass(frozen=True)
class SpectralResult:
    pairs: Tuple[EigenPair, ...]
    warnings: Tuple[str, ...]

    def to_json_list(self) -> list:
        return [pair.to_json_dict() for pair in self.pairs]


def build_matrix(dec: Su11Decomposition, subgrid: ExponentGrid) -> TridiagonalMatrix:
    """Matrix of the accessory-free operator on a finite parity sub-grid,
    from the decomposition's three-term rows."""
    if subgrid.size is None:
        raise GridTooLarge("sub-grid is infinite; only finite ladders build matrices")
    if subgrid.size > MATRIX_CAP:
        raise GridTooLarge(f"sub-grid size {subgrid.size} exceeds the cap {MATRIX_CAP}")
    if abs(abs(subgrid.step) - 1.0) > 1e-12:
        raise ValueError("parity sub-grids must step by whole units")
    exponents = sorted(subgrid.exponents())
    inward, diag, outward = dec.three_term_rows(np.array(exponents), 1.0)
    diagonal = tuple(diag.tolist())
    lower, upper = tuple(inward[1:].tolist()), tuple(outward[:-1].tolist())
    scale = max([1.0, *map(abs, diagonal), *map(abs, lower), *map(abs, upper)])
    leak = max(abs(dec.up(exponents[-1])), abs(dec.down(exponents[0])))
    if leak > 1e-8 * scale:
        raise ValueError(
            f"sub-grid is not closed under the operator (leak {leak:.3e}); "
            "grid and decomposition disagree"
        )
    return TridiagonalMatrix(
        exponents=tuple(exponents), diagonal=diagonal, lower=lower, upper=upper
    )


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
    pivot is moved to eps * max(1, max|T_ij|).
    """
    n = matrix.dimension
    shifted = np.asarray(matrix.diagonal)[:, None] - values
    lower = np.asarray(matrix.lower)[:, None]
    upper = np.asarray(matrix.upper)[:, None]
    products = lower * upper
    entries = (1.0, *matrix.diagonal, *matrix.lower, *matrix.upper)
    tiny = np.finfo(float).eps * max(map(abs, entries))
    # D+ top-down and D- bottom-up, the latter stored reversed: one row step for both.
    pivots = np.stack((shifted, shifted[::-1]))
    steps = np.stack((products, products[::-1]))
    for i in range(n - 1):
        row = pivots[:, i]
        row[row == 0.0] = tiny
        pivots[:, i + 1] -= steps[:, i] / row
    plus, minus = pivots[0], pivots[1, ::-1]
    twist = np.argmin(np.abs(plus + minus - shifted), axis=0)
    rows = np.arange(n - 1)[:, None]
    above = np.where(rows < twist, -upper / plus[:-1], 1.0)
    below = np.where(rows >= twist, -lower / minus[1:], 1.0)
    ones = np.ones_like(shifted[:1])
    above_twist = np.cumprod(np.vstack((ones, above[::-1])), axis=0)[::-1]
    return above_twist * np.cumprod(np.vstack((ones, below)), axis=0)


def _eigensolve(matrix: TridiagonalMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors of the tridiagonal matrix T.

    With every off-diagonal product positive, T is similar to a symmetric
    matrix with off-diagonal sqrt(lower * upper); otherwise dense QR is used.
    """
    n = matrix.dimension
    dense = np.diag(matrix.diagonal)
    products = np.asarray(matrix.lower) * np.asarray(matrix.upper)
    try:
        if np.all(products > 0.0):
            # eigvalsh reads only the lower triangle.
            dense[np.arange(1, n), np.arange(n - 1)] = np.sqrt(products)
            values = np.linalg.eigvalsh(dense)
        else:
            dense[np.arange(1, n), np.arange(n - 1)] = matrix.lower
            dense[np.arange(n - 1), np.arange(1, n)] = matrix.upper
            values = np.linalg.eigvals(dense)
            if np.all(values.imag == 0.0):
                values = values.real
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(str(exc)) from exc
    return values, _twisted_eigenvectors(matrix, values)


def solve_spectrum(dec: Su11Decomposition, rep: RepresentationDescriptor) -> SpectralResult:
    """All eigenpairs of the finite ladder, even sub-grid first.

    Eigenvalues within a parity are sorted by (real, imag); eigenvectors are
    normalized to peak magnitude 1 with the first nonzero coefficient made
    positive.  Each pair carries the relative residual of its eigenfunction
    in the original equation with the accessory set to that eigenvalue.
    Every eigenfunction of a parity lives on the same exponents, so one
    worst_residuals call scores them all, the call verify repeats on the
    printed document.
    """
    if rep.rep_class is not RepresentationClass.FINITE_DIMENSIONAL:
        raise UnsupportedClass(
            f"spectra are only computed on finite ladders, not {rep.rep_class.value}"
        )
    base_coeffs = rebuild_coefficients(dec)
    a = 4.0 * dec.c_minus
    samples = default_sample_points(a)
    split = split_even_odd(rep)
    pairs: List[EigenPair] = []
    warnings: List[str] = []
    for parity, grid in (("even", split.even), ("odd", split.odd)):
        if grid.size == 0:
            continue
        matrix = build_matrix(dec, grid)
        values, vectors = _eigensolve(matrix)
        order = np.lexsort((values.imag, values.real))
        values = values[order]
        rows = _normalize_rows(vectors.T[order])
        base = matrix.exponents[0]
        worst = worst_residuals(base_coeffs, base + np.arange(len(values)), rows.T, values, samples)
        for q, row, residual in zip(values.tolist(), rows.tolist(), worst.tolist()):
            pairs.append(
                EigenPair(
                    q=q,
                    eigenfunction=SqrtZPolynomial(base, tuple(row)),
                    parity=parity,
                    residual=residual,
                )
            )
        if np.iscomplexobj(values):
            warnings.append(
                f"complex eigenvalues on the {parity} sub-grid; the "
                "singularity location a is negative or the matrix is "
                "otherwise non-symmetrizable"
            )
    return SpectralResult(pairs=tuple(pairs), warnings=tuple(warnings))
