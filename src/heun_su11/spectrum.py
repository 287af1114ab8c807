"""Finite spectra: tridiagonal eigenproblems on parity sub-grids.

On a finite ladder the factorized operator acts on the basis
(z^p0, z^(p0+1), ..., ordered by ascending exponent) as a tridiagonal
matrix T with T[m][m] = A(p_m), sub-diagonal T[m+1][m] = up(p_m) and
super-diagonal T[m][m+1] = down(p_(m+1)), where A is the accessory-free
diagonal.  Admissible accessory values are then the eigenvalues of
T b = q b, and each eigenvector gives a finite polynomial in powers of
sqrt(z) solving the equation with that q.

Two solver routes are kept deliberately separate: solve_spectrum uses
library eigensolvers (a symmetrizing similarity plus a bisection-based
symmetric tridiagonal solver when the off-diagonal products allow it,
dense Hessenberg QR otherwise), while eigen_oracle evaluates the
characteristic polynomial by the three-term determinant recurrence and
brackets its real roots directly.  Tests require the two to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ComplexRootsDetected,
    EigensolverNoConvergence,
    GridTooLarge,
    UnsupportedClass,
)
from .monomials import MonomialSum
from .representations import (
    ExponentGrid,
    RepresentationClass,
    RepresentationDescriptor,
    split_even_odd,
)
from .su11_algebra import MonomialAction, Su11Decomposition, monomial_action, rebuild_coefficients
from .verifier import default_sample_points, residual_for_coefficients

MATRIX_CAP = 64
ORACLE_CAP = 8
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

    def to_dense(self) -> np.ndarray:
        n = self.dimension
        dense = np.zeros((n, n))
        dense[np.arange(n), np.arange(n)] = self.diagonal
        if n > 1:
            dense[np.arange(1, n), np.arange(n - 1)] = self.lower
            dense[np.arange(n - 1), np.arange(1, n)] = self.upper
        return dense


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

    def evaluate(self, z: float) -> complex | float:
        return self.as_monomial_sum().evaluate(z)

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


def build_matrix(
    action: MonomialAction, subgrid: ExponentGrid, cap: int = MATRIX_CAP
) -> TridiagonalMatrix:
    """Matrix of the accessory-free operator on a finite parity sub-grid."""
    if subgrid.size is None:
        raise GridTooLarge("sub-grid is infinite; only finite ladders build matrices")
    if subgrid.size > cap:
        raise GridTooLarge(f"sub-grid size {subgrid.size} exceeds the cap {cap}")
    if abs(abs(subgrid.step) - 1.0) > 1e-12:
        raise ValueError("parity sub-grids must step by whole units")
    exponents = sorted(subgrid.exponents())
    grid = np.array(exponents)
    diagonal = tuple(action.diag_base(grid).tolist())
    up = action.up(grid).tolist()
    down = action.down(grid).tolist()
    lower, upper = tuple(up[:-1]), tuple(down[1:])
    scale = max([1.0, *map(abs, diagonal), *map(abs, lower), *map(abs, upper)])
    leak = max(abs(up[-1]), abs(down[0]))
    if leak > 1e-8 * scale:
        raise ValueError(
            f"sub-grid is not closed under the operator (leak {leak:.3e}); "
            "grid and decomposition disagree"
        )
    return TridiagonalMatrix(
        exponents=tuple(exponents), diagonal=diagonal, lower=lower, upper=upper
    )


def _normalize_vector(vec: np.ndarray) -> np.ndarray:
    """Largest-|coefficient| magnitude 1; first nonzero entry positive real."""
    out = np.array(vec, copy=True)
    peak = np.max(np.abs(out))
    if peak > 0.0:
        out = out / peak
    for x in out:
        if abs(x) > SIGN_TOL:
            if np.iscomplexobj(out):
                out = out * (np.conj(x) / abs(x))
            elif x < 0.0:
                out = -out
            break
    return out


def _eigensolve(matrix: TridiagonalMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors of the tridiagonal matrix."""
    n = matrix.dimension
    if n == 1:
        return np.array([matrix.diagonal[0]]), np.eye(1)
    lower = np.asarray(matrix.lower)
    upper = np.asarray(matrix.upper)
    products = lower * upper
    try:
        if np.all(products > 0.0):
            # Similarity D^-1 T D with d_(m+1)/d_m = sqrt(lower_m/upper_m)
            # makes T symmetric; bisection then gives guaranteed-real values.
            ratios = np.sqrt(lower / upper)
            d = np.concatenate(([1.0], np.cumprod(ratios)))
            sym_off = np.sqrt(products)
            values, vectors = eigh_tridiagonal(
                np.asarray(matrix.diagonal), sym_off, lapack_driver="stebz"
            )
            return values, d[:, None] * vectors
        values, vectors = np.linalg.eig(matrix.to_dense())
        if np.all(values.imag == 0.0):
            values = values.real
            vectors = vectors.real
        return values, vectors
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(str(exc)) from exc


def solve_spectrum(
    dec: Su11Decomposition,
    rep: RepresentationDescriptor,
    cap: int = MATRIX_CAP,
) -> SpectralResult:
    """All eigenpairs of the finite ladder, even sub-grid first.

    Eigenvalues within a parity are sorted by (real, imag); eigenvectors are
    normalized to peak magnitude 1 with the first nonzero coefficient made
    positive.  Each pair carries the relative residual of its eigenfunction
    in the original equation with the accessory set to that eigenvalue.
    """
    if rep.rep_class is not RepresentationClass.FINITE_DIMENSIONAL:
        raise UnsupportedClass(
            f"spectra are only computed on finite ladders, not {rep.rep_class.value}"
        )
    action = monomial_action(dec)
    base_coeffs = rebuild_coefficients(dec)
    a = 4.0 * dec.c_minus
    samples = default_sample_points(a)
    split = split_even_odd(rep)
    pairs: List[EigenPair] = []
    warnings: List[str] = []
    for parity, grid in (("even", split.even), ("odd", split.odd)):
        if grid.size == 0:
            continue
        matrix = build_matrix(action, grid, cap)
        values, vectors = _eigensolve(matrix)
        order = np.lexsort((values.imag, values.real))
        for idx in order:
            q = values[idx]
            vec = _normalize_vector(vectors[:, idx])
            poly = SqrtZPolynomial(
                base_exponent=matrix.exponents[0],
                coefficients=tuple(vec.tolist()),
            )
            coeffs_q = base_coeffs.with_accessory(q)
            report = residual_for_coefficients(
                coeffs_q, poly.as_monomial_sum(), samples
            )
            q_out = complex(q) if np.iscomplexobj(values) else float(q)
            pairs.append(
                EigenPair(
                    q=q_out,
                    eigenfunction=poly,
                    parity=parity,
                    residual=report.max_relative_residual,
                )
            )
        if np.iscomplexobj(values):
            warnings.append(
                f"complex eigenvalues on the {parity} sub-grid; the "
                "singularity location a is negative or the matrix is "
                "otherwise non-symmetrizable"
            )
    return SpectralResult(pairs=tuple(pairs), warnings=tuple(warnings))


def characteristic_polynomial(matrix: TridiagonalMatrix, x):
    """det(T - x I) by the three-term determinant recurrence.

    x may be a scalar or a numpy array (evaluated elementwise)."""
    prev2 = 1.0
    prev1 = matrix.diagonal[0] - x
    for k in range(1, matrix.dimension):
        off = matrix.lower[k - 1] * matrix.upper[k - 1]
        current = (matrix.diagonal[k] - x) * prev1 - off * prev2
        prev2, prev1 = prev1, current
    return prev1


def _bisect_root(matrix: TridiagonalMatrix, lo: float, hi: float, tol: float) -> float:
    f_lo = characteristic_polynomial(matrix, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        f_mid = characteristic_polynomial(matrix, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def eigen_oracle(matrix: TridiagonalMatrix, scan_per_dim: int = 2048) -> List[float]:
    """Real eigenvalues by dense sign-change scanning plus bisection.

    Independent of any library eigensolver; intended as a test oracle for
    small matrices (dimension <= 8) whose eigenvalues are simple, which
    holds whenever the off-diagonal products are nonzero.  Roots of even
    multiplicity produce no sign change and would be missed.
    """
    n = matrix.dimension
    if n > ORACLE_CAP:
        raise ValueError(f"oracle accepts dimension <= {ORACLE_CAP}, got {n}")
    radius = [0.0] * n
    for m in range(n - 1):
        radius[m] += abs(matrix.upper[m])
        radius[m + 1] += abs(matrix.lower[m])
    lo = min(d - r for d, r in zip(matrix.diagonal, radius))
    hi = max(d + r for d, r in zip(matrix.diagonal, radius))
    scale = max(1.0, abs(lo), abs(hi))
    pad = 1e-6 * scale
    lo -= pad
    hi += pad
    count = scan_per_dim * n
    xs = np.linspace(lo, hi, count + 1)
    fs = np.asarray(characteristic_polynomial(matrix, xs))
    tol = 1e-15 * scale
    roots: List[float] = []
    for i in range(count):
        if fs[i] == 0.0:
            if not roots or abs(xs[i] - roots[-1]) > tol:
                roots.append(float(xs[i]))
        elif (fs[i] < 0.0) != (fs[i + 1] < 0.0):
            root = _bisect_root(matrix, float(xs[i]), float(xs[i + 1]), tol)
            if not roots or abs(root - roots[-1]) > tol:
                roots.append(root)
    if fs[-1] == 0.0 and (not roots or abs(xs[-1] - roots[-1]) > tol):
        roots.append(float(xs[-1]))
    if len(roots) < n:
        err = ComplexRootsDetected(
            f"found {len(roots)} real eigenvalues out of {n}; the rest form "
            "complex-conjugate pairs"
        )
        err.real_roots_found = len(roots)
        raise err
    return roots
