"""Independent eigenvalue oracle for finite-ladder matrices, used by tests.

It evaluates the characteristic polynomial of a tridiagonal matrix by the
three-term determinant recurrence and brackets its real roots directly, with
no library eigensolver, so the tests can require the production solver
(numpy eigenvalues) to agree with it.
"""

from typing import List

import numpy as np

from heun_su11.errors import NumericalError
from heun_su11.spectrum import TridiagonalMatrix

ORACLE_CAP = 8


class ComplexRootsDetected(NumericalError):
    """Fewer real roots than the matrix dimension were found."""

    def __init__(self, message, real_roots_found=None):
        super().__init__(message)
        self.real_roots_found = real_roots_found


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


def eigen_oracle(matrix: TridiagonalMatrix) -> List[float]:
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
    count = 2048 * n
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
