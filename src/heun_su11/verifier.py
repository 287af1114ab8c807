"""Independent residual checks for candidate solutions.

A candidate y (finite monomial sum) is substituted into the polynomial form
f1 y'' + f2 y' + f3 y, which is zero for exact solutions.  Working with the
polynomial form avoids dividing by z(z-1)(z-a) near the finite singular
points.  Each monomial c z^p of y contributes eight terms, one per
coefficient a0..a7 (for instance a0 p(p-1) c z^(p+1)).  The residual at a
sample point is |sum of all terms| divided by the sum of |term| over every
individual term, taken before like powers are merged: the componentwise
backward error of evaluating the polynomial form (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 5; Oettli-Prager).  A plain float sum
of the terms errs by at most a small multiple of (term count) * 2^-53 of that
scale, so exact solutions score near machine epsilon whatever cancellation
occurs between f1 y'', f2 y' and f3 y, and no compensated summation is
needed.  A sample whose terms all vanish scores 0; a non-finite sum or scale
scores inf, and the worst over the samples is inf for the zero function or
an empty sample set.

residual_block scores P candidates that share one exponent set (the
eigenfunctions of one parity sub-grid) at once: it builds the power matrix
z^p once and reduces the P term stacks with one stacked matrix product,
which numpy runs as one gemm per candidate.  The power matrix leaves every
z^p with p*log2(z) < UNDERFLOW_LOG2 (-1100) at 0.0 instead of computing it:
the true power lies below 2^-1100, far under half the smallest subnormal,
so numpy's power rounds it to 0.0 too, and the matrix and every residual
stay the same bit for bit.  On a long series most of the matrix is such
powers, which numpy computes on a slow path.  A column's bits depend on the
block's dtype: a real column in a complex block is summed in complex
arithmetic and may differ in the last bits from the same column scored as
a float.  worst_residuals is the one scorer of spectra and series:
spectrum and series score their output through it, and verify re-scores a
document through the same call on the same block, so verify reproduces the
emitter's residuals bit for bit.  residual_for_coefficients, the
single-solution report, is the one-column case of residual_block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import SamplePointAtSingularity
from .heun_core import CanonicalCoefficients, HeunParameters, canonical_coefficients
from .monomials import UNDERFLOW_LOG2, MonomialSum

SINGULARITY_RADIUS = 1e-6
DEFAULT_SAMPLE_COUNT = 25


def chebyshev_points(lo: float, hi: float, count: int = DEFAULT_SAMPLE_COUNT) -> Tuple[float, ...]:
    """Chebyshev-spaced interior points of (lo, hi), ascending."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = [
        mid + half * math.cos(math.pi * (2 * k + 1) / (2 * count))
        for k in range(count)
    ]
    return tuple(sorted(nodes))


def check_sample_points(z_samples: Sequence[float], a: float) -> None:
    """Reject sample points at or too near the singular points 0, 1, a."""
    for z in z_samples:
        if z <= 0.0:
            raise SamplePointAtSingularity(
                f"sample z={z} is not on the positive axis"
            )
        if abs(z - 1.0) < SINGULARITY_RADIUS or abs(z - a) < SINGULARITY_RADIUS:
            raise SamplePointAtSingularity(
                f"sample z={z} is within {SINGULARITY_RADIUS:g} of a singular point"
            )


@dataclass(frozen=True)
class ResidualReport:
    """Per-point relative residuals of the polynomial form."""

    max_relative_residual: float
    sample_points: Tuple[float, ...]
    residuals: Tuple[float, ...]
    scales: Tuple[float, ...]


def _power_matrix(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """z[:, None] ** p[None, :], bit for bit, without computing the powers
    with p*log2(z) < UNDERFLOW_LOG2: those are exactly 0.0, and numpy takes
    a slow path for them.  The negated test keeps a NaN product live."""
    live = ~(p[None, :] * np.log2(z)[:, None] < UNDERFLOW_LOG2)
    return np.power(z[:, None], p[None, :], out=np.zeros(live.shape), where=live)


def residual_block(
    coeffs: CanonicalCoefficients,
    exponents: np.ndarray,
    block: np.ndarray,
    a7: Sequence[complex],
    z_samples: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Componentwise relative residuals of P candidates on one exponent set.

    Column j of the block (n x P) holds the coefficients of y_j on z^p for
    the n exponents p, and a7[j] replaces coeffs.a7 for it.  Returns the
    residuals and the scales, P x S each for the S samples.  Each slice
    of the stacked products is its own gemm, so column j scores exactly as
    it would alone in a block of the same dtype.  A zero coefficient is kept as a zero term; the
    one-column call drops it, which may change the gemm's order of summation
    and so the last bits.
    """
    check_sample_points(z_samples, coeffs.a2)
    z = np.array(z_samples, dtype=float)
    p = np.asarray(exponents, dtype=float)
    a = coeffs.as_tuple()
    # Rows: the terms that land on z^(p+1), z^p and z^(p-1); columns: the
    # factors p(p-1), p and 1 that y'', y' and y put on c z^p.
    by_shift = np.array(
        [[[a[0], a[3], a[6]], [a[1], a[4], x], [a[2], a[5], 0.0]] for x in a7]
    )
    factors = np.stack([p * (p - 1.0), p, np.ones_like(p)])
    columns = np.asarray(block).T[:, None, :]
    with np.errstate(all="ignore"):  # overflow surfaces as a residual of inf
        terms = (by_shift @ factors) * columns
        magnitudes = (np.abs(by_shift) @ np.abs(factors)) * np.abs(columns)
        power = _power_matrix(z, p)
        up, same, down = (power @ terms.transpose(0, 2, 1)).transpose(2, 0, 1)
        num = np.abs(z * up + same + down / z)
        up, same, down = (power @ magnitudes.transpose(0, 2, 1)).transpose(2, 0, 1)
        scale = z * up + same + down / z
        residuals = np.where(scale > 0.0, num / scale, 0.0)
    residuals[~(np.isfinite(num) & np.isfinite(scale))] = math.inf
    return residuals, scale


def _worst(residuals: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Worst of each row of residuals (P x S) for the P columns of the block.
    A column with no nonzero coefficient is the zero function, which solves
    every equation and so proves nothing; it scores inf, and so does every
    column when no sample is left to test it on."""
    worst = residuals.max(axis=1, initial=0.0)
    worst[~np.any(np.asarray(block) != 0.0, axis=0) | (residuals.shape[1] == 0)] = math.inf
    return worst


def worst_residuals(
    coeffs: CanonicalCoefficients,
    exponents: np.ndarray,
    block: np.ndarray,
    q: np.ndarray,
    z_samples: Sequence[float],
) -> np.ndarray:
    """Worst residual over the samples of each column of the block, scored
    with the accessory q[j]: a7 = -q, kept real for a real q as with_accessory
    keeps it."""
    q = np.asarray(q)
    a7 = np.where(q.imag != 0.0, -q, -q.real)
    residuals, _ = residual_block(coeffs, exponents, block, a7, z_samples)
    return _worst(residuals, block)


def residual_for_coefficients(
    coeffs: CanonicalCoefficients,
    solution: MonomialSum,
    z_samples: Sequence[float],
) -> ResidualReport:
    """Componentwise relative residual of f1 y'' + f2 y' + f3 y at the given
    points: the one-column case of residual_block."""
    nonzero = {k: c for k, c in solution.coeffs.items() if c != 0.0}
    p = solution.base + 0.5 * np.fromiter(nonzero, float, len(nonzero))
    c = np.array(list(nonzero.values()))
    residuals, scales = residual_block(coeffs, p, c[:, None], [coeffs.a7], z_samples)
    return ResidualReport(
        max_relative_residual=_worst(residuals, c[:, None]).item(),
        sample_points=tuple(map(float, z_samples)),
        residuals=tuple(residuals[0].tolist()),
        scales=tuple(scales[0].tolist()),
    )


def default_sample_points(
    a: float, domain: Tuple[float, float] | None = None, count: int = DEFAULT_SAMPLE_COUNT
) -> Tuple[float, ...]:
    """Chebyshev samples in domain (default (0, min(1,|a|))), less every node
    within SINGULARITY_RADIUS of 1 or a.  The clip matters for a domain that
    straddles 1 or a, and for the default domain at small |a|: its top node
    lies about 1e-3*|a| below |a|, so from |a| = 1e-3 down the clip removes
    nodes near a, and at a = 1e-6 or 1e-7 it removes all 25.  On that empty
    set the worst residual of any candidate is inf."""
    if domain is None:
        domain = (0.0, min(1.0, abs(a)))
    lo, hi = domain
    nodes = chebyshev_points(lo, hi, count)
    return tuple(
        z
        for z in nodes
        if z > 0.0 and abs(z - 1.0) >= SINGULARITY_RADIUS and abs(z - a) >= SINGULARITY_RADIUS
    )


def ode_residual(
    params: HeunParameters,
    solution: MonomialSum,
    z_samples: Sequence[float] | None = None,
    domain: Tuple[float, float] | None = None,
) -> ResidualReport:
    """Residual of a candidate against the equation for these parameters."""
    coeffs = canonical_coefficients(params)
    if z_samples is None:
        z_samples = default_sample_points(params.a, domain)
    return residual_for_coefficients(coeffs, solution, z_samples)

