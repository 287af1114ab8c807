"""Independent residual checks for candidate solutions.

A candidate y (a MonomialSum: any real exponents and their coefficients,
zeros included) is substituted into the polynomial form
f1 y'' + f2 y' + f3 y, which is zero for exact solutions.  Working with the
polynomial form avoids dividing by z(z-1)(z-a) near the finite singular
points.  Each monomial c z^p of y contributes eight terms, one per
coefficient a0..a7 (for instance a0 p(p-1) c z^(p+1)).  The residual at a
sample point is |sum of all terms| divided by the sum of |term| over every
individual term, taken before like powers are merged (for one long series,
over a certified prefix, with a bound on the rest; see below): the
componentwise backward error of evaluating the polynomial form (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 5; Oettli-Prager).  A
plain float sum of the terms errs by at most a small multiple of (term
count) * 2^-53 of that scale, so exact solutions score near machine epsilon
whatever cancellation occurs between f1 y'', f2 y' and f3 y, and no
compensated summation is needed.  A sample whose terms all vanish scores 0;
a non-finite sum or scale scores inf, and the worst over the samples is inf
for the zero function or an empty sample set.

The verifier owns the sampled block scorer, residual_block, which scores
the candidates' coefficients as given, zeros included, at the given
samples.  P candidates that share one exponent set (the eigenfunctions of
one parity sub-grid) share one power matrix z^p and one stacked matrix
product, which numpy runs as one gemm per candidate.  A column's bits
depend on the block's dtype: a real column in a complex block is summed in
complex arithmetic and may differ in the last bits from the same column
scored as a float.  No subcommand scores here: spectrum scores its
eigenpairs in coefficient space (spectrum._residuals), verify scores them
and a series' recurrence rows exactly, and both score a series' two
truncation rows by their share at the samples, all without this module.
residual_for_coefficients, the single-solution report, is the one-column
case of residual_block on a MonomialSum as given.

Of one long series only the terms that can move its residual are scored.
The rule applies to a block of a single column of finite float64
coefficients, more than monomials.CUT_MIN_LIVE of them, whose exponents
step by at least 1 in one direction, with every sample below 1 when they
ascend and above 1 when they descend, so that the powers fall along the
column.  Every spectrum sub-grid (at most 64 terms per parity up
to n = 128, and P >= 2 columns beyond) keeps the full sum, bit for bit.
The prefix and its bound D are monomials.tail_cut's, on the weights
W_m = |c_m| sum_i |a_i| |factor_i(p_m)|, the three rows of the scale's
magnitudes summed, which land on z^(p_m) times z, 1 or 1/z (offset 1);
tau = log2(E) for E a factor 2 beyond the sample nearest the domain's
edge, so that |t - tau| >= 1 at every sample and G <= 2; and numpy's exp2
to round D (any exp2 within an ulp keeps D a bound).
One cut k per column is bisected at the sample nearest the edge: the
shortest prefix with D there under 2^-60 of the largest term.  The prefix
is scored by the body of the full sum, which gives num_k and scale_k, and D
bounds the dropped part of the scale, and of the sum, at every sample.  If
D <= 2^-50 scale_k at every sample, the residual is (num_k + D) / scale_k
rounded up, with scale_k as the scale; otherwise the full sum is taken.
The full numerator is at most num_k + D and the full scale at least
scale_k, so the reported residual is never below the full one, beyond the
float summation error that both sums carry.  A single column with a
non-finite coefficient scores inf at every sample, as the full sum does,
with a NaN scale (the full sum's is NaN or inf), and computes no power.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .heun_core import (
    CanonicalCoefficients,
    HeunParameters,
    canonical_coefficients,
    check_sample_points,
    default_sample_points,
)
from .monomials import CUT_MIN_LIVE, MonomialSum, log2_majorant, tail_cut

class ResidualReport(NamedTuple):
    """Per-point relative residuals of the polynomial form."""

    max_relative_residual: float
    sample_points: Tuple[float, ...]
    residuals: Tuple[float, ...]
    scales: Tuple[float, ...]


def _sums(z: np.ndarray, p: np.ndarray, terms: np.ndarray,
          magnitudes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """|sum of the terms| and the sum of their magnitudes, P x S each, for
    the terms (P x 3 x n, by shift) of the n exponents p at the samples z."""
    power = z[:, None] ** p[None, :]
    up, same, down = (power @ terms.transpose(0, 2, 1)).transpose(2, 0, 1)
    num = np.abs(z * up + same + down / z)
    up, same, down = (power @ magnitudes.transpose(0, 2, 1)).transpose(2, 0, 1)
    return num, z * up + same + down / z


# residual_block keeps the prefix of one long real column when the bound D
# on the rest is at most 2^_PREFIX_LOG2_SCALE of the prefix's scale at every
# sample.  The cut aims at D under 2^_PREFIX_LOG2_AIM of the largest term at
# the sample nearest the edge, far below the rounding of the terms' sum.
_PREFIX_LOG2_SCALE = -50.0
_PREFIX_LOG2_AIM = -60.0


def _prefix(z: np.ndarray, p: np.ndarray, weights: np.ndarray):
    """monomials.tail_cut's (k, [D at each sample z]) for one finite real
    column with magnitude sums weights (W_m) on the exponents p, cut at the
    sample nearest the edge; None where the rule does not apply."""
    steps = np.diff(p)
    if steps.min() >= 1.0 and z.max() < 1.0:
        z_edge, edge = z.max(), 2.0 * z.max()
    elif steps.max() <= -1.0 and z.min() > 1.0:
        z_edge, edge = z.min(), 0.5 * z.min()
    else:
        return None
    if not edge > 2.0**-1021:
        return None
    tau, t_edge = math.log2(edge), math.log2(z_edge)
    log_w = np.log2(weights)
    # The largest term at the edge sample is at least 2^(max(log2 W_m + p_m t) - |t|).
    aim = float(np.max(log_w + p * t_edge)) - abs(t_edge) + _PREFIX_LOG2_AIM
    return tail_cut(memoryview(log2_majorant(log_w, p, tau)), memoryview(p), tau, 1.0, aim,
                    t_edge, np.log2(z), offset=1.0)


_A7 = ((False,) * 3, (False, False, True), (False,) * 3)  # a7's place in the rows


def residual_block(coeffs: CanonicalCoefficients, exponents: np.ndarray, block: np.ndarray,
                   a7: Sequence[complex],
                   z_samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Componentwise relative residuals of P candidates on one exponent set.

    Column j of the block (n x P) holds the coefficients of y_j on z^p for
    the n exponents p, and a7[j] replaces coeffs.a7 for it.  Returns the
    residuals and the scales, P x S each for the S samples.  Each slice
    of the stacked products is its own gemm, so column j scores exactly as
    it would alone in a block of the same dtype.  A zero coefficient is a
    zero term.  A block of one long finite real column scores the certified
    prefix of the module docstring; one of a single column with a
    non-finite coefficient scores inf, with a NaN scale, and computes no
    power.
    """
    check_sample_points(z_samples, coeffs.a2)
    z = np.array(z_samples, dtype=float)
    p = np.asarray(exponents, dtype=float)
    a0, a1, a2, a3, a4, a5, a6, _ = coeffs
    # Rows: the terms that land on z^(p+1), z^p and z^(p-1); columns: the
    # factors p(p-1), p and 1 that y'', y' and y put on c z^p.
    by_shift = np.where(_A7, np.asarray(a7)[:, None, None],
                        [[a0, a3, a6], [a1, a4, 0.0], [a2, a5, 0.0]])
    factors = np.array([p * (p - 1.0), p, np.ones_like(p)])
    columns = np.asarray(block).T[:, None, :]
    single = columns.shape[0] == 1
    with np.errstate(all="ignore"):  # overflow surfaces as a residual of inf
        if single and not np.isfinite(columns).all():
            scale = np.full((1, len(z)), math.nan)
            return np.full_like(scale, math.inf), scale
        terms = (by_shift @ factors) * columns
        magnitudes = (np.abs(by_shift) @ np.abs(factors)) * np.abs(columns)
        cut = None
        if single and len(p) > CUT_MIN_LIVE and columns.dtype == np.float64 and len(z):
            cut = _prefix(z, p, magnitudes[0].sum(axis=0))
        if cut is not None:
            k, bound = cut
            num, scale = _sums(z, p[:k], terms[:, :, :k], magnitudes[:, :, :k])
            if np.all(bound <= 2.0**_PREFIX_LOG2_SCALE * scale):
                # (num_k + D) / scale_k, each of its two roundings taken up.
                residuals = np.nextafter(np.nextafter(num + bound, math.inf) / scale, math.inf)
            else:
                cut = None
        if cut is None:
            num, scale = _sums(z, p, terms, magnitudes)
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


def residual_for_coefficients(coeffs: CanonicalCoefficients, solution: MonomialSum,
                              z_samples: Sequence[float]) -> ResidualReport:
    """Componentwise relative residual of f1 y'' + f2 y' + f3 y at the given
    points: the one-column case of residual_block, on the terms as given."""
    c = np.array(solution.coeffs)[:, None]
    residuals, scales = residual_block(coeffs, solution.exponents, c, [coeffs.a7], z_samples)
    return ResidualReport(
        max_relative_residual=_worst(residuals, c).item(),
        sample_points=tuple(map(float, z_samples)),
        residuals=tuple(residuals[0].tolist()),
        scales=tuple(scales[0].tolist()),
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
