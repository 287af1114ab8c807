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

No subcommand scores here: spectrum scores its eigenpairs in coefficient
space (spectrum._residuals), verify scores them and a series' recurrence
rows exactly, and both score a series' two truncation rows by their share
at the samples, all without this module.  residual_for_coefficients scores
one MonomialSum as given, zeros included, on heun_core.row_matrix's rows.

Of one long series only the terms that can move its residual are scored.
The rule applies to a sum of more than monomials.CUT_MIN_LIVE finite
float64 coefficients whose exponents step by at least 1 in one direction,
with every sample below 1 when they ascend and above 1 when they descend,
so that the powers fall along the sum.  Every spectrum eigenfunction up to
n = 128 (at most 64 terms per parity) keeps the full sum, bit for bit.
The prefix and its bound D are monomials.tail_cut's, on the weights
W_m = |c_m| sum_i |a_i| |factor_i(p_m)|, the three rows of the scale's
magnitudes summed, which land on z^(p_m) times z, 1 or 1/z (offset 1);
tau = log2(E) for E a factor 2 beyond the sample nearest the domain's
edge, so that |t - tau| >= 1 at every sample and G <= 2; and numpy's exp2
to round D (any exp2 within an ulp keeps D a bound).  One cut k is
bisected at the sample nearest the edge: the shortest prefix with D there
under 2^-60 of the largest term.  All n terms are formed and the prefix
sliced from them, since a product's bits depend on its shape; the prefix
is scored by the body of the full sum, which gives num_k and scale_k, and
D bounds the dropped part of the scale, and of the sum, at every sample.
If D <= 2^-50 scale_k at every sample, the residual is (num_k + D) /
scale_k rounded up, with scale_k as the scale; otherwise the full sum is
taken.
The full numerator is at most num_k + D and the full scale at least
scale_k, so the reported residual is never below the full one, beyond the
float summation error that both sums carry.  A sum with a non-finite
coefficient scores inf at every sample, as the full sum does, with a NaN
scale (the full sum's is NaN or inf), and computes no power.
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
    row_matrix,
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
    """|sum of the terms| and the sum of their magnitudes at the samples z,
    for the terms (3 x n, by shift) of the n exponents p."""
    power = z[:, None] ** p[None, :]
    up, same, down = (power @ terms.T).T
    num = np.abs(z * up + same + down / z)
    up, same, down = (power @ magnitudes.T).T
    return num, z * up + same + down / z


# The prefix of one long real sum is kept when the bound D on the rest is at
# most 2^_PREFIX_LOG2_SCALE of the prefix's scale at every sample.  The cut
# aims at D under 2^_PREFIX_LOG2_AIM of the largest term at the sample
# nearest the edge, far below the rounding of the terms' sum.
_PREFIX_LOG2_SCALE = -50.0
_PREFIX_LOG2_AIM = -60.0


def _prefix(z: np.ndarray, p: np.ndarray, weights: np.ndarray):
    """monomials.tail_cut's (k, [D at each sample z]) for one finite real
    sum with magnitude sums weights (W_m) on the exponents p, cut at the
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


def _score(z: np.ndarray, p: np.ndarray, c: np.ndarray,
           matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The residuals and scales at the samples z of the sum of c_m z^(p_m)
    under the rows matrix: the certified prefix where the rule applies and
    holds, the full sum otherwise."""
    if not np.isfinite(c).all():
        scale = np.full(len(z), math.nan)
        return np.full_like(scale, math.inf), scale
    # Rows: the terms that land on z^(p+1), z^p and z^(p-1); columns: the
    # factors p(p-1), p and 1 that y'', y' and y put on c z^p.
    factors = np.array([p * (p - 1.0), p, np.ones_like(p)])
    terms = (matrix @ factors) * c
    magnitudes = (np.abs(matrix) @ np.abs(factors)) * np.abs(c)
    cut = None
    if len(p) > CUT_MIN_LIVE and c.dtype == np.float64 and len(z):
        cut = _prefix(z, p, magnitudes.sum(axis=0))
    if cut is not None:
        k, bound = cut
        num, scale = _sums(z, p[:k], terms[:, :k], magnitudes[:, :k])
        # (num_k + D) / scale_k, each of its two roundings taken up.
        residuals = np.nextafter(np.nextafter(num + bound, math.inf) / scale, math.inf)
    if cut is None or not np.all(bound <= 2.0**_PREFIX_LOG2_SCALE * scale):
        num, scale = _sums(z, p, terms, magnitudes)
        residuals = np.where(scale > 0.0, num / scale, 0.0)
    residuals[~(np.isfinite(num) & np.isfinite(scale))] = math.inf
    return residuals, scale


def residual_for_coefficients(coeffs: CanonicalCoefficients, solution: MonomialSum,
                              z_samples: Sequence[float]) -> ResidualReport:
    """Componentwise relative residual of f1 y'' + f2 y' + f3 y at the given
    points, on the terms as given: a zero coefficient is a zero term.  A
    long finite real sum scores the certified prefix of the module
    docstring; a sum with a non-finite coefficient scores inf, with a NaN
    scale, and computes no power."""
    check_sample_points(z_samples, coeffs.a2)
    z = np.array(z_samples, dtype=float)
    c = np.array(solution.coeffs)
    with np.errstate(all="ignore"):  # overflow surfaces as a residual of inf
        residuals, scales = _score(z, np.asarray(solution.exponents, dtype=float), c,
                                   np.array(row_matrix(coeffs)))
    # The zero function solves every equation and so proves nothing; it
    # scores inf, and so does every sum when no sample is left to test it on.
    worst = residuals.max(initial=0.0).item() if c.any() and len(z) else math.inf
    return ResidualReport(
        max_relative_residual=worst,
        sample_points=tuple(map(float, z_samples)),
        residuals=tuple(residuals.tolist()),
        scales=tuple(scales.tolist()),
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
