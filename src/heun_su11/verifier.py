"""Independent residual checks for candidate solutions.

A candidate y (finite monomial sum) is substituted into the polynomial form
f1 y'' + f2 y' + f3 y, which is zero for exact solutions.  Working with the
polynomial form avoids dividing by z(z-1)(z-a) near the finite singular
points.  The residual at each sample point is relativized by the largest of
the three term magnitudes so that exact solutions score ~1e-16 regardless of
overall scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import SamplePointAtSingularity
from .heun_core import (
    CanonicalCoefficients,
    HeunParameters,
    canonical_coefficients,
    second_order_action,
)
from .monomials import MonomialSum

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


def check_sample_points(
    z_samples: Sequence[float], a: float, radius: float = SINGULARITY_RADIUS
) -> None:
    """Reject sample points at or too near the singular points 0, 1, a."""
    for z in z_samples:
        if z <= 0.0:
            raise SamplePointAtSingularity(
                f"sample z={z} is not on the positive axis"
            )
        if abs(z - 1.0) < radius or abs(z - a) < radius:
            raise SamplePointAtSingularity(
                f"sample z={z} is within {radius:g} of a singular point"
            )


@dataclass(frozen=True)
class ResidualReport:
    """Per-point relative residuals of the polynomial form."""

    max_relative_residual: float
    sample_points: Tuple[float, ...]
    residuals: Tuple[float, ...]
    scales: Tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "max_relative_residual": self.max_relative_residual,
            "sample_points": list(self.sample_points),
            "residuals": list(self.residuals),
            "scales": list(self.scales),
        }


def residual_for_coefficients(
    coeffs: CanonicalCoefficients,
    solution: MonomialSum,
    z_samples: Sequence[float],
) -> ResidualReport:
    """Relative residual of f1 y'' + f2 y' + f3 y at the given points."""
    check_sample_points(z_samples, coeffs.a2)
    f1_part, f2_part, f3_part = second_order_action(coeffs, solution)
    residuals = []
    scales = []
    for z in z_samples:
        t1 = f1_part.evaluate(z)
        t2 = f2_part.evaluate(z)
        t3 = f3_part.evaluate(z)
        scale = max(abs(t1), abs(t2), abs(t3))
        num = abs(t1 + t2 + t3)
        residuals.append(num / scale if scale > 0.0 else 0.0)
        scales.append(scale)
    return ResidualReport(
        max_relative_residual=max(residuals, default=0.0),
        sample_points=tuple(float(z) for z in z_samples),
        residuals=tuple(residuals),
        scales=tuple(scales),
    )


def default_sample_points(
    a: float, domain: Tuple[float, float] | None = None, count: int = DEFAULT_SAMPLE_COUNT
) -> Tuple[float, ...]:
    """Chebyshev samples in domain (default (0, min(1,|a|))), singularities

    clipped out; Chebyshev nodes are interior so the clip only matters for
    caller-supplied domains that straddle 1 or a."""
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

