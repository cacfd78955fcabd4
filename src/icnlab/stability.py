"""Von Neumann amplification factors and (theta, beta) stability maps.

A Fourier mode acquires a complex factor g per step; |g| <= 1 for every
mode means the scheme is stable.  The mode enters only through
beta = R sin(k dx) with R = a dt / (2 dx), so maps are scanned over beta
directly.  Every variant's factor is ``amplification`` of the (c2, c3) that
schemes.period_coefficients reads from the weight table, multiplied over
one period of the weights: one step, or aa's pair of steps.

For theta > 1/2 the swapped scheme is weakly unstable: its factor has
|g|^2 = 1 + 4 beta^2 (2 theta - 1) + O(beta^4) > 1 for small beta
(scan_region("swapped")).  At theta = 0.6 and CFL 0.5 (R = 1/4) the worst
mode gains about 1.5% per step, so round-off grows like 1.015^n: the
L-infinity order at N = 1600 drops to 0.98 (theta gives 1.00), at N = 3200
the linear error reaches 3e5 and the semilinear run diverges.  Refinement
studies of swapped must stop at N = 1600.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError
from .schemes import SchemeVariant, as_variant, period_coefficients

# |g| <= 1 + this counts as stable; marginal modes (|g| = 1) are classically
# stable and the epsilon absorbs rounding.
STABILITY_TOLERANCE = 1e-12


def amplification(c2, c3, beta):
    """(Re g, Im g) of g = 1 - 2i beta - 4 c2 beta^2 + 8i c3 beta^3.

    Takes floats or arrays; real arithmetic keeps each part bit-identical
    between a scalar call and an array call.
    """
    b2 = beta * beta
    return 1.0 - 4.0 * c2 * b2, -2.0 * beta + 8.0 * c3 * b2 * beta


def period_factor(variant: SchemeVariant, p, beta):
    """(Re, Im) of the variant's factor over one period of its weights.

    Takes floats or arrays.  A two-step period alternates p and 1 - p, so
    its product is symmetric about p = 1/2; it is taken at max(p, 1 - p),
    where 1 - p is exact, so that p and 1 - p give the same bits.
    """
    steps = period_coefficients(variant, p)
    if len(steps) > 1:
        steps = period_coefficients(variant, np.maximum(p, 1.0 - p))
    re, im = amplification(*steps[0], beta)
    for c2, c3 in steps[1:]:
        r, i = amplification(c2, c3, beta)
        re, im = re * r - im * i, re * i + im * r
    return re, im


@dataclass(frozen=True)
class StabilityMap:
    """Modulus samples on a (theta, beta) grid.

    ``modulus[i, j]`` holds |g| at beta_axis[i], theta_axis[j], over one
    period of the variant's weights (aa's two steps); a variant without a
    parameter (icn) is the same in every column.
    """

    variant: SchemeVariant
    theta_axis: np.ndarray
    beta_axis: np.ndarray
    modulus: np.ndarray
    stable_mask: np.ndarray


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    ax = np.linspace(lo, hi, n)
    if lo + hi == 1.0:
        # complement-symmetric range: force ax[n-1-k] == 1 - ax[k] exactly
        half = n // 2
        k = np.arange(half)
        ax[n - 1 - k] = 1.0 - ax[k]
    return ax


def scan_region(
    variant: SchemeVariant | str,
    theta_range: tuple[float, float] = (0.0, 1.0),
    beta_range: tuple[float, float] = (0.0, 1.2),
    resolution: int = 241,
) -> StabilityMap:
    """Grid-evaluate |g| over the requested rectangle, with theta the
    variant's parameter; aa is judged on its two-step product without
    per-step normalization.  Theta is not limited to the weight's domain:
    the map may extend past the schemes SchemeConfig accepts.

    The factor is taken on a theta row against a beta column, so only the
    terms that depend on both broadcast to the map's (beta, theta) shape;
    each point gets the same operations as a scalar call."""
    variant = as_variant(variant)
    if resolution < 2:
        raise ParameterError("resolution",
                             "resolution must be at least 2 points per axis")
    t_lo, t_hi = theta_range
    b_lo, b_hi = beta_range
    if not -math.inf < t_lo <= t_hi < math.inf:
        raise ParameterError("theta_range", "theta_range must be finite, "
                                            "low <= high")
    if not -math.inf < b_lo <= b_hi < math.inf:
        raise ParameterError("beta_range", "beta_range must be finite, "
                                           "low <= high")
    theta_axis = _axis(t_lo, t_hi, resolution)
    beta_axis = np.linspace(b_lo, b_hi, resolution)
    # np.hypot is the hypot of abs(complex), so the map matches
    # abs(complex(*period_factor(variant, theta, beta))) bit for bit; its
    # out= gives icn's factor, a beta column alone, the map's shape
    modulus = np.hypot(
        *period_factor(variant, theta_axis[None, :], beta_axis[:, None]),
        out=np.empty((resolution, resolution)),
    )
    return StabilityMap(
        variant=variant,
        theta_axis=theta_axis,
        beta_axis=beta_axis,
        modulus=modulus,
        stable_mask=modulus <= 1.0 + STABILITY_TOLERANCE,
    )
