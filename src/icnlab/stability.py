"""Von Neumann amplification factors and (theta, beta) stability maps.

A Fourier mode acquires a complex factor g per step; |g| <= 1 for every
mode means the scheme is stable.  The mode enters only through
beta = R sin(k dx) with R = a dt / (2 dx), so maps are scanned over beta
directly.  A step of weights (w1, s, w2) on linear advection, with
c2 = s w2 and c3 = s w1 w2, has the one factor

    g = 1 - 2i beta - 4 c2 beta^2 + 8i c3 beta^3        (amplification)

so ga(theta1) has (c2, c3) = (1/2, theta1 / 2), the same constraint
written without theta2 = 1/(4 theta1), which theta1 = 0 on the map leaves
undefined; one aa step of weight theta has (theta, theta^2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schemes import SchemeVariant

# |g| <= 1 + this counts as stable; marginal modes (|g| = 1) are classically
# stable and the epsilon absorbs rounding.
STABILITY_TOLERANCE = 1e-12


class AmplificationResult(NamedTuple):
    g: complex
    modulus: float


def amplification(c2, c3, beta):
    """(Re g, Im g) of g = 1 - 2i beta - 4 c2 beta^2 + 8i c3 beta^3.

    Takes floats or arrays; real arithmetic keeps each part bit-identical
    between a scalar call and an array call.
    """
    b2 = beta * beta
    return 1.0 - 4.0 * c2 * b2, -2.0 * beta + 8.0 * c3 * b2 * beta


def _aa_pair(theta_odd, beta):
    """(Re, Im) of the two-step aa factor g(theta_odd) g(1 - theta_odd).

    The pair of weights is derived from the larger of theta_odd and its
    complement; 1 - hi is exact in floating point for hi >= 1/2, so
    theta_odd and 1 - theta_odd multiply bitwise-identical factors and the
    map symmetry about 1/2 is exact.
    """
    hi = np.maximum(theta_odd, 1.0 - theta_odd)
    lo = 1.0 - hi
    ar, ai = amplification(hi, hi * hi, beta)
    br, bi = amplification(lo, lo * lo, beta)
    return ar * br - ai * bi, ar * bi + ai * br


def _result(re: float, im: float) -> AmplificationResult:
    g = complex(re, im)
    return AmplificationResult(g, abs(g))


def g_ga(theta1: float, beta: float) -> AmplificationResult:
    """Per-step factor of the geometric-weight scheme on linear advection."""
    return _result(*amplification(0.5, 0.5 * theta1, beta))


def g_theta_step(theta: float, beta: float) -> AmplificationResult:
    """Per-step factor of one unswapped weighted step (theta, 1, theta)."""
    return _result(*amplification(theta, theta * theta, beta))


def g_aa_composed(theta_odd: float, beta: float) -> AmplificationResult:
    """Two-step factor of the alternating scheme: g(theta_odd) g(theta_even)."""
    return _result(*_aa_pair(theta_odd, beta))


@dataclass(frozen=True)
class StabilityMap:
    """Modulus samples on a (theta, beta) grid.

    ``modulus[i, j]`` holds |g| at beta_axis[i], theta_axis[j]; for the aa
    variant it is the modulus of the composed two-step factor.
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
    """Grid-evaluate |g| over the requested rectangle.

    Only the ga and aa variants have amplification factors here; aa is
    judged on the two-step product without per-step normalization.
    """
    variant = SchemeVariant(variant)
    if variant not in (SchemeVariant.GA, SchemeVariant.AA):
        raise ValueError("stability scans cover the ga and aa variants only")
    if resolution < 2:
        raise ValueError("resolution must be at least 2 points per axis")
    t_lo, t_hi = theta_range
    b_lo, b_hi = beta_range
    if t_lo > t_hi or b_lo > b_hi:
        raise ValueError("malformed scan range")
    theta_axis = _axis(t_lo, t_hi, resolution)
    beta_axis = np.linspace(b_lo, b_hi, resolution)
    theta, beta = np.meshgrid(theta_axis, beta_axis)
    if variant is SchemeVariant.GA:
        re, im = amplification(0.5, 0.5 * theta, beta)
    else:
        re, im = _aa_pair(theta, beta)
    # np.hypot is the hypot of abs(complex), so the map matches g_ga and
    # g_aa_composed bit for bit
    modulus = np.hypot(re, im)
    return StabilityMap(
        variant=variant,
        theta_axis=theta_axis,
        beta_axis=beta_axis,
        modulus=modulus,
        stable_mask=modulus <= 1.0 + STABILITY_TOLERANCE,
    )
