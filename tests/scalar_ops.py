"""Oracles that the library is checked against, written as plainly as
possible: the centered difference operators node by node, with an
explicit periodic wrap, and on whole states with np.roll; the closed-form
linear-advection stencil of a step; linear advection exact in time on the
grid; and the error norms of one state.  The three-point u_xx, which no
library operator takes, is here too.
"""
from __future__ import annotations

import numpy as np

from icnlab.analysis import NormTriple


def wrap_index(j: int, n: int) -> int:
    """Map any integer node index into [0, n) periodically."""
    return j % n


def delta1(v: np.ndarray, j: int) -> float:
    """v[j+1] - v[j-1] with periodic wrap."""
    n = len(v)
    return v[wrap_index(j + 1, n)] - v[wrap_index(j - 1, n)]


def delta2(v: np.ndarray, j: int) -> float:
    """v[j+2] - 2 v[j] + v[j-2] with periodic wrap."""
    n = len(v)
    return v[wrap_index(j + 2, n)] - 2.0 * v[j] + v[wrap_index(j - 2, n)]


def delta3(v: np.ndarray, j: int) -> float:
    """v[j+3] - 3 v[j+1] + 3 v[j-1] - v[j-3] with periodic wrap."""
    n = len(v)
    return (
        v[wrap_index(j + 3, n)]
        - 3.0 * v[wrap_index(j + 1, n)]
        + 3.0 * v[wrap_index(j - 1, n)]
        - v[wrap_index(j - 3, n)]
    )


def second_derivative(v: np.ndarray, j: int, dx: float) -> float:
    """Centered three-point u_xx estimate at node j."""
    n = len(v)
    return (
        v[wrap_index(j + 1, n)] - 2.0 * v[j] + v[wrap_index(j - 1, n)]
    ) / (dx * dx)


def second_derivative_array(values: np.ndarray, dx: float) -> np.ndarray:
    """Centered three-point u_xx estimate at every node, by np.roll."""
    return (
        np.roll(values, -1) - 2.0 * values + np.roll(values, 1)
    ) / (dx * dx)


# The whole-state operators, with np.roll as the periodic wrap: the plain
# statement of the operators.  The library's right-hand sides use the forms
# in core.PeriodicShifts, which give the same numbers without np.roll's
# per-call cost.

def delta1_array(values: np.ndarray) -> np.ndarray:
    return np.roll(values, -1) - np.roll(values, 1)


def delta2_array(values: np.ndarray) -> np.ndarray:
    return np.roll(values, -2) - 2.0 * values + np.roll(values, 2)


def delta3_array(values: np.ndarray) -> np.ndarray:
    return (
        np.roll(values, -3)
        - 3.0 * np.roll(values, -1)
        + 3.0 * np.roll(values, 1)
        - np.roll(values, 3)
    )


def linear_stencil(
    u: np.ndarray, courant: float, w1: float, s: float, w2: float
) -> np.ndarray:
    """The step of weights (w1, s, w2) on u_t + a u_x = 0 in closed form.

    With R = a dt / (2 dx) the step is the seven-point stencil

        u' = u - R d1 u + c2 R^2 d2 u - c3 R^3 d3 u

    with (c2, c3) = (s w2, s w1 w2), the coefficients of the step's
    stability polynomial.  A variant's step is
    linear_stencil(u, R, *scheme.weights(i)).
    """
    c2, c3 = s * w2, s * w1 * w2
    return (
        u
        - courant * delta1_array(u)
        + c2 * courant * courant * delta2_array(u)
        - c3 * courant * courant * courant * delta3_array(u)
    )


def semi_discrete_advection(n: int, t: float) -> np.ndarray:
    """sin^2(pi x) on n nodes at time t of u_t = -d1 u / (2 dx), the linear
    problem's right-hand side at speed 1, solved exactly in time: a Fourier
    mode of k dx = 2 pi m / n gains exp(lambda t), lambda = -i sin(k dx) /
    dx.  A scheme's difference from this is its time error alone."""
    k_dx = 2.0 * np.pi * np.fft.fftfreq(n)
    growth = np.exp(-1j * np.sin(k_dx) * n * t)
    initial = np.sin(np.pi * np.arange(n) / n) ** 2
    return np.fft.ifft(np.fft.fft(initial) * growth).real


def error_norms(numerical: np.ndarray, reference: np.ndarray) -> NormTriple:
    """The norms (NormTriple) of numerical - reference, two states of N
    values, dx = 1/N; states of two shapes are a ValueError."""
    if np.shape(numerical) != np.shape(reference):
        raise ValueError(f"grid mismatch: shapes {np.shape(numerical)} and "
                         f"{np.shape(reference)}")
    error = np.subtract(numerical, reference)
    dx = 1.0 / len(error)
    magnitude = np.abs(error)
    return NormTriple(float(dx * magnitude.sum()),
                      float(dx * np.sqrt((error * error).sum())),
                      float(magnitude.max()))
