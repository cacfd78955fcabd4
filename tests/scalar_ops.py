"""Node-by-node forms of the centered difference operators, with an
explicit periodic wrap: the oracles that the whole-state operators of
``icnlab.core`` are checked against.  The three-point u_xx, which no
library operator takes, also has its whole-state np.roll form here.
"""
from __future__ import annotations

import numpy as np


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
