"""Node-by-node forms of the centered difference operators, with an
explicit periodic wrap: the oracles that the whole-field operators of
``icnlab.core`` are checked against.
"""
from __future__ import annotations

from icnlab.core import Field


def wrap_index(j: int, n: int) -> int:
    """Map any integer node index into [0, n) periodically."""
    return j % n


def delta1(u: Field, j: int) -> float:
    """u[j+1] - u[j-1] with periodic wrap."""
    v = u.values
    n = u.grid.n_cells
    return v[wrap_index(j + 1, n)] - v[wrap_index(j - 1, n)]


def delta2(u: Field, j: int) -> float:
    """u[j+2] - 2 u[j] + u[j-2] with periodic wrap."""
    v = u.values
    n = u.grid.n_cells
    return v[wrap_index(j + 2, n)] - 2.0 * v[j] + v[wrap_index(j - 2, n)]


def delta3(u: Field, j: int) -> float:
    """u[j+3] - 3 u[j+1] + 3 u[j-1] - u[j-3] with periodic wrap."""
    v = u.values
    n = u.grid.n_cells
    return (
        v[wrap_index(j + 3, n)]
        - 3.0 * v[wrap_index(j + 1, n)]
        + 3.0 * v[wrap_index(j - 1, n)]
        - v[wrap_index(j - 3, n)]
    )


def second_derivative(u: Field, j: int, dx: float) -> float:
    """Centered three-point u_xx estimate at node j."""
    v = u.values
    n = u.grid.n_cells
    return (
        v[wrap_index(j + 1, n)] - 2.0 * v[j] + v[wrap_index(j - 1, n)]
    ) / (dx * dx)
