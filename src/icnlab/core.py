"""Uniform periodic 1-D grid and centered difference operators.

A state is a plain array of nodal values on the grid: u[j] lives at node
j, and the grid follows from its length.  The problem right-hand sides
take their periodic neighbours from PeriodicShifts.  A value from outside
that is out of its domain raises ParameterError, which names it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """A value given to the library is out of its domain; ``parameter`` is
    the name it was given under."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


class DivergenceError(RuntimeError):
    """A step diverged (schemes._run states the rule); step_index is that
    step's."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


def as_state(values) -> np.ndarray:
    """values as a state: one row of floats, else a ValueError."""
    state = np.asarray(values, dtype=float)
    if state.ndim != 1:
        raise ValueError(
            f"a state is one row of values, got shape {state.shape}")
    return state


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, 1) with ``n_cells`` nodes, x_j = j*dx.

    The point 1 is identified with 0, so there is no duplicated endpoint
    node and dx = 1 / n_cells.  Every problem is posed on this interval:
    sin^2(pi x) and the exact advection solutions have period 1.
    """

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            # the widest stencil reaches j +- 3; wrap needs at least 4 nodes
            raise ParameterError("n_cells", "n_cells must be at least 4")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    def nodes(self) -> np.ndarray:
        """Node coordinates x_0 .. x_{N-1}."""
        return np.arange(self.n_cells) * self.dx


class PeriodicShifts:
    """The periodic neighbours j + 1 and j - 1 along the last axis of values
    of shape (n,) or, with ``rows``, (rows, n).

    ``gather(values)`` stacks the two neighbours on a new first axis:
    ``[np.roll(values, -1), np.roll(values, 1)]`` for one row, and the same
    row by row for (rows, n), in a fresh array, through an index built
    once.  ``difference(values)`` is the first minus the second, in a
    fresh array, with no neighbour array stacked: it subtracts two slices
    of the flat C-ordered values and then redoes the first and last entry
    of each row, which that subtraction takes across a row end.  Both give
    the np.roll forms' bits, and the right-hand sides do the arithmetic of
    those forms on them in the same order.
    """

    def __init__(self, n: int, rows: int | None = None):
        self.rows = rows
        j = np.arange(n)
        # rows j + 1 and j - 1, wrapped
        index = np.concatenate((j[1:], j[:1], j[-1:], j[:-1])).reshape(2, n)
        # the first and last entry of a row, then their j + 1, then j - 1
        ends = np.array([[0, n - 1], [1, 0], [n - 1, n - 2]])
        if rows is not None:
            # into the raveled C-ordered rows: one flat gather, cheaper
            # than values[..., index]
            index = index[:, None, :] + n * np.arange(rows)[:, None]
            ends = (ends[:, :, None] + n * np.arange(rows)).reshape(3, -1)
        self.index = index
        self.ends, self.ends_plus, self.ends_minus = ends

    def gather(self, values: np.ndarray) -> np.ndarray:
        """(values at j + 1, values at j - 1), shape (2,) + values.shape."""
        flat = values if self.rows is None else values.ravel()
        return flat[self.index]

    def difference(self, values: np.ndarray) -> np.ndarray:
        """values at j + 1 minus values at j - 1, shape values.shape."""
        flat = values.ravel()
        out = np.empty_like(flat)
        np.subtract(flat[2:], flat[:-2], out=out[1:-1])
        out[self.ends] = flat[self.ends_plus] - flat[self.ends_minus]
        return out.reshape(values.shape)
