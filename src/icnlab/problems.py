"""The three periodic test problems as right-hand-side operators u_t = L(u).

All problems share the initial condition u(x, 0) = sin^2(pi x) on [0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Grid1D, PeriodicShifts, as_state


class ProblemKind(str, Enum):
    LINEAR_ADVECTION = "linear"
    SEMILINEAR_ADVECTION = "semilinear"
    BURGERS = "burgers"


@dataclass(frozen=True)
class Problem:
    """A PDE u_t = L(u) with an optional closed-form solution.

    kinds:
      linear      u_t + a u_x = 0
      semilinear  u_t + u_x = -u^2        (unit advection speed, fixed)
      burgers     u_t + (u^2/2)_x = nu u_xx
    """

    kind: ProblemKind
    advection_speed: float = 1.0
    viscosity: float = 0.0

    def __post_init__(self):
        if self.kind is ProblemKind.BURGERS and not self.viscosity > 0.0:
            raise ValueError("Burgers viscosity must be positive")
        if (
            self.kind is ProblemKind.SEMILINEAR_ADVECTION
            and self.advection_speed != 1.0
        ):
            raise ValueError("semilinear problem has unit advection speed")

    @property
    def has_exact(self) -> bool:
        return self.kind is not ProblemKind.BURGERS

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """Evaluate L(u) nodewise with centered differences on the grid of
        u's length.  u is one state (core.as_state), finite or not: the
        steppers find divergence in their steps' output (schemes._run)."""
        u = as_state(u)
        return self.array_rhs(Grid1D(len(u)))(u)

    def array_rhs(
        self, grid: Grid1D, rows: int | None = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """L on raw nodal values of ``grid``.

        The returned function takes values of shape (N,) or, with ``rows``,
        (rows, N), and applies L to each row.  The neighbour indices are
        built here, once, so a time-stepping loop calls it without any
        per-call setup.
        """
        shifts = PeriodicShifts(grid.n_cells, rows)
        # Each form does the arithmetic of its np.roll statement (core) in
        # the same order, on fresh temporaries updated in place; with d =
        # u_{j+1} - u_{j-1}, -d / (2 dx) is d / (-2 dx) to the bit.  The
        # advection forms need only d, so they take shifts.difference, which
        # stacks no neighbour array; Burgers needs both neighbours for its
        # diffusion term.  The constants are 0-d arrays, because numpy
        # converts a Python float operand on every call, at N = 30 half
        # again the arithmetic's cost.
        dx = grid.dx
        difference = shifts.difference
        if self.kind is ProblemKind.LINEAR_ADVECTION:
            speed, two_dx = np.array(-self.advection_speed), np.array(2.0 * dx)

            def linear_rhs(v: np.ndarray) -> np.ndarray:
                out = difference(v)
                out *= speed
                out /= two_dx
                return out

            return linear_rhs
        minus_two_dx = np.array(-2.0 * dx)
        if self.kind is ProblemKind.SEMILINEAR_ADVECTION:

            def semilinear_rhs(v: np.ndarray) -> np.ndarray:
                out = difference(v)
                out /= minus_two_dx
                out -= v * v
                return out

            return semilinear_rhs
        gather = shifts.gather
        half, two = np.array(0.5), np.array(2.0)
        dx2, viscosity = np.array(dx * dx), np.array(self.viscosity)

        def burgers_rhs(v: np.ndarray) -> np.ndarray:
            neighbours = gather(v)
            # indexed, not unpacked: iterating an array costs more
            plus, minus = neighbours[0], neighbours[1]
            # the flux 0.5 v v is elementwise, so at the gathered neighbours
            # it equals the gathered flux
            flux = half * neighbours
            flux *= neighbours
            out = flux[0] - flux[1]
            out /= minus_two_dx
            diffusion = plus - two * v
            diffusion += minus
            diffusion /= dx2
            diffusion *= viscosity
            out += diffusion
            return out

        return burgers_rhs

    def exact_solution(self, x, t: float):
        """Closed-form solution at (x, t); x may be a scalar or an array."""
        if not self.has_exact:
            raise ValueError("no closed-form exact solution")
        s = np.sin(np.pi * (x - self.advection_speed * t)) ** 2
        if self.kind is ProblemKind.LINEAR_ADVECTION:
            return s
        return s / (1.0 + t * s)


def linear_advection(speed: float = 1.0) -> Problem:
    return Problem(ProblemKind.LINEAR_ADVECTION, advection_speed=speed)


def semilinear_advection() -> Problem:
    return Problem(ProblemKind.SEMILINEAR_ADVECTION)


# The viscosity of the paper's Burgers problem.
VISCOSITY = 0.01


def burgers(viscosity: float = VISCOSITY) -> Problem:
    return Problem(ProblemKind.BURGERS, viscosity=viscosity)


def initial_condition(grid: Grid1D) -> np.ndarray:
    """sin^2(pi x) sampled at the nodes; shared by all three problems."""
    return np.sin(np.pi * grid.nodes()) ** 2
