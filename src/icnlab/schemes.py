"""Explicit predictor-corrector (iterated Crank-Nicolson) time steppers.

Five variants over a generic right-hand-side operator L.  Every one is the
same two-iteration step with averaging weights (w1, s, w2):

    predict   u~ = u + dt L(u)
    average   u- = w1 u~ + (1 - w1) u
    predict   u~ = u + (s dt) L(u-)
    average   u- = w2 u~ + (1 - w2) u
    update    u' = u + dt L(u-)

and the variants differ only in the weights, which the one table WEIGHTS
gives per variant, parameter and step parity.  icn is the classical
scheme; theta and swapped weight by theta; ga constrains the geometric
mean of its averaging weights to 1/2, with a second predictor of 2 theta1
dt to stay time-centred; aa alternates the theta step between theta_odd
and 1 - theta_odd (arithmetic mean 1/2).

Read as a Runge-Kutta method, the step has nodes c = (0, w1, s w2), a21 =
w1, a32 = s w2 and b = (0, 0, 1).  Its stability polynomial is
R(z) = 1 + z + c2 z^2 + c3 z^3 with (c2, c3) = (s w2, s w1 w2)
(coefficients), and it is second order iff s w2 = 1/2: ga meets that at
every theta1, and aa's pair of steps cancels its error (theta - 1/2) +
(1/2 - theta).  On linear advection u_t + a u_x = 0, with R = a dt / (2 dx),
the step is the seven-point stencil

    u' = u - R d1 u + c2 R^2 d2 u - c3 R^3 d3 u        (linear_stencil)

and a Fourier mode with beta = R sin(k dx) gains the factor R(z) at
z = -2i beta, the stability polynomial rather than the Courant number
(stability.amplification).

One loop, ``_run``, advances every step; its docstring says how the rows
of a batch each take their own scheme and how divergence is recorded.
``_run_row`` is its one-row case on raw values, which the Burgers reference
drives, and ``integrate``, SchemeConfig.step and the step_* functions are
that case on Fields; all of them raise DivergenceError with that step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import (
    DivergenceError,
    Field,
    Grid1D,
    ParameterError,
    delta1_array,
    delta2_array,
    delta3_array,
)
from .problems import Problem

RhsOperator = Callable[[Field], Field]
ArrayOperator = Callable[[np.ndarray], np.ndarray]


def _kernel(
    u: np.ndarray, f: ArrayOperator, dt: float, w1: float, s: float, w2: float
) -> np.ndarray:
    """One two-iteration step with weights (w1, s, w2) on raw nodal values."""
    return _step(u, f, *_factors(dt, w1, s, w2))


def _factors(dt: float, w1: float, s: float, w2: float) -> tuple:
    """The factors (dt, w1, 1 - w1, s dt, w2, 1 - w2) of _step."""
    return dt, w1, 1.0 - w1, s * dt, w2, 1.0 - w2


def _step(u: np.ndarray, f: ArrayOperator, dt, w1, v1, sdt, w2, v2):
    """The step of _kernel from its factors, which _run computes once per
    run.

    The statements of the step in the module docstring, evaluated in the
    same order on temporaries of its own and updated in place, so the bits
    are those of the plain expressions.  It never writes into what f
    returns, which may be an array the caller still holds.
    """
    ut = dt * f(u)
    ut += u
    ut *= w1
    ub = v1 * u
    ub += ut
    ut = sdt * f(ub)
    ut += u
    ut *= w2
    ub = v2 * u
    ub += ut
    out = dt * f(ub)
    out += u
    return out


def _array_form(rhs: RhsOperator, grid: Grid1D) -> ArrayOperator:
    """``rhs`` as a function of raw nodal values on ``grid``.

    A bound Problem.rhs becomes the problem's array form, with no Field and
    no finiteness check per call.  Any other Field callable is wrapped and
    called with a Field on ``grid``.
    """
    problem = getattr(rhs, "__self__", None)
    if isinstance(problem, Problem) and (
        getattr(rhs, "__func__", None) is Problem.rhs
    ):
        return problem.array_rhs(grid)
    return lambda v: rhs(Field(grid, v)).values


class SchemeVariant(str, Enum):
    ICN = "icn"
    THETA_ICN = "theta"
    SWAPPED_THETA_ICN = "swapped"
    GA = "ga"
    AA = "aa"


# The one weight parameter each variant takes (a SchemeConfig field name).
PARAMETER: dict[SchemeVariant, str | None] = {
    SchemeVariant.ICN: None,
    SchemeVariant.THETA_ICN: "theta",
    SchemeVariant.SWAPPED_THETA_ICN: "theta",
    SchemeVariant.GA: "theta1",
    SchemeVariant.AA: "theta_odd",
}

# Each variant's weights (w1, s, w2) from its parameter p, one triple per
# step of the period over which they repeat: aa is the theta step with p
# and then 1 - p.
WEIGHTS: dict[SchemeVariant, Callable[..., tuple]] = {
    SchemeVariant.ICN: lambda p: ((0.5, 1.0, 0.5),),
    SchemeVariant.THETA_ICN: lambda p: ((p, 1.0, p),),
    SchemeVariant.SWAPPED_THETA_ICN: lambda p: ((p, 1.0, 1.0 - p),),
    SchemeVariant.GA: lambda p: ((p, 2.0 * p, 1.0 / (4.0 * p)),),
    SchemeVariant.AA: lambda p: ((p, 1.0, p), (1.0 - p, 1.0, 1.0 - p)),
}


def coefficients(w1: float, s: float, w2: float) -> tuple[float, float]:
    """(c2, c3) = (s w2, s w1 w2) of a step of weights (w1, s, w2)."""
    return s * w2, s * w1 * w2


def period_coefficients(variant: SchemeVariant, p=None) -> tuple:
    """(c2, c3) of each step in one period of the variant's weights.

    p may be an array.  ga's is written as (1/2, theta1/2), its constraint
    s w2 = 1/2 without theta2 = 1/(4 theta1), so theta1 = 0 has a value.
    """
    if variant is SchemeVariant.GA:
        return ((0.5, 0.5 * p),)
    return tuple(coefficients(*weights) for weights in WEIGHTS[variant](p))


def linear_stencil(
    u: Field, courant: float, w1: float, s: float, w2: float
) -> Field:
    """The step of weights (w1, s, w2) on u_t + a u_x = 0 in closed form,
    R = a dt / (2 dx): u' = u - R d1 u + c2 R^2 d2 u - c3 R^3 d3 u."""
    v = u.values
    c2, c3 = coefficients(w1, s, w2)
    out = (
        v
        - courant * delta1_array(v)
        + c2 * courant * courant * delta2_array(v)
        - c3 * courant * courant * courant * delta3_array(v)
    )
    return u.with_values(out)


def ga_linear_stencil(
    u: Field, courant: float, theta1: float, theta2: float
) -> Field:
    """The ga step with its last weight set to theta2, as a stencil; equal
    to step_ga on linear advection when theta2 = 1/(4 theta1)."""
    if not theta2 > 0.0:
        raise ValueError("stencil weights must be positive")
    w1, s, _ = SchemeConfig.ga(theta1).weights()
    return linear_stencil(u, courant, w1, s, theta2)


def aa_linear_stencil(u: Field, courant: float, theta: float) -> Field:
    """One aa step of weight theta as a stencil."""
    return linear_stencil(u, courant, *SchemeConfig.aa(theta).weights())


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme variant plus its weight parameters, validated on creation.

    Derived weights are never supplied directly: a ga config stores theta1
    and exposes theta2 = 1/(4 theta1); an aa config stores theta_odd and
    exposes theta_even = 1 - theta_odd.
    """

    variant: SchemeVariant
    theta: float | None = None
    theta1: float | None = None
    theta_odd: float | None = None

    def __post_init__(self):
        for name in ("theta", "theta1", "theta_odd"):
            given = getattr(self, name) is not None
            if given != (name == PARAMETER[self.variant]):
                verb = "does not take" if given else "requires"
                raise ParameterError(
                    name, f"{self.variant.value} scheme {verb} {name}"
                )
        if self.theta1 is not None and not 0.0 < self.theta1 < math.inf:
            raise ParameterError("theta1", "theta1 must be positive and finite")
        for name in ("theta", "theta_odd"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ParameterError(name, f"{name} must lie in [0, 1]")

    @classmethod
    def icn(cls) -> "SchemeConfig":
        return cls(SchemeVariant.ICN)

    @classmethod
    def theta_icn(cls, theta: float) -> "SchemeConfig":
        return cls(SchemeVariant.THETA_ICN, theta=theta)

    @classmethod
    def swapped_theta_icn(cls, theta: float) -> "SchemeConfig":
        return cls(SchemeVariant.SWAPPED_THETA_ICN, theta=theta)

    @classmethod
    def ga(cls, theta1: float) -> "SchemeConfig":
        return cls(SchemeVariant.GA, theta1=theta1)

    @classmethod
    def aa(cls, theta_odd: float) -> "SchemeConfig":
        return cls(SchemeVariant.AA, theta_odd=theta_odd)

    @property
    def theta2(self) -> float:
        if self.variant is not SchemeVariant.GA:
            raise AttributeError("theta2 is defined for the ga scheme only")
        return self.weights()[2]

    @property
    def theta_even(self) -> float:
        if self.variant is not SchemeVariant.AA:
            raise AttributeError("theta_even is defined for the aa scheme only")
        return self.weights(1)[0]

    def label(self) -> str:
        """Short deterministic tag used in table output, e.g. ga(0.6)."""
        name = PARAMETER[self.variant]
        if name is None:
            return self.variant.value
        return f"{self.variant.value}({getattr(self, name):g})"

    def weights(self, step_index: int = 0) -> tuple[float, float, float]:
        """Averaging weights (w1, s, w2) of step ``step_index`` (from 0)."""
        name = PARAMETER[self.variant]
        period = WEIGHTS[self.variant](getattr(self, name) if name else None)
        return period[step_index % len(period)]

    def step(
        self, u: Field, rhs: RhsOperator, dt: float, step_index: int = 0
    ) -> Field:
        """One step from ``u``; step_index sets the aa parity."""
        return _run_one(u, self, rhs, dt, range(step_index, step_index + 1))


def _run(
    u: np.ndarray,
    schemes: Sequence[SchemeConfig],
    f: ArrayOperator,
    dt: float,
    steps: range,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The steps numbered ``steps`` from u, row k by schemes[k], through
    the step kernel.

    ``u`` is one row of shape (N,) with one scheme, or K rows of shape
    (K, N) with K schemes, and ``f`` acts on that shape.  Each factor of
    the step holds row k's value in row k, one set per step parity, so
    every row takes its own scheme's weights and an aa row flips its weight
    each step.  ``observer(i, u)`` sees all rows after step i.

    Returns the final state and, per row, the index of the first step whose
    output is not finite, or -1 for a row that stayed finite.  Every
    operation acts within a row, so a row that stops being finite leaves
    the others unchanged; the loop ends once every row has done so.
    """
    # Every factor of _step is an array of u's shape, row k holding
    # schemes[k]'s value: numpy converts a Python float operand on every
    # call, and broadcasts a (K, 1) column into an in-place product at about
    # twice the cost, both more than the arithmetic at N = 30.  The values
    # are computed in floats, as for _kernel, and spread along
    # the rows at once: (parity, factor, [K,] N).
    table = np.array([
        [_factors(dt, *scheme.weights(parity)) for scheme in schemes]
        for parity in (0, 1)
    ]).transpose(0, 2, 1)
    spread = np.repeat(table, u.shape[-1], axis=-1)
    by_parity = [tuple(c) for c in spread.reshape((2, 6) + u.shape)]
    diverged_at = np.full(u.shape[:-1], -1)
    # a blow-up is reported through diverged_at, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in steps:
            try:
                u = _step(u, f, *by_parity[i % 2])
            except DivergenceError:
                # raised by a Field callable that checks its input
                diverged_at[diverged_at < 0] = i
                break
            # a non-finite intermediate always reaches the step's output,
            # so one check per step finds the step where it first appears.
            # A finite sum means every entry is finite; only when the sum
            # is not (an overflowing sum of finite entries too) are the
            # rows told apart
            if not math.isfinite(np.add.reduce(u, None)):
                finite = np.isfinite(u).all(axis=-1)
                diverged_at[~finite & (diverged_at < 0)] = i
                if (diverged_at >= 0).all():
                    break
            if observer is not None:
                observer(i, u)
    return u, diverged_at


def _run_row(
    u: np.ndarray,
    scheme: SchemeConfig,
    f: ArrayOperator,
    dt: float,
    steps: range,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """_run on one row of raw values; a step that is not finite raises
    DivergenceError."""
    u, diverged_at = _run(u, (scheme,), f, dt, steps, observer)
    step = int(diverged_at)
    if step >= 0:
        raise DivergenceError(f"step diverged at step {step}", step_index=step)
    return u


def _run_one(
    u0: Field,
    scheme: SchemeConfig,
    rhs: RhsOperator,
    dt: float,
    steps: range,
    observer: Callable[[int, Field], None] | None = None,
) -> Field:
    """_run_row on a Field, with a Field callable and observer."""
    grid = u0.grid
    watch = None
    if observer is not None:
        def watch(i: int, u: np.ndarray) -> None:
            observer(i, Field(grid, u))
    f = _array_form(rhs, grid)
    return u0.with_values(_run_row(u0.values, scheme, f, dt, steps, watch))


def integrate(
    u0: Field,
    scheme: SchemeConfig,
    rhs: RhsOperator,
    dt: float,
    n_steps: int,
    observer: Callable[[int, Field], None] | None = None,
) -> Field:
    """Apply ``scheme`` n_steps times from u0 and return the final state.

    This is the one-row case of the batched loop _run.
    ``observer(step_index, state)`` is called after every completed step,
    which is how the reference trajectory is sampled.  A step that stops
    being finite raises DivergenceError carrying the index of the failing
    step.
    """
    if dt <= 0.0:
        raise ParameterError("dt", "dt must be positive")
    if n_steps < 0:
        raise ParameterError("n_steps", "n_steps must be non-negative")
    return _run_one(u0, scheme, rhs, dt, range(n_steps), observer)


def step_icn(u: Field, rhs: RhsOperator, dt: float) -> Field:
    """One step of the classical two-iteration scheme (weights 1/2)."""
    return SchemeConfig.icn().step(u, rhs, dt)


def step_theta_icn(
    u: Field,
    rhs: RhsOperator,
    dt: float,
    theta: float,
    swapped: bool = False,
) -> Field:
    """One weighted step; ``swapped`` flips the second averaging weight.

    The step is first order unless the second weight is 1/2: its local
    error is dt^2 (w2 - 1/2) L'(u) L(u), +(theta - 1/2) for theta and
    -(theta - 1/2) for swapped, so the two errors mirror each other.

    For theta > 1/2 the swapped scheme is weakly unstable.  On linear
    advection its factor has |g|^2 = 1 + 4 beta^2 (2 theta - 1)
    + O(beta^4) > 1 for small beta (scan_region("swapped")).  At theta =
    0.6 and CFL 0.5 (R = 1/4) the worst mode gains about 1.5% per step, so
    round-off grows like 1.015^n: the L-infinity order at N = 1600 drops
    to 0.98 (theta gives 1.00), at N = 3200 the linear error reaches 3e5
    and the semilinear run diverges.  Refinement studies of swapped must
    stop at N = 1600.
    """
    config = (SchemeConfig.swapped_theta_icn(theta) if swapped
              else SchemeConfig.theta_icn(theta))
    return config.step(u, rhs, dt)


def step_ga(u: Field, rhs: RhsOperator, dt: float, theta1: float) -> Field:
    """One step with geometrically constrained weights theta1, 1/(4 theta1).

    The second predictor uses the increment 2 theta1 dt so that the final
    averaging (weight theta2) lands on the half-step time level.
    """
    return SchemeConfig.ga(theta1).step(u, rhs, dt)


def step_aa(
    u: Field,
    rhs: RhsOperator,
    dt: float,
    theta_odd: float,
    step_index: int,
) -> Field:
    """One alternating-weight step.

    The first step of a run (step_index 0) uses theta_odd, the next uses
    1 - theta_odd, and so on; the integrator threads step_index.
    """
    return SchemeConfig.aa(theta_odd).step(u, rhs, dt, step_index)
