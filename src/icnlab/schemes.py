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
(period_coefficients).  Its local error is dt^2 (s w2 - 1/2) L'(u) L(u),
so it is second order iff s w2 = 1/2: ga meets that at every theta1,
theta's and swapped's errors +-(theta - 1/2) mirror each other, and aa's
pair of steps cancels its error (theta - 1/2) + (1/2 - theta).  A
Fourier mode gains the factor R(-2i beta) (stability.amplification); the
stability module docstring defines beta and states where swapped is
unstable.

One loop, ``_run``, advances every step, and ``_run_row`` is its one-row
case; their docstrings state the rules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import DivergenceError, ParameterError, as_state

ArrayOperator = Callable[[np.ndarray], np.ndarray]


def _factors(dt: float, w1: float, s: float, w2: float) -> tuple:
    """The factors (dt, w1, 1 - w1, s dt, w2, 1 - w2) of _step."""
    return dt, w1, 1.0 - w1, s * dt, w2, 1.0 - w2


def _step(u: np.ndarray, f: ArrayOperator, dt, w1, v1, sdt, w2, v2):
    """One two-iteration step with weights (w1, s, w2), from their factors
    (_factors), which _run computes once per run.

    The statements of the step in the module docstring, evaluated in the
    same order and updated in place, so the bits are those of the plain
    expressions: x * dt is dt * x in IEEE arithmetic.  f must return a
    fresh array on every call, which the step owns and scales in place.
    This is the one statement of that rule: the array forms of the problems
    return fresh arrays, and _run_row copies what its f returns.
    """
    ut = f(u)
    ut *= dt
    ut += u
    ut *= w1
    ub = v1 * u
    ub += ut
    ut = f(ub)
    ut *= sdt
    ut += u
    ut *= w2
    ub = v2 * u
    ub += ut
    out = f(ub)
    out *= dt
    out += u
    return out


class SchemeVariant(str, Enum):
    ICN = "icn"
    THETA_ICN = "theta"
    SWAPPED_THETA_ICN = "swapped"
    GA = "ga"
    AA = "aa"


VARIANTS = [variant.value for variant in SchemeVariant]


def as_variant(name: SchemeVariant | str) -> SchemeVariant:
    """The variant of that name; an unknown one is a ParameterError."""
    if name not in VARIANTS:
        raise ParameterError("variant", f"{name!r} is not one of "
                                        f"{', '.join(VARIANTS)}")
    return SchemeVariant(name)


# The name of the one weight parameter each variant takes (SchemeConfig.p).
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


def period_coefficients(variant: SchemeVariant, p=None) -> tuple:
    """(c2, c3) of each step in one period of the variant's weights.

    p may be an array.  ga's is written as (1/2, theta1/2), its constraint
    s w2 = 1/2 without w2 = 1/(4 theta1), so theta1 = 0 has a value.
    """
    if variant is SchemeVariant.GA:
        return ((0.5, 0.5 * p),)
    return tuple((s * w2, s * w1 * w2) for w1, s, w2 in WEIGHTS[variant](p))


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme variant, given as a SchemeVariant or its name, and p, its
    one weight parameter, validated on creation.

    PARAMETER names p per variant, and errors use that name: theta for
    theta and swapped, theta1 for ga, theta_odd for aa; icn takes none, so
    its p is None.  Derived weights are never supplied directly: WEIGHTS
    gives ga's theta2 = 1/(4 theta1) as weights()[2] and aa's theta_even =
    1 - theta_odd as weights(1)[0].
    """

    variant: SchemeVariant | str
    p: float | None = None

    def __post_init__(self):
        # frozen: the variant given by name is stored as its SchemeVariant
        object.__setattr__(self, "variant", as_variant(self.variant))
        name = PARAMETER[self.variant]
        if (self.p is None) != (name is None):
            need = f"requires {name}" if name else "takes no parameter"
            raise ParameterError(name or "p",
                                 f"{self.variant.value} scheme {need}")
        if self.variant == SchemeVariant.GA:
            if not 0.0 < self.p < math.inf:
                raise ParameterError(name, f"{name} must be positive and "
                                           "finite")
        elif name is not None and not 0.0 <= self.p <= 1.0:
            raise ParameterError(name, f"{name} must lie in [0, 1]")

    @classmethod
    def icn(cls) -> "SchemeConfig":
        return cls(SchemeVariant.ICN)

    @classmethod
    def theta_icn(cls, theta: float) -> "SchemeConfig":
        return cls(SchemeVariant.THETA_ICN, theta)

    @classmethod
    def swapped_theta_icn(cls, theta: float) -> "SchemeConfig":
        return cls(SchemeVariant.SWAPPED_THETA_ICN, theta)

    @classmethod
    def ga(cls, theta1: float) -> "SchemeConfig":
        return cls(SchemeVariant.GA, theta1)

    @classmethod
    def aa(cls, theta_odd: float) -> "SchemeConfig":
        return cls(SchemeVariant.AA, theta_odd)

    def label(self) -> str:
        """Short deterministic tag used in table output, e.g. ga(0.6)."""
        if self.p is None:
            return self.variant.value
        return f"{self.variant.value}({self.p:g})"

    def weights(self, step_index: int = 0) -> tuple[float, float, float]:
        """Averaging weights (w1, s, w2) of step ``step_index`` (from 0)."""
        period = WEIGHTS[self.variant](self.p)
        return period[step_index % len(period)]

    def step(
        self, u: np.ndarray, rhs: ArrayOperator, dt: float,
        step_index: int = 0,
    ) -> np.ndarray:
        """One step from ``u``; step_index sets the aa parity."""
        return _run_row(u, self, rhs, dt, range(step_index, step_index + 1))


def _run(
    u: np.ndarray,
    schemes: Sequence[SchemeConfig],
    f: ArrayOperator | Callable[[int], ArrayOperator],
    dt: float | Sequence[float],
    steps: range,
    observer: Callable[[int, np.ndarray], None] | None = None,
    strides: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The steps numbered ``steps`` from u, row k by schemes[k] with time
    step dt (one float, or one per row), through the step kernel.

    ``u`` is one row of shape (N,) with one scheme, or K rows of shape
    (K, N) with K schemes, and ``f`` acts on that shape.  Each factor of
    the step holds row k's value in row k, one set per step parity, so
    every row takes its own scheme's weights and dt, and an aa row flips
    its weight at each of its own steps.  ``observer(i, u)`` sees the rows
    stepped at step i.

    With ``strides``, the steps are a clock on which row k steps only when
    strides[k] divides i + 1, as its own step (i + 1) / strides[k] - 1.
    The rows due at a step must be a prefix u[:m] (ascending strides, each
    dividing the next), and only they are stepped, by f(m), the rhs on m
    rows: f is then called once per prefix length to build it.

    A step diverges when its output is not finite; this is the one
    divergence rule, and f is never asked to check its input.  Returns the
    final state and, per row, the index of the first of its own steps that
    diverged, or -1 for a row that stayed finite.  Every operation acts
    within a row, so a row that diverges leaves the others unchanged; the
    loop ends once every row has done so.
    """
    rows, n = len(schemes), u.shape[-1]
    stride = [1] * rows if strides is None else list(strides)
    if stride[0] != 1 or any(b % a for a, b in zip(stride, stride[1:])):
        raise ValueError("strides must start at 1, each dividing the next")
    # Every factor of _step is an array of the stepped rows' shape, row k
    # holding its own value: numpy converts a Python float operand on every
    # call, and broadcasts a (K, 1) column into an in-place product at about
    # twice the cost, both more than the arithmetic at N = 30.  _factors
    # computes the values in floats: table[parity][row].
    dts = [dt] * rows if np.ndim(dt) == 0 else list(dt)
    table = [
        [_factors(row_dt, *scheme.weights(parity))
         for scheme, row_dt in zip(schemes, dts)]
        for parity in (0, 1)
    ]
    # The rows due at step i are those whose stride divides i + 1, and each
    # takes the parity of its own step; both repeat every 2 stride[-1]
    # steps.  The parities of one period are found in Python ints: an
    # integer ufunc run for the first time faults in its code, 128 KB of
    # resident memory.
    period = 2 * stride[-1]
    runs = {s: stride.count(s) for s in stride}
    parities = []
    for k in range(1, period + 1):
        parity = ()
        for s, count in runs.items():
            if k % s:
                break
            parity += ((k // s - 1) % 2,) * count
        parities.append(parity)
    # The factors of every distinct set of parities are views of one array:
    # arrays of a few hundred KB allocated apart are handed back to the
    # system when freed, and every run pays their page faults again
    distinct = list(dict.fromkeys(parities))
    spread = np.repeat(np.array([
        table[p][row] for parity in distinct for row, p in enumerate(parity)
    ]).T, n, axis=-1)
    by_rows, factors, start = {}, {}, 0
    for parity in distinct:
        m = len(parity)
        factors[parity] = tuple(spread[:, start * n:(start + m) * n].reshape(
            (6,) + (m,) * (u.ndim - 1) + (n,)))
        start += m
        if m not in by_rows:
            by_rows[m] = f if strides is None else f(m)
    # one entry (m, rhs, factors) per step of the period
    schedule = [(len(p), by_rows[len(p)], factors[p]) for p in parities]
    if min(by_rows) < rows:
        u = u.copy()  # the prefix steps write into it
    diverged_at = np.full(u.shape[:-1], -1)
    # a blow-up is reported through diverged_at, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in steps:
            m, rhs, step_factors = schedule[i % period]
            if m == rows:
                u = stepped = _step(u, rhs, *step_factors)
            else:
                stepped = u[:m]
                stepped[...] = _step(stepped, rhs, *step_factors)
            # a non-finite intermediate always reaches the step's output,
            # so one check per step finds the step where it first appears.
            # A finite sum means every entry is finite; only when the sum
            # is not (an overflowing sum of finite entries too) are the
            # rows told apart
            if not math.isfinite(np.add.reduce(stepped, None)):
                own = (i + 1) // np.reshape(stride, u.shape[:-1]) - 1
                fresh = ~np.isfinite(u).all(axis=-1) & (diverged_at < 0)
                diverged_at = np.where(fresh, own, diverged_at)
                if (diverged_at >= 0).all():
                    break
            if observer is not None:
                observer(i, stepped)
    return u, diverged_at


def _run_row(
    u: np.ndarray,
    scheme: SchemeConfig,
    f: ArrayOperator,
    dt: float,
    steps: range,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """_run on one state, each output of f copied for _step; a dt that is
    not positive and finite is a ParameterError, and a step that diverges
    raises DivergenceError."""
    u = as_state(u)
    if not 0.0 < dt < math.inf:
        raise ParameterError("dt", "dt must be positive and finite")
    u, diverged_at = _run(u, (scheme,), lambda v: f(v).copy(), dt, steps,
                          observer)
    step = int(diverged_at)
    if step >= 0:
        raise DivergenceError(f"step diverged at step {step}", step_index=step)
    return u


def integrate(
    u0: np.ndarray,
    scheme: SchemeConfig,
    rhs: ArrayOperator,
    dt: float,
    n_steps: int,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Apply ``scheme`` n_steps times from u0 and return the final state.

    This is the one-row case of the batched loop _run.
    ``observer(step_index, state)`` is called after every completed step.
    A step that diverges (_run) raises DivergenceError carrying its index.
    """
    if n_steps < 0:
        raise ParameterError("n_steps", "n_steps must be non-negative")
    return _run_row(u0, scheme, rhs, dt, range(n_steps), observer)
