"""icnlab: iterated Crank-Nicolson schemes on periodic 1-D grids.

Weighted two-iteration predictor-corrector steppers (including the
geometric and alternating weight variants that stay second order away
from theta = 1/2), von Neumann stability maps, and a convergence-table
harness with a CLI front end.  A state is a plain array of nodal values
on the periodic grid [0, 1), so dx = 1/N follows from its length.
"""
from .analysis import (
    ConvergenceRow,
    NormTriple,
    SchemeTable,
    SweepResult,
    SweepSpec,
    advection_sweep,
    burgers_reference,
    burgers_sweep,
    observed_order,
    run_sweep,
    steps_for,
)
from .core import DivergenceError, Grid1D, ParameterError
from .problems import (
    Problem,
    ProblemKind,
    burgers,
    initial_condition,
    linear_advection,
    semilinear_advection,
)
from .schemes import SchemeConfig, SchemeVariant, integrate
from .stability import STABILITY_TOLERANCE, StabilityMap, scan_region

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRow",
    "DivergenceError",
    "Grid1D",
    "NormTriple",
    "ParameterError",
    "Problem",
    "ProblemKind",
    "STABILITY_TOLERANCE",
    "SchemeConfig",
    "SchemeTable",
    "SchemeVariant",
    "StabilityMap",
    "SweepResult",
    "SweepSpec",
    "advection_sweep",
    "burgers",
    "burgers_reference",
    "burgers_sweep",
    "initial_condition",
    "integrate",
    "linear_advection",
    "observed_order",
    "run_sweep",
    "scan_region",
    "semilinear_advection",
    "steps_for",
]
