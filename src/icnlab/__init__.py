"""icnlab: iterated Crank-Nicolson schemes on periodic 1-D grids.

Weighted two-iteration predictor-corrector steppers (including the
geometric and alternating weight variants that stay second order away
from theta = 1/2), von Neumann stability maps, and a convergence-table
harness with a CLI front end.
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
    error_norms,
    observed_order,
    run_sweep,
    steps_for,
)
from .core import DivergenceError, Field, Grid1D, ParameterError
from .problems import (
    Problem,
    ProblemKind,
    burgers,
    initial_condition,
    linear_advection,
    semilinear_advection,
)
from .schemes import (
    SchemeConfig,
    SchemeVariant,
    aa_linear_stencil,
    ga_linear_stencil,
    integrate,
)
from .stability import STABILITY_TOLERANCE, StabilityMap, scan_region

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRow",
    "DivergenceError",
    "Field",
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
    "aa_linear_stencil",
    "advection_sweep",
    "burgers",
    "burgers_reference",
    "burgers_sweep",
    "error_norms",
    "ga_linear_stencil",
    "initial_condition",
    "integrate",
    "linear_advection",
    "observed_order",
    "run_sweep",
    "scan_region",
    "semilinear_advection",
    "steps_for",
]
