"""Single calls timed alone, untraced: one rhs evaluation per problem, one
step per scheme on the Burgers rhs, at N = 30 and N = 1600, and the cost
of one (theta, beta) point inside a stability scan."""
from __future__ import annotations

import statistics
import time

from icnlab.core import Grid1D
from icnlab.problems import (burgers, initial_condition, linear_advection,
                             semilinear_advection)
from icnlab.schemes import SchemeConfig
from icnlab.stability import scan_region

SIZES = (30, 1600)
REPEATS = 5


def _per_call_us(call, batch: int) -> float:
    call()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - t0) / batch)
    return 1e6 * statistics.median(samples)


def measure() -> dict[str, float]:
    metrics = {}
    problems = {"linear": linear_advection(), "semilinear": semilinear_advection(),
                "burgers": burgers(0.01)}
    schemes = {"icn": SchemeConfig.icn(), "theta": SchemeConfig.theta_icn(0.6),
               "swapped": SchemeConfig.swapped_theta_icn(0.6),
               "ga": SchemeConfig.ga(0.6), "aa": SchemeConfig.aa(0.6)}
    for n in SIZES:
        grid = Grid1D(n)
        u = initial_condition(grid)
        for name, problem in problems.items():
            metrics[f"problems.rhs_us.{name}.n{n}"] = _per_call_us(
                lambda: problem.rhs(u), 100)
        rhs = problems["burgers"].rhs
        dt = 0.5 * grid.dx**2
        for name, scheme in schemes.items():
            metrics[f"schemes.step_us.{name}.n{n}"] = _per_call_us(
                lambda: scheme.step(u, rhs, dt), 50)
    resolution = 101
    for variant in ("ga", "aa"):
        metrics[f"stability.point_us.{variant}"] = _per_call_us(
            lambda: scan_region(variant, resolution=resolution), 1) / resolution**2
    return metrics
