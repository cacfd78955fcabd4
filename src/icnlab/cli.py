"""Command-line front end: single runs, convergence sweeps, stability scans.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  The CLI only
parses and validates flags; every number written to disk comes from the
library calls unchanged.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, output, problems
from .analysis import NORM_KEYS, advection_sweep, burgers_sweep, steps_for
from .core import DivergenceError, Grid1D
from .problems import ProblemKind, initial_condition
from .schemes import SchemeConfig, SchemeVariant, integrate
from .stability import scan_region

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_THETA = 0.6
ADVECTION_RESOLUTIONS = (100, 200, 400, 800, 1600)
BURGERS_DIVISORS = (1, 2, 4, 8)
BURGERS_N = 30
BURGERS_VISCOSITY = 0.01
# table-reproduction defaults: snapshot errors at t = 0.5 for the advection
# problems, time-averaged errors over (0, 1] for Burgers
ADVECTION_T_FINAL = 0.5
BURGERS_T_FINAL = 1.0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icnlab",
        description=(
            "Iterated Crank-Nicolson lab: periodic 1-D test problems, "
            "weighted two-iteration schemes, stability maps, and "
            "convergence tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single integration to CSV")
    run.add_argument("--problem", required=True,
                     choices=["linear", "semilinear", "burgers"])
    run.add_argument("--scheme", required=True,
                     choices=[v.value for v in SchemeVariant])
    run.add_argument("--n", required=True, type=int, help="grid size")
    run.add_argument("--cfl", type=float, default=None,
                     help="advection problems: dt = cfl dx / |a| (default 0.5)")
    run.add_argument("--dt", type=float, default=None,
                     help="burgers: time step (default 0.5 dx^2)")
    run.add_argument("--t-final", type=float, default=1.0)
    run.add_argument("--theta", type=float, default=None)
    run.add_argument("--theta1", type=float, default=None)
    run.add_argument("--theta-o", type=float, default=None)
    run.add_argument("--out", required=True, type=Path)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="convergence tables per norm")
    sweep.add_argument("--problem", required=True,
                       choices=["linear", "semilinear", "burgers"])
    sweep.add_argument("--schemes", default="icn,theta,swapped,ga,aa",
                       help="comma-separated scheme list")
    sweep.add_argument("--resolutions", default=None,
                       help="comma-separated grid sizes (advection) or dt "
                            "divisors (burgers)")
    sweep.add_argument("--cfl", type=float, default=None)
    sweep.add_argument("--n", type=int, default=None,
                       help="burgers grid size (default 30)")
    sweep.add_argument("--dt-base", type=float, default=None,
                       help="burgers base time step (default 0.5 dx^2)")
    sweep.add_argument("--t-final", type=float, default=None,
                       help=f"default {ADVECTION_T_FINAL} for advection, "
                            f"{BURGERS_T_FINAL} for burgers")
    sweep.add_argument("--norms", default="l1,l2,linf")
    sweep.add_argument("--format", default="csv", choices=["csv", "markdown"])
    sweep.add_argument("--theta", type=float, default=None)
    sweep.add_argument("--theta1", type=float, default=None)
    sweep.add_argument("--theta-o", type=float, default=None)
    sweep.add_argument("--cache-dir", type=Path, default=None,
                       help="burgers reference cache directory")
    sweep.add_argument("--out", required=True, type=Path,
                       help="output path; the norm name is inserted before "
                            "the extension, one file per norm")
    sweep.set_defaults(func=cmd_sweep)

    stab = sub.add_parser("stability", help="amplification-factor map")
    stab.add_argument("--variant", required=True, choices=["ga", "aa"])
    stab.add_argument("--theta-min", type=float, default=0.0)
    stab.add_argument("--theta-max", type=float, default=1.0)
    stab.add_argument("--beta-min", type=float, default=0.0)
    stab.add_argument("--beta-max", type=float, default=1.2)
    stab.add_argument("--resolution", type=int, default=241)
    stab.add_argument("--out", required=True, type=Path)
    stab.add_argument("--pgm", type=Path, default=None,
                      help="also write a P2 heatmap here")
    stab.set_defaults(func=cmd_stability)

    return parser


def _scheme_from_flags(variant: str, args) -> SchemeConfig:
    """Build one scheme config, rejecting flags the variant cannot use."""
    relevant = {
        "icn": None,
        "theta": "--theta",
        "swapped": "--theta",
        "ga": "--theta1",
        "aa": "--theta-o",
    }[variant]
    supplied = {
        "--theta": args.theta,
        "--theta1": args.theta1,
        "--theta-o": args.theta_o,
    }
    for flag, value in supplied.items():
        if value is not None and flag != relevant:
            raise UsageError(f"{flag} does not apply to scheme '{variant}'")
    value = DEFAULT_THETA if relevant is None else (
        supplied[relevant] if supplied[relevant] is not None
        else DEFAULT_THETA
    )
    try:
        if variant == "icn":
            return SchemeConfig.icn()
        if variant == "theta":
            return SchemeConfig.theta_icn(value)
        if variant == "swapped":
            return SchemeConfig.swapped_theta_icn(value)
        if variant == "ga":
            return SchemeConfig.ga(value)
        return SchemeConfig.aa(value)
    except ValueError as err:
        raise UsageError(f"{relevant}: {err}") from err


def _schemes_from_flags(names: str, args) -> list[SchemeConfig]:
    configs = []
    for name in names.split(","):
        name = name.strip()
        if name not in [v.value for v in SchemeVariant]:
            raise UsageError(f"--schemes: unknown scheme '{name}'")
        theta_flags = {
            "icn": None, "theta": args.theta, "swapped": args.theta,
            "ga": args.theta1, "aa": args.theta_o,
        }[name]
        value = theta_flags if theta_flags is not None else DEFAULT_THETA
        try:
            configs.append({
                "icn": lambda v: SchemeConfig.icn(),
                "theta": SchemeConfig.theta_icn,
                "swapped": SchemeConfig.swapped_theta_icn,
                "ga": SchemeConfig.ga,
                "aa": SchemeConfig.aa,
            }[name](value))
        except ValueError as err:
            raise UsageError(f"--schemes '{name}': {err}") from err
    return configs


def _run_problem(args):
    if args.problem == "burgers":
        if args.cfl is not None:
            raise UsageError("--cfl does not apply to burgers; use --dt")
        return problems.burgers(BURGERS_VISCOSITY)
    if args.dt is not None:
        raise UsageError("--dt applies to burgers only; use --cfl")
    if args.problem == "linear":
        return problems.linear_advection()
    return problems.semilinear_advection()


def cmd_run(args) -> int:
    problem = _run_problem(args)
    scheme = _scheme_from_flags(args.scheme, args)
    if args.t_final < 0.0:
        raise UsageError("--t-final must be non-negative")
    try:
        grid = Grid1D(args.n)
    except ValueError as err:
        raise UsageError(f"--n: {err}") from err
    if args.problem == "burgers":
        dt = args.dt if args.dt is not None else 0.5 * grid.dx**2
    else:
        cfl = args.cfl if args.cfl is not None else 0.5
        dt = cfl * grid.dx / abs(problem.advection_speed)
    if dt <= 0.0:
        flag = "--dt" if args.problem == "burgers" else "--cfl"
        raise UsageError(f"{flag} must yield a positive time step")
    try:
        steps = steps_for(args.t_final, dt)
    except ValueError as err:
        raise UsageError(f"--t-final: {err}") from err

    final = integrate(initial_condition(grid), scheme, problem.rhs, dt, steps)
    if problem.has_exact:
        reference = problem.exact_field(grid, args.t_final)
    else:
        delta = 0.5 * grid.dx**2
        try:
            reference = analysis.burgers_reference(
                args.n, delta / 32.0, args.t_final, problem.viscosity
            )
        except ValueError as err:
            raise UsageError(f"--t-final: {err}") from err
    output.write_text(
        args.out, output.solution_csv(grid, final.values, reference.values)
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    schemes = _schemes_from_flags(args.schemes, args)
    norms = [n.strip() for n in args.norms.split(",")]
    for n in norms:
        if n not in NORM_KEYS:
            raise UsageError(f"--norms: unknown norm '{n}'")
    if args.resolutions is not None:
        try:
            resolutions = tuple(
                int(r) for r in args.resolutions.split(",")
            )
        except ValueError as err:
            raise UsageError(f"--resolutions: {err}") from err
    else:
        resolutions = (
            BURGERS_DIVISORS if args.problem == "burgers"
            else ADVECTION_RESOLUTIONS
        )
    try:
        if args.problem == "burgers":
            if args.cfl is not None:
                raise UsageError("--cfl does not apply to burgers")
            spec = burgers_sweep(
                schemes,
                dt_divisors=resolutions,
                n_cells=args.n if args.n is not None else BURGERS_N,
                t_final=(args.t_final if args.t_final is not None
                         else BURGERS_T_FINAL),
                dt_base=args.dt_base,
                cache_dir=args.cache_dir,
            )
        else:
            for flag, value in (("--n", args.n), ("--dt-base", args.dt_base)):
                if value is not None:
                    raise UsageError(f"{flag} applies to burgers only")
            problem = (
                problems.linear_advection() if args.problem == "linear"
                else problems.semilinear_advection()
            )
            spec = advection_sweep(
                problem,
                schemes,
                resolutions=resolutions,
                cfl=args.cfl if args.cfl is not None else 0.5,
                t_final=(args.t_final if args.t_final is not None
                         else ADVECTION_T_FINAL),
            )
    except ValueError as err:
        raise UsageError(str(err)) from err

    if spec.is_burgers and spec.cache_dir is not None:
        # warm the persistent final-state cache alongside the sweep
        analysis.burgers_reference(
            spec.n_cells, spec.reference_dt, spec.t_final,
            spec.problem.viscosity, cache_dir=spec.cache_dir,
        )
    result = analysis.run_sweep(spec)
    render = output.sweep_csv if args.format == "csv" else output.sweep_markdown
    extension = ".csv" if args.format == "csv" else ".md"
    for norm in norms:
        suffix = args.out.suffix or extension
        path = args.out.with_name(f"{args.out.stem}_{norm}{suffix}")
        output.write_text(path, render(result, norm))
    return EXIT_OK


def cmd_stability(args) -> int:
    if args.theta_min > args.theta_max:
        raise UsageError("--theta-min exceeds --theta-max")
    if args.beta_min > args.beta_max:
        raise UsageError("--beta-min exceeds --beta-max")
    if args.resolution < 2:
        raise UsageError("--resolution must be at least 2")
    stability_map = scan_region(
        args.variant,
        theta_range=(args.theta_min, args.theta_max),
        beta_range=(args.beta_min, args.beta_max),
        resolution=args.resolution,
    )
    output.write_text(args.out, output.stability_csv(stability_map))
    if args.pgm is not None:
        output.write_text(args.pgm, output.stability_pgm(stability_map))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"icnlab: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as err:
        print(f"icnlab: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
