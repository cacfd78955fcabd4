"""Command-line front end: single runs, convergence sweeps, stability scans.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  The library
validates its inputs and names the parameter at fault in a ParameterError;
``main`` maps that name to its flag (``flag``) and exits 2.  The CLI checks
only what no library call sees, such as --norms and the output paths, and
raises the same error; a failed write, or arrays too large for memory, also
exit 2.  Every number written to disk comes from the library calls
unchanged.

``main`` parses a command with a parser of that command's arguments alone,
whose help and errors are its subparser's in ``build_parser``.  The whole
tree is built only for the top-level help, a missing or unknown command and
arguments the command does not take.
"""
from __future__ import annotations

import argparse
import functools
import math
import shutil
import stat
import sys
from pathlib import Path

import numpy as np

from . import analysis, output, problems
from .analysis import NORM_KEYS, advection_sweep, burgers_sweep, steps_for
from .core import DivergenceError, Grid1D, ParameterError
from .problems import initial_condition
from .schemes import (PARAMETER, VARIANTS, SchemeConfig, SchemeVariant,
                      integrate)
from .stability import scan_region

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_THETA = 0.6
# the scheme parameters in enum order, also the dests of their flags
THETA_NAMES = tuple(dict.fromkeys(p for p in PARAMETER.values() if p))
# The flag of each parameter whose flag is not "--" and its name with
# dashes.  A parameter is a library argument or field (Grid1D, SchemeConfig,
# steps_for, SweepSpec, integrate, scan_region) or the dest of a flag; a
# scan range names the pair of flags that bound it.
FLAGS = {"n_cells": "--n", "theta_odd": "--theta-o",
         "n_steps": "--t-final", "theta_range": "--theta-min/--theta-max",
         "beta_range": "--beta-min/--beta-max"}
# the constructor of each --problem, which supplies its defaults
PROBLEMS = {"linear": problems.linear_advection,
            "semilinear": problems.semilinear_advection,
            "burgers": problems.burgers}


def flag(parameter: str) -> str:
    """The flag that sets ``parameter``."""
    return FLAGS.get(parameter, "--" + parameter.replace("_", "-"))


def _fill_run(run: argparse.ArgumentParser) -> None:
    run.add_argument("--problem", required=True, choices=list(PROBLEMS))
    run.add_argument("--scheme", required=True, choices=VARIANTS)
    run.add_argument("--n", required=True, type=int, help="grid size")
    run.add_argument("--cfl", type=float, default=None,
                     help="advection problems: dt = cfl dx / |a| "
                          f"(default {analysis.CFL:g})")
    run.add_argument("--dt", type=float, default=None,
                     help="burgers: time step (default 0.5 dx^2)")
    run.add_argument("--t-final", type=float, default=1.0)
    run.add_argument("--out", required=True, type=Path)
    run.set_defaults(func=cmd_run)
    for name in THETA_NAMES:
        run.add_argument(flag(name), dest=name, type=float, default=None)


def _fill_sweep(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--problem", required=True, choices=list(PROBLEMS))
    sweep.add_argument("--schemes", default="icn,theta,swapped,ga,aa",
                       help="comma-separated scheme list")
    sweep.add_argument("--resolutions", default=None,
                       help="comma-separated grid sizes (advection) or dt "
                            "divisors (burgers)")
    sweep.add_argument("--cfl", type=float, default=None)
    sweep.add_argument("--n", type=int, default=None,
                       help=f"burgers grid size (default {analysis.N_CELLS})")
    sweep.add_argument("--dt-base", type=float, default=None,
                       help="burgers base time step (default 0.5 dx^2)")
    sweep.add_argument(
        "--t-final", type=float, default=None,
        help=f"default {analysis.ADVECTION_T_FINAL:g} for advection, "
             f"{analysis.BURGERS_T_FINAL:g} for burgers",
    )
    sweep.add_argument("--norms", default="l1,l2,linf")
    sweep.add_argument("--format", default="csv", choices=["csv", "markdown"])
    sweep.add_argument("--cache-dir", type=Path, default=None,
                       help="burgers reference cache directory")
    sweep.add_argument("--out", required=True, type=Path,
                       help="output path; the norm name is inserted before "
                            "the extension, one file per norm")
    sweep.set_defaults(func=cmd_sweep)
    for name in THETA_NAMES:
        sweep.add_argument(flag(name), dest=name, type=float, default=None)


def _fill_stability(stab: argparse.ArgumentParser) -> None:
    stab.add_argument("--variant", required=True, choices=VARIANTS)
    stab.add_argument("--theta-min", type=float, default=0.0)
    stab.add_argument("--theta-max", type=float, default=1.0)
    stab.add_argument("--beta-min", type=float, default=0.0)
    stab.add_argument("--beta-max", type=float, default=1.2)
    stab.add_argument("--resolution", type=int, default=241)
    stab.add_argument("--out", required=True, type=Path)
    stab.add_argument("--pgm", type=Path, default=None,
                      help="also write a P2 heatmap here")
    stab.set_defaults(func=cmd_stability)


# each command's help line and the function that adds its arguments
COMMANDS = {"run": ("single integration to CSV", _fill_run),
            "sweep": ("convergence tables per norm", _fill_sweep),
            "stability": ("amplification-factor map", _fill_stability)}


def _formatter():
    # every parser formats its help at the width HelpFormatter would read
    # from the terminal itself, read once per parser rather than per argument
    return functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )


def build_parser() -> argparse.ArgumentParser:
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="icnlab",
        formatter_class=formatter,
        description=(
            "Iterated Crank-Nicolson lab: periodic 1-D test problems, "
            "weighted two-iteration schemes, stability maps, and "
            "convergence tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, fill) in COMMANDS.items():
        fill(sub.add_parser(name, help=help_, formatter_class=formatter))
    return parser


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, from the named command's parser
    alone when it takes every argument; the top parser reports the rest."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        command = argparse.ArgumentParser(prog=f"icnlab {argv[0]}",
                                          formatter_class=_formatter())
        COMMANDS[argv[0]][1](command)
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _items(args, name: str, known) -> list[str]:
    """The comma-separated items of flag ``name``, each one of ``known``."""
    items = [item.strip() for item in getattr(args, name).split(",")]
    for item in items:
        if item not in known:
            raise ParameterError(
                name, f"{item!r} is not one of {', '.join(known)}"
            )
    return items


def _schemes(args, name: str) -> list[SchemeConfig]:
    """Configs for the scheme names of flag ``name``, each taking its
    parameter from its flag or DEFAULT_THETA.  A theta flag that no listed
    scheme takes is a usage error."""
    variants = [SchemeVariant(v) for v in _items(args, name, VARIANTS)]
    taken = {PARAMETER[v] for v in variants}
    for theta in THETA_NAMES:
        if getattr(args, theta) is not None and theta not in taken:
            raise ParameterError(theta, "does not apply to scheme(s) "
                                        f"'{getattr(args, name)}'")

    def config(variant: SchemeVariant) -> SchemeConfig:
        theta = PARAMETER[variant]
        if theta is None:
            return SchemeConfig(variant)
        value = getattr(args, theta)
        return SchemeConfig(variant, DEFAULT_THETA if value is None else value)
    return [config(variant) for variant in variants]


def _given(**options) -> dict:
    """The options whose flag was given; the library supplies the rest."""
    return {name: value for name, value in options.items()
            if value is not None}


def _problem(args, **burgers_only):
    """The --problem's Problem.  Giving --cfl for burgers, or a flag of
    ``burgers_only`` (parameter -> value) for advection, is a usage
    error."""
    given = {"cfl": args.cfl} if args.problem == "burgers" else burgers_only
    for name, value in given.items():
        if value is not None:
            raise ParameterError(
                name, f"does not apply to --problem {args.problem}"
            )
    return PROBLEMS[args.problem]()


def cmd_run(args, outputs) -> int:
    problem = _problem(args, dt=args.dt)
    (scheme,) = _schemes(args, "scheme")
    grid = Grid1D(args.n)
    if problem.has_exact:
        dt = analysis.advection_dt(problem, args.n, **_given(cfl=args.cfl))
    else:
        dt = args.dt if args.dt is not None else analysis.burgers_dt(args.n)
    # dt comes from --cfl or --dt, and only here is it known which
    if not 0.0 < dt < math.inf:
        raise ParameterError("cfl" if problem.has_exact else "dt",
                             "must yield a positive finite time step")
    steps = steps_for(args.t_final, dt)
    # the reference's fine step may not reach t_final either: a usage error
    # before any step.  The reference is built after the run, so that a
    # run that diverges exits before paying for it
    if not problem.has_exact:
        dt_fine = analysis.burgers_dt(args.n) / analysis.REFERENCE_DIVISOR
        steps_for(args.t_final, dt_fine)

    final = integrate(initial_condition(grid), scheme,
                      problem.array_rhs(grid), dt, steps)
    if problem.has_exact:
        reference = problem.exact_solution(grid.nodes(), args.t_final)
    else:
        reference = analysis.burgers_reference(
            args.n, dt_fine, args.t_final, problem.viscosity
        )
    _write(*outputs["out"], output.solution_csv(grid, final, reference))
    return EXIT_OK


def cmd_sweep(args, outputs) -> int:
    schemes = _schemes(args, "schemes")
    resolutions = None
    if args.resolutions is not None:
        try:
            resolutions = tuple(map(int, args.resolutions.split(",")))
        except ValueError as err:
            raise ParameterError("resolutions",
                                 "resolutions must be comma-separated ints"
                                 ) from err
    problem = _problem(
        args, n_cells=args.n, dt_base=args.dt_base, cache_dir=args.cache_dir
    )
    if problem.has_exact:
        spec = advection_sweep(problem, schemes, **_given(
            resolutions=resolutions, cfl=args.cfl, t_final=args.t_final,
        ))
    else:
        spec = burgers_sweep(schemes, **_given(
            dt_divisors=resolutions, n_cells=args.n,
            t_final=args.t_final, dt_base=args.dt_base,
            cache_dir=args.cache_dir,
        ))

    try:
        if spec.cache_dir is not None:
            Path(spec.cache_dir).mkdir(parents=True, exist_ok=True)
        # the reference cache is the one file a sweep writes before its
        # tables, so a failed write leaves no table behind
        result = analysis.run_sweep(spec)
    except OSError as err:
        raise ParameterError("cache_dir", str(err)) from err
    render = output.sweep_csv if args.format == "csv" else output.sweep_markdown
    for norm, (name, path) in outputs.items():
        _write(name, path, render(result, norm))
    return EXIT_OK


def cmd_stability(args, outputs) -> int:
    variant = SchemeVariant(args.variant)
    name = PARAMETER[variant]
    # the map's theta axis is the variant's parameter; a weight of theta,
    # swapped or aa lies in [0, 1], as SchemeConfig checks, while ga's map
    # also takes theta1 = 0, which no ga scheme does.  scan_region maps
    # any theta, so the bounds are checked here
    if name is not None and variant is not SchemeVariant.GA:
        for bound in ("theta_min", "theta_max"):
            try:
                SchemeConfig(variant, getattr(args, bound))
            except ParameterError as err:
                raise ParameterError(bound, str(err)) from err
    # finite but huge bounds overflow the factor's terms: to an inf |g|,
    # which is written as such, or to inf * 0, a NaN, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        stability_map = scan_region(
            variant,
            theta_range=(args.theta_min, args.theta_max),
            beta_range=(args.beta_min, args.beta_max),
            resolution=args.resolution,
        )
    if np.isnan(stability_map.modulus).any():
        # the bound of largest magnitude is the one that overflowed
        bound = max(("theta_min", "theta_max", "beta_min", "beta_max"),
                    key=lambda b: abs(getattr(args, b)))
        raise ParameterError(bound, "|g| is not a number on this map; its "
                                    "bounds are too large")
    _write(*outputs["out"], output.stability_csv(stability_map))
    if "pgm" in outputs:
        _write(*outputs["pgm"], output.stability_pgm(stability_map))
    return EXIT_OK


def _outputs(args) -> dict[str, tuple[str, Path]]:
    """The files the command writes, each as (the parameter of its flag,
    its path), by what it holds: --out's and --pgm's, or a sweep's one
    file per norm, named by inserting the norm before --out's extension."""
    if args.command != "sweep":
        return {name: (name, getattr(args, name)) for name in ("out", "pgm")
                if getattr(args, name, None) is not None}
    if args.out.name in ("", ".."):  # ".", "/" or "..": no name to extend
        raise ParameterError("out", f"{str(args.out)!r} is a directory")
    suffix = args.out.suffix or (".csv" if args.format == "csv" else ".md")
    return {norm: ("out",
                   args.out.with_name(f"{args.out.stem}_{norm}{suffix}"))
            for norm in _items(args, "norms", NORM_KEYS)}


def _write(name: str, path: Path, content) -> None:
    """Write ``content``, as output.write_text takes it, to ``path``,
    which flag ``name`` gives; a failed write is a usage error on that
    flag."""
    try:
        output.write_text(path, content)
    except OSError as err:
        raise ParameterError(name, str(err)) from err


def _check_output(name: str, path: Path) -> tuple | Path | None:
    """A usage error on flag ``name`` unless ``path`` is a file, or is
    missing from a directory that exists; one stat for a file that exists.
    Returns what names the file to write: its (device, inode), or its
    resolved path if it is missing; None for a device or a pipe, which any
    number of outputs may share."""
    try:
        st = path.stat()
    except (FileNotFoundError, NotADirectoryError):
        # a dangling symlink's own directory exists, its target's may not
        resolved = path.resolve()
        for parent in (path.parent, resolved.parent):
            if not parent.is_dir():
                raise ParameterError(
                    name, f"no directory {str(parent)!r} for {path.name}"
                ) from None
        return resolved
    except OSError as err:
        raise ParameterError(name, str(err)) from err
    if stat.S_ISDIR(st.st_mode):
        raise ParameterError(name, f"{str(path)!r} is a directory")
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _sized_by(args) -> str | None:
    """The parameter whose flag sizes the command's arrays; none does alone
    for a Burgers sweep."""
    if args.command == "sweep":
        return None if args.problem == "burgers" else "resolutions"
    return "n_cells" if args.command == "run" else "resolution"


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        # fail before any work, not after a whole sweep; the command writes
        # the files checked here, and a second output to one file would
        # replace the first
        outputs = _outputs(args)
        files = {}
        for name, path in outputs.values():
            file = _check_output(name, path)
            if file in files:
                raise ParameterError(name, f"{str(path)!r} is also the file "
                                           f"of {flag(files[file])}")
            if file is not None:
                files[file] = name
        return args.func(args, outputs)
    except ParameterError as err:
        print(f"icnlab: error: {flag(err.parameter)}: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:
        name = _sized_by(args)
        where = "" if name is None else f"{flag(name)}: "
        print(f"icnlab: error: {where}too large for memory: {err}",
              file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as err:
        print(f"icnlab: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
