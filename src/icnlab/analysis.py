"""Error norms, convergence orders, refinement sweeps, and the Burgers
fine-step reference.

Two sweep protocols are supported, matching how the reference tables were
produced:

  * advection problems refine the grid at fixed CFL and measure the error
    against the exact solution in a single snapshot at t_final;
  * the Burgers study refines dt on a fixed grid, measures the error
    against a fine-step reference run after every step, and reports the
    running mean of each norm ("norm in time").

The Burgers reference is one ICN integration at dt_fine, run in one batch
with every cell of the sweep (_burgers_batch).  The library keeps no
state between calls: without a cache directory every call integrates the
reference.  With one, a sweep's trajectory is persisted as
``burgers-ref-...-every<cadence>.npy``, the one file read back, so a warm
cache integrates nothing and its cells run on the finest divisor's
clock.  The SHA-256 of its states is written beside it as
``...-every<cadence>.sha256``, and a trajectory without a matching digest
is integrated again and both files rewritten, the digest last, after the
batch and before any table.  The final state is written next to them as
``burgers-ref-....csv``, an output derived from the trajectory's last row
that the library never reads back (perfbench's cache check does); it is
rewritten unless it already holds exactly those bytes.
``burgers_reference``, the final state alone, is the same batch with the
reference row alone; it reads and writes no file.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
# tokenize costs no import time: dataclasses imports inspect, which
# imports it
from tokenize import TokenError

import numpy as np

from .core import DivergenceError, Grid1D, ParameterError
from .problems import (
    VISCOSITY,
    Problem,
    ProblemKind,
    burgers,
    initial_condition,
)
from .schemes import SchemeConfig, _run


@dataclass(frozen=True)
class NormTriple:
    """L1 = dx sum|e|, L2 = dx sqrt(sum e^2) and Linf = max|e| of an error
    e on N nodes, dx = 1/N.  L2 carries an extra sqrt(dx) over the usual
    discrete L2 norm, which is why second-order schemes show L2 orders of
    2.5 in the refinement tables."""

    l1: float
    l2: float
    linf: float

    def get(self, key: str) -> float:
        return getattr(self, key)


NORM_KEYS = ("l1", "l2", "linf")


def observed_order(e_coarse: float, e_fine: float) -> float:
    """log2 error ratio for a resolution pair that refines by exactly 2x."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("order undefined")
    return math.log2(e_coarse / e_fine)


def steps_for(t_final: float, dt: float) -> int:
    """Uniform step count reaching t_final, or an error if none exists.

    The sign of dt is not checked: 0 steps reach t_final = 0 at any dt.
    """
    if not 0.0 <= t_final < math.inf:
        raise ParameterError("t_final", "t_final must be finite and "
                                        "non-negative")
    if not math.isfinite(dt):
        raise ParameterError("dt", "dt must be finite")
    if t_final == 0.0:
        return 0
    # dt may underflow to 0, and t_final / dt may overflow
    ratio = t_final / dt if dt != 0.0 else math.inf
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - t_final) > 1e-9 * t_final:
        raise ParameterError("t_final", "t_final not reachable with uniform "
                                        "steps")
    return steps


# The Burgers reference runs ICN at this fraction of the base time step.
REFERENCE_DIVISOR = 32
# The advection problems' default CFL number.
CFL = 0.5
# The Burgers study's fixed grid size.
N_CELLS = 30
# The end times of the advection and Burgers sweeps.
ADVECTION_T_FINAL = 0.5
BURGERS_T_FINAL = 1.0
# The most states a Burgers cell holds before reducing their norms.
BLOCK = 64


def burgers_dt(n_cells: int) -> float:
    """Default Burgers base time step, 0.5 dx^2 on the n_cells grid."""
    return 0.5 * Grid1D(n_cells).dx ** 2


def advection_dt(problem: Problem, n_cells: int, cfl: float = CFL) -> float:
    """Advection time step cfl dx / |a| on the n_cells grid."""
    return cfl * Grid1D(n_cells).dx / abs(problem.advection_speed)


@dataclass(frozen=True)
class SweepSpec:
    """One convergence study: problem, schemes, and a refinement axis.

    ``resolutions`` holds grid sizes for the advection problems and dt
    divisors (dt = dt_base / divisor) for Burgers, where the grid is fixed
    at ``n_cells`` and dt_base defaults to 0.5 dx^2.  The problem fixes the
    error protocol: one snapshot against the exact solution at t_final for
    advection, the mean over every step against the fine-step reference
    for Burgers.
    """

    problem: Problem
    schemes: tuple[SchemeConfig, ...]
    resolutions: tuple[int, ...]
    t_final: float
    cfl: float = CFL
    n_cells: int = N_CELLS
    dt_base: float | None = None
    cache_dir: str | Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "resolutions", tuple(self.resolutions))
        if not self.schemes:
            raise ParameterError("schemes", "at least one scheme is required")
        if not self.resolutions:
            raise ParameterError("resolutions",
                                 "at least one resolution is required")
        if any(
            b <= a for a, b in zip(self.resolutions, self.resolutions[1:])
        ):
            raise ParameterError("resolutions",
                                 "resolutions must be strictly increasing")
        if not self.t_final > 0.0:
            raise ParameterError("t_final", "t_final must be positive")
        # cfl, dt_base and the grid sizes are checked here, before a dt or
        # a grid is derived from them, so an error names them and not dt
        if not 0.0 < self.cfl < math.inf:
            raise ParameterError("cfl", "cfl must be positive and finite")
        if self.dt_base is not None and not 0.0 < self.dt_base < math.inf:
            raise ParameterError("dt_base",
                                 "dt_base must be positive and finite")
        if self.resolutions[0] < 1:
            raise ParameterError("resolutions", "resolutions must be positive")
        if self.is_burgers:
            Grid1D(self.n_cells)
            if REFERENCE_DIVISOR % math.lcm(*self.resolutions) != 0:
                raise ParameterError(
                    "resolutions",
                    f"the reference divisor {REFERENCE_DIVISOR} must be a "
                    "multiple of every dt divisor",
                )
        elif self.problem.advection_speed == 0.0:
            raise ParameterError(
                "problem", "advection speed must be nonzero for a CFL sweep"
            )
        elif self.resolutions[0] < 4:
            raise ParameterError("resolutions",
                                 "grid sizes must be at least 4")
        # every cell must reach t_final, so no cell fails on its step count;
        # a dt that underflows to 0 reaches none, through cfl or dt_base
        if not all(self.dt(r) > 0.0 for r in self.resolutions):
            raise ParameterError("dt_base" if self.is_burgers else "cfl",
                                 "the time step underflows to 0, so t_final "
                                 "is not reachable")
        for resolution in self.resolutions:
            steps_for(self.t_final, self.dt(resolution))

    @property
    def is_burgers(self) -> bool:
        return self.problem.kind is ProblemKind.BURGERS

    @property
    def base_dt(self) -> float:
        """Burgers base time step: dt_base, or 0.5 dx^2 on the fixed grid."""
        if self.dt_base is not None:
            return self.dt_base
        return burgers_dt(self.n_cells)

    @property
    def reference_dt(self) -> float:
        """Time step of the Burgers fine-step reference run."""
        return self.base_dt / REFERENCE_DIVISOR

    def dt(self, resolution: int) -> float:
        """Time step of the cells at one grid size or dt divisor."""
        if self.is_burgers:
            return self.base_dt / resolution
        return advection_dt(self.problem, resolution, self.cfl)


def advection_sweep(
    problem: Problem,
    schemes,
    resolutions=(100, 200, 400, 800, 1600),
    cfl: float = CFL,
    t_final: float = ADVECTION_T_FINAL,
) -> SweepSpec:
    """Grid-refinement study at fixed CFL against the exact solution."""
    if problem.kind is ProblemKind.BURGERS:
        raise ParameterError("problem",
                             "use burgers_sweep for the Burgers problem")
    return SweepSpec(
        problem=problem,
        schemes=tuple(schemes),
        resolutions=tuple(resolutions),
        t_final=t_final,
        cfl=cfl,
    )


def burgers_sweep(
    schemes,
    dt_divisors=(1, 2, 4, 8),
    n_cells: int = N_CELLS,
    t_final: float = BURGERS_T_FINAL,
    viscosity: float = VISCOSITY,
    dt_base: float | None = None,
    cache_dir: str | Path | None = None,
) -> SweepSpec:
    """dt-refinement study on a fixed grid against the fine-step reference."""
    return SweepSpec(
        problem=burgers(viscosity),
        schemes=tuple(schemes),
        resolutions=tuple(dt_divisors),
        t_final=t_final,
        n_cells=n_cells,
        dt_base=dt_base,
        cache_dir=cache_dir,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    resolution_label: int
    norms: NormTriple | None
    orders: tuple[float, float, float] | None
    failed: bool = False
    # index of the first step that was not finite, for a failed cell
    diverged_at: int | None = None


@dataclass(frozen=True)
class SchemeTable:
    scheme: SchemeConfig
    rows: tuple[ConvergenceRow, ...]


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    tables: tuple[SchemeTable, ...]


class _MeanNorms:
    """Running mean of the three norms of each row over the states visited
    by a batched run, taken a block of states at a time."""

    def __init__(self, dx: float, rows: int):
        self.dx = dx
        self.sums = np.zeros((3, rows))  # l1, l2, linf
        self.count = 0

    def add(self, errors: np.ndarray) -> None:
        """Add the norms of b states of errors, shape (b, rows, N), in
        step order."""
        # a reduction along the last axis of (b, K, N) equals the reduction
        # of each (N,) row bit for bit, and a cumulative sum along the
        # states of [carry, term 0, term 1, ...] is the sequential +=
        magnitude = np.abs(errors)
        terms = np.empty((len(errors) + 1,) + self.sums.shape)
        terms[0] = self.sums
        terms[1:, 0] = self.dx * magnitude.sum(axis=-1)
        terms[1:, 1] = self.dx * np.sqrt((errors * errors).sum(axis=-1))
        terms[1:, 2] = magnitude.max(axis=-1)
        self.sums = terms.cumsum(axis=0)[-1]
        self.count += len(errors)

    def result(self, row: int) -> NormTriple:
        return NormTriple(*(float(total / self.count)
                            for total in self.sums[:, row]))

    def cells(self, diverged_at) -> list[tuple[NormTriple | None, int | None]]:
        """Per row, (its norms, None), or (None, the step at which it
        diverged) for a row that diverged (diverged_at, as _run gives it):
        its norms are dropped."""
        return [(None, int(step)) if step >= 0 else (self.result(k), None)
                for k, step in enumerate(diverged_at)]


class _Cells:
    """The K scheme rows of one dt divisor in a Burgers batch.

    Each of the cells' own steps is compared with the reference state at
    its time, a block of at most BLOCK states at a time, into the running
    mean of each row's norms.  _burgers_batch places the rows (start, end)
    and the reference states they are compared with (targets); after it,
    ``results`` holds its rows' cells (_MeanNorms.cells).
    """

    def __init__(self, spec: SweepSpec, divisor: int):
        self.schemes = spec.schemes
        self.dt = spec.dt(divisor)
        self.steps = steps_for(spec.t_final, self.dt)
        # fine steps of the reference per step of these cells
        self.spacing = REFERENCE_DIVISOR // divisor
        rows = len(self.schemes)
        self.mean = _MeanNorms(Grid1D(spec.n_cells).dx, rows)
        self.block = np.empty((min(BLOCK, self.steps), rows, spec.n_cells))
        self.taken = 0

    def observe(self, u: np.ndarray) -> None:
        """Keep the cells' rows of the batch after their next step."""
        self.block[self.taken % BLOCK] = u[self.start:self.end]
        self.taken += 1
        if self.taken % BLOCK == 0:
            self.reduce(self.taken)

    def reduce(self, end: int) -> None:
        start = (end - 1) // BLOCK * BLOCK
        self.mean.add(self.block[:end - start] - self.targets[start:end])

    def finish(self, diverged_at: np.ndarray) -> None:
        if self.steps % BLOCK:
            # a batch that ended early did so because every row diverged,
            # and mean.cells drops diverged rows' norms
            with np.errstate(over="ignore", invalid="ignore"):
                self.reduce(self.steps)
        self.results = self.mean.cells(diverged_at[self.start:self.end])


def _burgers_batch(
    grid: Grid1D,
    dt_fine: float,
    steps: int,
    viscosity: float,
    cadence: int,
    states: np.ndarray | None = None,
    cells: tuple[_Cells, ...] = (),
) -> np.ndarray:
    """The ICN reference and the cells as the rows of one run (_run).

    With ``states`` None, the reference is row 0, integrated for ``steps``
    fine steps and kept every ``cadence`` of them into fresh states; its
    fine step is the clock.  Otherwise ``states`` is the reference every
    ``cadence`` fine steps, and the clock is that step.  The cells follow,
    finest first, each taking a step when its spacing in fine steps ends
    on the clock, and so at a time at which the reference state is kept.
    Every row's arithmetic is its own, so each holds the bits it would
    alone.  Returns the states; a reference step that is not finite
    raises DivergenceError with its index.
    """
    cold = states is None
    per_clock = 1 if cold else cadence  # fine steps per clock step
    schemes, dts, strides = [], [], []
    if cold:
        states = np.empty((steps // cadence, grid.n_cells))
        schemes, dts, strides = [SchemeConfig.icn()], [dt_fine], [1]
    cells = sorted(cells, key=lambda group: group.spacing)
    for group in cells:
        rows = len(group.schemes)
        group.start, group.end = len(schemes), len(schemes) + rows
        sample = group.spacing // cadence
        group.targets = states[sample - 1::sample, None]
        schemes += group.schemes
        dts += [group.dt] * rows
        strides += [group.spacing // per_clock] * rows

    def observe(i: int, u: np.ndarray) -> None:
        # u holds the rows stepped at i, the reference first
        if cold and (i + 1) % cadence == 0:
            states[i // cadence] = u[0]
        for group in cells:
            if group.end > len(u):
                break
            group.observe(u)

    problem = burgers(viscosity)
    _, diverged_at = _run(
        np.tile(initial_condition(grid), (len(schemes), 1)), schemes,
        lambda m: problem.array_rhs(grid, m), dts,
        range(steps // per_clock), observe, strides,
    )
    if cold and diverged_at[0] >= 0:
        step = int(diverged_at[0])
        raise DivergenceError(f"step diverged at step {step}",
                              step_index=step)
    for group in cells:
        group.finish(diverged_at)
    return states


def _states_digest(states: np.ndarray) -> bytes:
    """The content of a trajectory's digest file: the SHA-256 of its
    states in C order, in hex, and a newline."""
    # the interpreter's own SHA-256, imported only when a cache is used:
    # hashlib loads OpenSSL, about 3.7 MB more resident memory per process
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
    return f"{sha256(states.tobytes()).hexdigest()}\n".encode()


def _read_trajectory(path: Path, shape: tuple[int, int]) -> np.ndarray | None:
    """A cached trajectory, or None unless the file holds a float64 array
    of exactly ``shape`` with every value finite, whose digest is the one
    in the ``.sha256`` file beside it.  A header that np.load cannot parse
    (TokenError), or whose shape cannot be allocated or overflows the
    element count, is a miss too."""
    try:
        states = np.load(path, allow_pickle=False)
        recorded = path.with_suffix(".sha256").read_bytes()
    except (OSError, ValueError, EOFError, MemoryError, OverflowError,
            TokenError):
        return None
    if (
        not isinstance(states, np.ndarray)
        or states.dtype != np.float64
        or states.shape != shape
        or not np.isfinite(states).all()
        or recorded != _states_digest(states)
    ):
        return None
    return states


def _write_atomic(path: Path, write) -> None:
    """``write(handle)`` into a temporary file that then replaces ``path``,
    so a reader never sees a partial file; if either step fails, the
    temporary file, named by ``path`` and the process id so that no two
    writers share it, is removed and the error raised."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _final_state_csv(grid: Grid1D, final: np.ndarray) -> bytes:
    """``x,u`` rows with 17 significant digits, enough to give back every
    float64 value exactly."""
    lines = ["x,u"]
    lines += [f"{x:.17e},{v:.17e}"
              for x, v in zip(grid.nodes().tolist(), final.tolist())]
    return "\n".join(lines).encode() + b"\n"


def _reference_trajectory(
    grid: Grid1D,
    dt_fine: float,
    t_final: float,
    viscosity: float,
    cadence: int,
    cache_dir: str | Path | None = None,
    cells: tuple[_Cells, ...] = (),
) -> np.ndarray:
    """ICN reference states every ``cadence`` fine steps up to t_final,
    integrated in one batch with ``cells`` (_burgers_batch), or read from
    and written to ``cache_dir`` as the module docstring describes; on a
    read, the cells run alone."""
    steps = steps_for(t_final, dt_fine)
    if steps % cadence != 0:
        raise ValueError("reference cadence does not divide the step count")
    args = (grid, dt_fine, steps, viscosity, cadence)
    if cache_dir is None:
        return _burgers_batch(*args, None, cells)
    name = (
        f"burgers-ref-n{grid.n_cells}-t{t_final!r}-dt{dt_fine!r}"
        f"-nu{viscosity!r}"
    )
    path = Path(cache_dir) / f"{name}-every{cadence}.npy"
    states = _read_trajectory(path, (steps // cadence, grid.n_cells))
    if states is None:
        states = _burgers_batch(*args, None, cells)
        # the digest goes last: a trajectory replaced without it is a miss,
        # never a hit
        _write_atomic(path, lambda handle: np.save(handle, states))
        digest = _states_digest(states)
        _write_atomic(path.with_suffix(".sha256"),
                      lambda handle: handle.write(digest))
    elif cells:
        _burgers_batch(*args, states, cells)
    csv = path.with_name(f"{name}.csv")
    content = _final_state_csv(grid, states[-1])
    if not (csv.is_file() and csv.read_bytes() == content):
        _write_atomic(csv, lambda handle: handle.write(content))
    return states


def burgers_reference(
    n_cells: int,
    dt_fine: float,
    t_final: float,
    viscosity: float = VISCOSITY,
) -> np.ndarray:
    """Fine-step ICN solution used as the Burgers 'exact' state at t_final.

    Only the final state is integrated, in O(N) memory; no cache file is
    read or written (see the module docstring).
    """
    grid = Grid1D(n_cells)
    if t_final == 0.0:
        return initial_condition(grid)
    steps = steps_for(t_final, dt_fine)
    (final,) = _burgers_batch(grid, dt_fine, steps, viscosity, steps)
    return final


def _resolution_cells(
    spec: SweepSpec, resolution: int
) -> list[tuple[NormTriple | None, int | None]]:
    """Norms and first non-finite step of every scheme at one advection
    grid size, against the exact solution at t_final.

    The schemes share the grid and dt here, so they run together as the
    rows of one (K, N) state; a diverged row has no norms.
    """
    grid = Grid1D(resolution)
    dt = spec.dt(resolution)
    steps = steps_for(spec.t_final, dt)
    rows = len(spec.schemes)
    u0 = np.tile(initial_condition(grid), (rows, 1))
    f = spec.problem.array_rhs(grid, rows)
    mean = _MeanNorms(grid.dx, rows)
    # the snapshot is the mean over the one final state
    final, diverged_at = _run(u0, spec.schemes, f, dt, range(steps))
    exact = spec.problem.exact_solution(grid.nodes(), spec.t_final)
    # diverged rows hold inf and nan; mean.cells drops their norms
    with np.errstate(over="ignore", invalid="ignore"):
        mean.add((final - exact)[None])
    return mean.cells(diverged_at)


def _assemble_rows(spec: SweepSpec, cells) -> tuple[ConvergenceRow, ...]:
    rows = []
    previous: NormTriple | None = None
    previous_label: int | None = None
    for label, (norms, diverged_at) in zip(spec.resolutions, cells):
        orders = None
        if (
            norms is not None
            and previous is not None
            and label == 2 * previous_label
            and all(previous.get(k) > 0 and norms.get(k) > 0
                    for k in NORM_KEYS)
        ):
            orders = tuple(
                observed_order(previous.get(k), norms.get(k))
                for k in NORM_KEYS
            )
        rows.append(
            ConvergenceRow(
                resolution_label=label,
                norms=norms,
                orders=orders,
                failed=norms is None,
                diverged_at=diverged_at,
            )
        )
        previous = norms
        previous_label = label
    return tuple(rows)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (scheme, resolution) cell and assemble convergence tables.

    The schemes of one advection grid size run as one batch, and a Burgers
    sweep's cells and reference as another (the module docstring).  A
    diverging cell is marked failed, with the step where it stopped being
    finite, and the sweep continues.  Batches run one after another in a
    fixed order, so tables are deterministic.
    """
    if spec.is_burgers:
        groups = [_Cells(spec, divisor) for divisor in spec.resolutions]
        _reference_trajectory(
            Grid1D(spec.n_cells),
            spec.reference_dt,
            spec.t_final,
            spec.problem.viscosity,
            REFERENCE_DIVISOR // math.lcm(*spec.resolutions),
            spec.cache_dir,
            tuple(groups),
        )
        by_resolution = [group.results for group in groups]
    else:
        by_resolution = [_resolution_cells(spec, r) for r in spec.resolutions]
    tables = tuple(
        SchemeTable(
            scheme,
            _assemble_rows(spec, [cells[k] for cells in by_resolution]),
        )
        for k, scheme in enumerate(spec.schemes)
    )
    return SweepResult(spec=spec, tables=tables)
