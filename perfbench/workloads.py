"""The four workloads: the icnlab commands of one round, the work they
do, and the checks of what they write.

Every command is what a user would type after ``icnlab``.  The protocol
constants below are the paper's, except that every command is kept to
a tenth to a fifth of a second of CPU time (see the README): the advection
sweeps run N = 800 and 1600 to t = 1/32, the Burgers sweeps stop at
t = 0.005, and the maps have 121 points a side.  The checks confirm that
the files follow these constants.
"""
from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import checks

THETA = 0.6
LABELS = ("icn", f"theta({THETA:g})", f"swapped({THETA:g})", f"ga({THETA:g})",
          f"aa({THETA:g})")
ADVECTION_RESOLUTIONS = (800, 1600)
ADVECTION_CFL = 0.5
ADVECTION_T_FINAL = 0.03125  # 50 and 100 steps; the paper uses 0.5
BURGERS_N = 30
BURGERS_DIVISORS = (1, 2, 4, 8)
# The paper's horizon is t = 1 (52 s of CPU time per sweep); a multiple
# of the base step 0.5 / 30**2 keeps the steps uniform.
BURGERS_T_FINAL = 0.005
# The reference (288 fine steps, twice on a first run) outweighs the
# studied schemes' 135 steps at these divisors.
CACHE_RERUN_DIVISORS = (1, 2)
STABILITY_RESOLUTION = 121


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    phase: str  # "sweep", "rerun" or "scan"
    steps: int = 0  # time steps of the studied schemes
    points: int = 0  # (theta, beta) points of a map


def advection_steps() -> int:
    per_scheme = sum(round(ADVECTION_T_FINAL / (ADVECTION_CFL / n))
                     for n in ADVECTION_RESOLUTIONS)
    return len(LABELS) * per_scheme


def burgers_steps(divisors) -> int:
    dt_base = 0.5 / BURGERS_N**2
    per_scheme = sum(round(BURGERS_T_FINAL / (dt_base / d)) for d in divisors)
    return len(LABELS) * per_scheme


class Workload:
    name: str

    def prepare(self, out: Path) -> None:
        """Get the output directory ready for a round."""

    def commands(self, out: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, out: Path) -> None:
        """Raise checks.CheckFailed unless the round's files are right."""
        raise NotImplementedError


class AdvectionTables(Workload):
    name = "advection-tables"

    def commands(self, out: Path) -> list[Command]:
        return [
            Command(("sweep", "--problem", problem, "--resolutions",
                     ",".join(map(str, ADVECTION_RESOLUTIONS)), "--t-final",
                     repr(ADVECTION_T_FINAL), "--out",
                     str(out / f"{problem}.csv")), "sweep", advection_steps())
            for problem in ("linear", "semilinear")
        ]

    def check(self, out: Path) -> None:
        checks.check_linear(out / "linear", ADVECTION_RESOLUTIONS,
                            ADVECTION_CFL, ADVECTION_T_FINAL, LABELS)
        checks.check_semilinear(out / "semilinear", LABELS,
                                ADVECTION_RESOLUTIONS, paper_protocol=False)


class BurgersTable(Workload):
    name = "burgers-table"

    def commands(self, out: Path) -> list[Command]:
        return [Command(("sweep", "--problem", "burgers", "--t-final",
                         repr(BURGERS_T_FINAL), "--out",
                         str(out / "burgers.csv")), "sweep",
                        burgers_steps(BURGERS_DIVISORS))]

    def check(self, out: Path) -> None:
        checks.check_burgers(out / "burgers", LABELS, BURGERS_DIVISORS,
                             paper_protocol=False)


class BurgersCacheRerun(Workload):
    name = "burgers-cache-rerun"

    def prepare(self, out: Path) -> None:
        shutil.rmtree(out / "cache", ignore_errors=True)

    def commands(self, out: Path) -> list[Command]:
        def sweep(stem: str, phase: str) -> Command:
            return Command(("sweep", "--problem", "burgers", "--resolutions",
                            ",".join(map(str, CACHE_RERUN_DIVISORS)), "--t-final",
                            repr(BURGERS_T_FINAL), "--cache-dir",
                            str(out / "cache"), "--out", str(out / f"{stem}.csv")),
                           phase, burgers_steps(CACHE_RERUN_DIVISORS))
        return [sweep("first", "sweep"), sweep("rerun", "rerun")]

    def check(self, out: Path) -> None:
        checks.check_burgers(out / "first", LABELS, CACHE_RERUN_DIVISORS,
                             paper_protocol=False)
        checks.check_same_tables(out / "first", out / "rerun")
        checks.check_burgers_reference_cache(out / "cache", BURGERS_N)


class StabilityMaps(Workload):
    name = "stability-maps"

    def commands(self, out: Path) -> list[Command]:
        return [Command(("stability", "--variant", variant, "--resolution",
                         str(STABILITY_RESOLUTION), "--out",
                         str(out / f"{variant}.csv"), "--pgm",
                         str(out / f"{variant}.pgm")),
                        "scan", points=STABILITY_RESOLUTION**2)
                for variant in ("ga", "aa")]

    def check(self, out: Path) -> None:
        for variant in ("ga", "aa"):
            checks.check_stability(out / f"{variant}.csv", out / f"{variant}.pgm",
                                   variant, STABILITY_RESOLUTION)


WORKLOADS = {w.name: w for w in (AdvectionTables(), BurgersTable(),
                                 BurgersCacheRerun(), StabilityMaps())}
