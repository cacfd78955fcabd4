"""icnlab benchmark: runs one workload as a closed loop and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
One process with one thread calls ``icnlab.cli.main`` with the arguments
a user would type, one command after another.  A round is the workload's
list of commands; rounds repeat until ``--seconds`` have passed (at least
one round), and every round's outputs are checked.  Each command's time
is its least CPU time over the rounds of the run (see the README for
why).  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Files go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the program's optional thread pool stays off: one thread
os.environ.pop("ICN_LAB_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 10  # spread evenly over a run
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from icnlab.cli import build_parser; build_parser().parse_args({argv!r})"
)


@dataclass
class Round:
    seconds: list[float] = field(default_factory=list)  # per command
    attempted: int = 0
    failed: int = 0
    error: str | None = None


def end_to_end(commands, rounds: list[Round]) -> dict[str, float]:
    """The run's end-to-end figures, from each command's least CPU time
    over the rounds.

    Every workload reports every metric.  A workload without the work a
    metric names (no sweep, no rerun, no map) reports in its place its
    own pass: the time of its first pass of commands, and the work items
    of that pass (scheme steps or map points) per second.
    """
    seconds = {"sweep": 0.0, "rerun": 0.0, "scan": 0.0}
    steps = points = 0
    for command, times in zip(commands, zip(*(r.seconds for r in rounds))):
        seconds[command.phase] += min(times)
        steps += command.steps if command.phase == "sweep" else 0
        points += command.points
    pass_s = seconds["sweep"] or seconds["scan"]
    work = steps or points
    sweep_s = seconds["sweep"] or pass_s
    scan_s = seconds["scan"] or pass_s
    return {
        "sweep_s": sweep_s,
        "rerun_s": seconds["rerun"] or pass_s,
        "cell_steps_per_s": (steps or work) / sweep_s,
        "scan_s": scan_s,
        "scan_points_per_s": (points or work) / scan_s,
    }


def cold_start(icnlab) -> None:
    """Forget what an earlier command left in memory, as a new process would.

    Any in-process cache the program keeps across calls belongs here, so
    that each command pays what a separate ``icnlab`` invocation pays.
    """
    memo = getattr(icnlab.analysis, "_reference_memo", None)
    if memo is not None:
        memo.clear()


def run_round(icnlab, workload, out: Path) -> Round:
    result = Round()
    workload.prepare(out)
    for command in workload.commands(out):
        cold_start(icnlab)
        t0 = time.process_time()
        try:
            code = icnlab.cli.main(list(command.argv))
        except Exception:
            traceback.print_exc()
            code = None
        result.seconds.append(time.process_time() - t0)
        result.attempted += 1
        if code != 0:
            result.failed += 1
            print(f"failed ({code}): icnlab {' '.join(command.argv)}", file=sys.stderr)
    if result.failed == 0:
        try:
            workload.check(out)
        except checks.CheckFailed as err:
            result.error = str(err)
    return result


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(argv) -> float:
    """CPU time of a fresh interpreter that imports the CLI and parses
    the workload's first command, then exits."""
    code = SETUP_CODE.format(src=str(SRC), argv=list(argv))
    t0 = children_cpu_s()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return children_cpu_s() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "icnlab" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import icnlab.cli
    if Path(icnlab.__file__).resolve().parent != SRC / "icnlab":
        print(f"perfbench: imported icnlab from {icnlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # The workloads run the paper's fixed protocols, so the inputs do not
    # depend on the seed; it is recorded with the result.
    workload = workloads.WORKLOADS[args.workload]
    out = OUT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    commands = workload.commands(out)

    rounds: list[Round] = []
    traced: list[Round] = []
    metrics: dict[str, float] = {}
    if args.trace:
        import percall
        import tracing
        metrics.update(percall.measure())
        tracer = tracing.Tracer(icnlab)
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < args.seconds:
            rounds.append(run_round(icnlab, workload, out))
            with tracer:
                traced.append(run_round(icnlab, workload, out))
        tracer.write(OUT / f"spans-{workload.name}.npz")
        metrics.update({k: v / len(traced) for k, v in tracer.summary().items()})
        plain = end_to_end(commands, rounds)["sweep_s"]
        with_spans = end_to_end(commands, traced)["sweep_s"]
        metrics["trace.overhead_s"] = with_spans - plain
        metrics["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain
        declared = declared_metrics("per_layer")
    else:
        # set-up samples are taken between rounds, spread over the run
        setups = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < args.seconds:
            due = (time.perf_counter() - t0) * SETUP_SAMPLES / args.seconds
            if len(setups) <= due:
                setups.append(setup_seconds(commands[0].argv))
            rounds.append(run_round(icnlab, workload, out))
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_seconds(commands[0].argv))
        metrics["setup_s"] = statistics.median(setups)
        metrics.update(end_to_end(commands, rounds))
        metrics["peak_rss_mb"] = peak_rss_mb()
        declared = declared_metrics("end_to_end")

    all_rounds = rounds + traced
    errors = [r.error for r in all_rounds if r.error]
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} do "
              "not match BENCHMARK.json", file=sys.stderr)
        return 1
    for message in errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(all_rounds)} rounds, {attempted} commands, {failed} failed")
    for name, unit in declared.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
