import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icnlab
from icnlab import analysis, cli, output
from icnlab.cli import EXIT_NUMERICAL, VARIANTS, build_parser, flag, main
from icnlab.problems import linear_advection
from icnlab.schemes import PARAMETER, SchemeVariant


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "icnlab", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def read_csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(cell)
    return columns


def test_run_time_zero_writes_initial_data(tmp_path):
    out = tmp_path / "sol.csv"
    proc = run_cli(
        "run", "--problem", "linear", "--scheme", "icn", "--n", "16",
        "--cfl", "0.5", "--t-final", "0", "--out", out,
    )
    assert proc.returncode == 0
    cols = read_csv_columns(out)
    x = np.array([float(v) for v in cols["x"]])
    u = np.array([float(v) for v in cols["u_num"]])
    assert np.allclose(u, np.sin(np.pi * x) ** 2, atol=1e-5)
    assert all(v == "0.00000e+00" for v in cols["error"])


def test_run_ga_half_matches_icn_byte_for_byte(tmp_path):
    a, b = tmp_path / "icn.csv", tmp_path / "ga.csv"
    common = ["--problem", "linear", "--n", "64", "--cfl", "0.5",
              "--t-final", "0.5"]
    assert run_cli("run", "--scheme", "icn", *common,
                   "--out", a).returncode == 0
    assert run_cli("run", "--scheme", "ga", "--theta1", "0.5", *common,
                   "--out", b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_linear_published_max_error(tmp_path):
    # snapshot protocol: the published N = 200 Linf value sits at t = 0.5
    out = tmp_path / "sol.csv"
    proc = run_cli(
        "run", "--problem", "linear", "--scheme", "icn", "--n", "200",
        "--cfl", "0.5", "--t-final", "0.5", "--out", out,
    )
    assert proc.returncode == 0
    cols = read_csv_columns(out)
    max_error = max(abs(float(v)) for v in cols["error"])
    assert max_error == pytest.approx(2.9e-4, rel=0.15)


def test_run_burgers_reference_column(tmp_path):
    out = tmp_path / "sol.csv"
    proc = run_cli(
        "run", "--problem", "burgers", "--scheme", "ga", "--theta1", "0.6",
        "--n", "30", "--t-final", "0.125", "--out", out,
    )
    assert proc.returncode == 0
    cols = read_csv_columns(out)
    errors = [abs(float(v)) for v in cols["error"]]
    assert 0.0 < max(errors) < 1e-4


@pytest.mark.parametrize(
    "args",
    [
        # theta flags that do not belong to the scheme
        ["run", "--problem", "linear", "--scheme", "icn", "--n", "8",
         "--theta", "0.6", "--t-final", "1", "--out", "x.csv"],
        ["run", "--problem", "linear", "--scheme", "ga", "--n", "8",
         "--theta", "0.6", "--t-final", "1", "--out", "x.csv"],
        # cfl/dt crossed between problem families
        ["run", "--problem", "burgers", "--scheme", "icn", "--n", "30",
         "--cfl", "0.5", "--t-final", "1", "--out", "x.csv"],
        ["run", "--problem", "linear", "--scheme", "icn", "--n", "8",
         "--dt", "0.1", "--t-final", "1", "--out", "x.csv"],
        # unreachable horizon, bad grid, bad range
        ["run", "--problem", "linear", "--scheme", "icn", "--n", "8",
         "--cfl", "0.3", "--t-final", "1", "--out", "x.csv"],
        ["run", "--problem", "linear", "--scheme", "icn", "--n", "2",
         "--t-final", "1", "--out", "x.csv"],
        ["run", "--problem", "linear", "--scheme", "theta", "--theta",
         "1.5", "--n", "8", "--t-final", "1", "--out", "x.csv"],
        ["sweep", "--problem", "linear", "--schemes", "icn,nope",
         "--out", "x.csv"],
        ["sweep", "--problem", "linear", "--norms", "l3", "--out", "x.csv"],
        # a cell whose dt does not divide t_final
        ["sweep", "--problem", "linear", "--cfl", "0.3", "--resolutions",
         "100,200", "--out", "x.csv"],
        ["sweep", "--problem", "linear", "--resolutions", "2,4",
         "--out", "x.csv"],
        ["sweep", "--problem", "burgers", "--dt-base", "0", "--out", "x.csv"],
        ["stability", "--variant", "ga", "--theta-min", "1.0",
         "--theta-max", "0.0", "--out", "x.csv"],
        ["stability", "--variant", "ga", "--resolution", "1",
         "--out", "x.csv"],
        # a theta flag that no listed scheme takes, as run rejects it
        ["sweep", "--problem", "linear", "--schemes", "icn", "--theta1",
         "0.7", "--resolutions", "100", "--norms", "l1", "--out", "s.csv"],
        ["sweep", "--problem", "linear", "--schemes", "theta,ga",
         "--theta-o", "0.7", "--resolutions", "100", "--out", "s.csv"],
        # an output path in a directory that does not exist
        ["run", "--problem", "linear", "--scheme", "icn", "--n", "8",
         "--t-final", "0", "--out", "missing/x.csv"],
        ["sweep", "--problem", "linear", "--schemes", "icn",
         "--resolutions", "100", "--out", "missing/x.csv"],
        ["stability", "--variant", "ga", "--resolution", "5",
         "--out", "missing/x.csv"],
        ["stability", "--variant", "ga", "--resolution", "5",
         "--out", "x.csv", "--pgm", "missing/x.pgm"],
        # a reference cache directory that is an existing file
        ["sweep", "--problem", "burgers", "--schemes", "icn", "--dt-base",
         "0.001", "--t-final", "0.004", "--resolutions", "1", "--cache-dir",
         "file.txt", "--out", "s.csv"],
        # a reference cache directory for a problem that has no reference
        ["sweep", "--problem", "linear", "--schemes", "icn", "--resolutions",
         "100", "--cache-dir", "cache", "--out", "t.csv"],
    ],
)
def test_usage_errors_exit_2(tmp_path, args):
    (tmp_path / "file.txt").write_text("")
    args = [str(tmp_path / a)
            if a.endswith((".csv", ".pgm", ".txt", "cache")) else a
            for a in args]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.strip()
    # nothing is written: no output, no cache directory
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_argparse_errors_exit_2(tmp_path):
    proc = run_cli("run", "--problem", "cubic", "--scheme", "icn",
                   "--n", "8", "--out", tmp_path / "x.csv")
    assert proc.returncode == 2


def test_diverged_run_exits_3(tmp_path):
    proc = run_cli(
        "run", "--problem", "burgers", "--scheme", "icn", "--n", "30",
        "--dt", "0.2", "--t-final", "2", "--out", tmp_path / "x.csv",
    )
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


def test_sweep_writes_one_file_per_norm(tmp_path):
    out = tmp_path / "tables.csv"
    proc = run_cli(
        "sweep", "--problem", "linear", "--schemes", "icn,ga",
        "--resolutions", "100,200", "--out", out,
    )
    assert proc.returncode == 0
    for norm in ("l1", "l2", "linf"):
        path = tmp_path / f"tables_{norm}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == f"scheme,resolution,{norm},order"
        assert len(lines) == 5
    cols = read_csv_columns(tmp_path / "tables_l1.csv")
    assert cols["scheme"] == ["icn", "icn", "ga(0.6)", "ga(0.6)"]
    assert cols["order"][0] == "" and cols["order"][1] != ""


def test_sweep_single_resolution_empty_order(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli(
        "sweep", "--problem", "linear", "--schemes", "icn",
        "--resolutions", "200", "--norms", "l1", "--out", out,
    )
    assert proc.returncode == 0
    cols = read_csv_columns(tmp_path / "t_l1.csv")
    assert cols["order"] == [""]


def test_sweep_markdown_format(tmp_path):
    out = tmp_path / "t.md"
    proc = run_cli(
        "sweep", "--problem", "linear", "--schemes", "icn",
        "--resolutions", "100,200", "--norms", "l1",
        "--format", "markdown", "--out", out,
    )
    assert proc.returncode == 0
    lines = (tmp_path / "t_l1.md").read_text().splitlines()
    assert lines[0] == "| N | icn L1 | order |"
    assert lines[3] == "| 200 | 1.9E-4 | 2.0 |"


def test_sweep_diverged_cell_rendered(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli(
        "sweep", "--problem", "burgers", "--schemes", "icn",
        "--resolutions", "1,2", "--dt-base", "0.1", "--t-final", "1",
        "--norms", "l1", "--out", out,
    )
    assert proc.returncode == 0
    text = (tmp_path / "t_l1.csv").read_text()
    assert "DIVERGED" in text


def test_sweep_burgers_cache_dir(tmp_path):
    out = tmp_path / "t.csv"
    cache = tmp_path / "cache"
    proc = run_cli(
        "sweep", "--problem", "burgers", "--schemes", "icn",
        "--resolutions", "1,2", "--t-final", "0.125", "--norms", "l1",
        "--cache-dir", cache, "--out", out,
    )
    assert proc.returncode == 0
    assert len(list(cache.glob("burgers-ref-*.csv"))) == 1


def count_integrations(monkeypatch):
    """Record the fine step, step count and cadence of every reference
    integration: every batch that is not given the reference's states."""
    calls = []
    batch = analysis._burgers_batch

    def counting(grid, dt_fine, steps, viscosity, cadence, states=None,
                 cells=()):
        if states is None:
            calls.append((dt_fine, steps, cadence))
        return batch(grid, dt_fine, steps, viscosity, cadence, states, cells)

    monkeypatch.setattr(analysis, "_burgers_batch", counting)
    return calls


def test_sweep_cache_dir_integrates_reference_once(tmp_path, monkeypatch):
    # the first command integrates one reference trajectory, at the
    # reference step dt_base / 32, and persists it; the rerun reads it and
    # integrates nothing
    calls = count_integrations(monkeypatch)
    cache = tmp_path / "cache"
    args = ["sweep", "--problem", "burgers", "--schemes", "icn",
            "--dt-base", "0.001", "--t-final", "0.004", "--resolutions",
            "1,2", "--norms", "l1", "--cache-dir", str(cache)]
    for run, integrations in (("first", 1), ("rerun", 0)):
        calls.clear()
        assert main(args + ["--out", str(tmp_path / f"{run}.csv")]) == 0
        # the trajectory keeps only the states the finest cell samples:
        # every 16th of 128 fine steps
        assert calls == [
            (0.001 / analysis.REFERENCE_DIVISOR, 128, 16)] * integrations
        (path,) = cache.glob("*-every16.npy")
        assert np.load(path, allow_pickle=False).shape == (8, 30)
    assert (tmp_path / "first_l1.csv").read_bytes() == (
        tmp_path / "rerun_l1.csv"
    ).read_bytes()


def test_run_burgers_keeps_no_reference_trajectory(tmp_path, monkeypatch):
    # the run command integrates its reference once, in O(N) memory: its
    # cadence is the whole step count, so it keeps the final state alone
    calls = count_integrations(monkeypatch)
    assert main(["run", "--problem", "burgers", "--scheme", "icn", "--n",
                 "8", "--t-final", "0.0625", "--out",
                 str(tmp_path / "r.csv")]) == 0
    dt_fine = analysis.burgers_dt(8) / analysis.REFERENCE_DIVISOR
    assert calls == [(dt_fine, 256, 256)]


def test_run_checks_the_reference_end_time_before_integrating(
    tmp_path, monkeypatch, capsys
):
    # --dt reaches t_final in one step, and the reference step 0.5 dx^2 / 32
    # does not: a usage error before the scheme takes a step
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
    assert main(["run", "--problem", "burgers", "--scheme", "icn", "--n",
                 "8", "--dt", "0.003", "--t-final", "0.003", "--out",
                 str(tmp_path / "r.csv")]) == 2
    assert "--t-final" in capsys.readouterr().err
    assert calls == []


def test_diverged_run_exits_3_before_the_reference(tmp_path, monkeypatch,
                                                    capsys):
    # the run diverges within its first steps; the reference, 115,200 fine
    # steps to t = 2, is never integrated
    calls = count_integrations(monkeypatch)
    assert main(["run", "--problem", "burgers", "--scheme", "icn", "--n",
                 "30", "--dt", "0.2", "--t-final", "2", "--out",
                 str(tmp_path / "r.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


def _change_one_digit(line):
    """The row with the first decimal of its u value changed: still a
    well-formed row, but no longer the reference."""
    x, u = line.split(",")
    digit = str((int(u[2]) + 1) % 10)
    return f"{x},{u[:2]}{digit}{u[3:]}"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines[:20],
        lambda lines: lines[:5] + [lines[5].replace(",", "")] + lines[6:],
        lambda lines: lines[:5] + [_change_one_digit(lines[5])] + lines[6:],
    ],
    ids=["cut-to-20-lines", "line-without-comma", "one-digit-changed"],
)
def test_sweep_recomputes_corrupt_reference_cache(tmp_path, corrupt):
    args = ["sweep", "--problem", "burgers", "--schemes", "icn",
            "--dt-base", "0.001", "--t-final", "0.004", "--resolutions",
            "1,2"]
    cache = tmp_path / "cache"
    plain, cached = tmp_path / "plain", tmp_path / "cached"
    plain.mkdir(), cached.mkdir()
    assert run_cli(*args, "--out", plain / "t.csv").returncode == 0
    assert run_cli(*args, "--cache-dir", cache,
                   "--out", cached / "t.csv").returncode == 0
    (path,) = cache.glob("burgers-ref-*.csv")
    good = path.read_text()
    lines = corrupt(good.splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    proc = run_cli(*args, "--cache-dir", cache, "--out", cached / "t.csv")
    assert proc.returncode == 0, proc.stderr
    assert path.read_text() == good
    for norm in ("l1", "l2", "linf"):
        assert (cached / f"t_{norm}.csv").read_bytes() == (
            plain / f"t_{norm}.csv"
        ).read_bytes()


@pytest.mark.parametrize("suffix", [".csv", ".npy", ".sha256"])
def test_sweep_cache_write_failure_exits_2(tmp_path, capsys, suffix):
    # a directory where a reference cache file goes makes its write fail:
    # a usage error that names --cache-dir, no temporary file left behind
    # and no table written
    cache = tmp_path / "cache"
    args = ["sweep", "--problem", "burgers", "--schemes", "icn",
            "--dt-base", "0.001", "--t-final", "0.004", "--resolutions",
            "1,2", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0
    (path,) = cache.glob(f"*{suffix}")
    path.unlink()
    path.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(args + ["--out", str(out / "t.csv")]) == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert list(cache.glob("*.tmp")) == []
    assert list(out.iterdir()) == []


def _corrupt_trajectory(path):
    states = np.load(path)
    good = path.read_bytes()
    corruptions = {
        "truncated": good[: len(good) // 2],
        "empty": b"",
        # the header's shape left unclosed: np.load's tokenizer fails
        "unparsable-header": good.replace(b"), }", b" , }", 1),
    }
    nan = states.copy()
    nan[3, 5] = np.nan
    for name, array in (("float32", states.astype(np.float32)),
                        ("wrong-shape", states[:-1]), ("nan", nan),
                        ("object", states.astype(object))):
        buffer = io.BytesIO()
        np.save(buffer, array)
        corruptions[name] = buffer.getvalue()
    # headers whose shape cannot be allocated (MemoryError) or whose element
    # count overflows int64 (OverflowError)
    for name, shape in (("unallocatable", (10**12,)),
                        ("count-overflows", (10**30,))):
        buffer = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buffer, {"descr": "<f8", "fortran_order": False, "shape": shape})
        corruptions[name] = buffer.getvalue() + bytes(64)
    return corruptions


def test_sweep_recomputes_corrupt_trajectory_cache(tmp_path, monkeypatch):
    # a trajectory file that is not exactly the states the sweep samples is
    # integrated again and rewritten, and the tables do not change
    calls = count_integrations(monkeypatch)
    cache = tmp_path / "cache"
    args = ["sweep", "--problem", "burgers", "--schemes", "icn,ga",
            "--dt-base", "0.001", "--t-final", "0.004", "--resolutions",
            "1,2", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "good.csv")]) == 0
    (path,) = cache.glob("*.npy")
    good = path.read_bytes()
    for name, data in _corrupt_trajectory(path).items():
        path.write_bytes(data)
        calls.clear()
        out = tmp_path / name
        out.mkdir()
        assert main(args + ["--out", str(out / "t.csv")]) == 0, name
        assert len(calls) == 1, name
        assert path.read_bytes() == good, name
        for norm in ("l1", "l2", "linf"):
            assert (out / f"t_{norm}.csv").read_bytes() == (
                tmp_path / f"good_{norm}.csv"
            ).read_bytes(), name
    assert sorted(p.suffix for p in cache.iterdir()) == [
        ".csv", ".npy", ".sha256"
    ]


def _edit_one_value(path):
    states = np.load(path)
    states[3, 5] += 0.25
    np.save(path, states)


@pytest.mark.parametrize("damage", [
    _edit_one_value,
    lambda path: path.with_suffix(".sha256").unlink(),
    lambda path: path.with_suffix(".sha256").write_text("0" * 64 + "\n"),
], ids=["edited-value", "no-digest", "wrong-digest"])
def test_sweep_recomputes_trajectory_without_matching_digest(
    tmp_path, monkeypatch, damage
):
    # a well-formed trajectory whose states do not match the digest beside
    # it is integrated again: the tables are an uncached run's bytes, the
    # cache is rewritten, and a warm rerun integrates nothing
    calls = count_integrations(monkeypatch)
    cache = tmp_path / "cache"
    args = ["sweep", "--problem", "burgers", "--schemes", "icn",
            "--dt-base", "0.001", "--t-final", "0.004", "--resolutions",
            "1,2"]
    for run in ("plain", "first", "damaged", "warm"):
        (tmp_path / run).mkdir()
    assert main(args + ["--out", str(tmp_path / "plain" / "t.csv")]) == 0
    args += ["--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "first" / "t.csv")]) == 0
    (path,) = cache.glob("*.npy")
    good = path.read_bytes()
    damage(path)
    for run, integrations in (("damaged", 1), ("warm", 0)):
        calls.clear()
        assert main(args + ["--out", str(tmp_path / run / "t.csv")]) == 0
        assert len(calls) == integrations, run
        for norm in ("l1", "l2", "linf"):
            assert (tmp_path / run / f"t_{norm}.csv").read_bytes() == (
                tmp_path / "plain" / f"t_{norm}.csv"
            ).read_bytes(), run
    assert path.read_bytes() == good
    assert path.with_suffix(".sha256").read_text() == (
        hashlib.sha256(np.load(path).tobytes()).hexdigest() + "\n"
    )


def test_sweep_diverging_reference_exits_3(tmp_path, capsys):
    # the reference runs at dt_base / 32 = 0.2, where ICN on this grid
    # blows up at step 5; the failure names the step and no table is written
    code = main(["sweep", "--problem", "burgers", "--schemes", "icn",
                 "--dt-base", "6.4", "--t-final", "64", "--resolutions",
                 "1,2", "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_NUMERICAL
    assert "step diverged at step 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_markdown_renders_non_finite_norm(tmp_path):
    # ga(0.6)'s L2 norm at dt divisor 1 overflows to inf while its state
    # stays finite; Markdown writes it as the CSV does
    args = ["sweep", "--problem", "burgers", "--dt-base", "0.09",
            "--t-final", "0.9", "--resolutions", "1,2"]
    assert main(args + ["--format", "markdown",
                        "--out", str(tmp_path / "t.md")]) == 0
    assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0
    csv_ga = [line.split(",")[2] for line
              in (tmp_path / "t_l2.csv").read_text().splitlines()
              if line.startswith("ga(0.6),1,")]
    assert csv_ga == ["inf"]
    rows = (tmp_path / "t_l2.md").read_text().splitlines()
    cells = [cell.strip() for cell in rows[2].split("|")[1:-1]]
    header = [cell.strip() for cell in rows[0].split("|")[1:-1]]
    assert cells[header.index("ga(0.6) L2")] == "inf"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--problem", "linear", "--scheme", "icn", "--n", "16",
          "--t-final", "inf"], "--t-final"),
        (["run", "--problem", "burgers", "--scheme", "icn", "--n", "16",
          "--t-final", "inf"], "--t-final"),
        (["sweep", "--problem", "linear", "--resolutions", "8,16",
          "--t-final", "inf"], "t_final"),
        (["sweep", "--problem", "burgers", "--resolutions", "1,2",
          "--t-final", "inf"], "t_final"),
        (["run", "--problem", "linear", "--scheme", "icn", "--n", "16",
          "--cfl", "nan"], "--cfl"),
        (["run", "--problem", "burgers", "--scheme", "icn", "--n", "16",
          "--dt", "inf"], "--dt"),
        *[(["run", "--problem", "linear", "--scheme", "ga", "--n", "16",
            "--theta1", value], "--theta1") for value in ("nan", "inf")],
        *[(["stability", "--variant", "ga", f"--{bound}", value], bound)
          for bound in ("theta-min", "theta-max", "beta-min", "beta-max")
          for value in ("nan", "inf")],
        # finite flags whose step count overflows, or whose dt underflows
        (["run", "--problem", "burgers", "--scheme", "icn", "--n", "8",
          "--dt", "1e-300", "--t-final", "1e300"], "--t-final"),
        (["sweep", "--problem", "burgers", "--n", "8", "--dt-base",
          "1e-300", "--t-final", "1e10", "--resolutions", "1,2"],
         "not reachable"),
        (["sweep", "--problem", "linear", "--cfl", "5e-324",
          "--resolutions", "8,16"], "not reachable"),
        # finite map bounds outside the weight's domain, or so large that
        # |g| is inf * 0 at beta = 0
        (["stability", "--variant", "theta", "--theta-max", "1e300",
          "--resolution", "3"], "--theta-max"),
        (["stability", "--variant", "ga", "--theta-max", "1e308",
          "--resolution", "3"], "--theta-max"),
    ],
)
def test_bad_float_values_exit_2(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# small valid argvs of each command; together they take every float flag
# in a setting where it applies
FLOAT_FLAG_BASES = {
    "run": [
        ["--problem", "linear", "--scheme", "theta", "--n", "16",
         "--t-final", "0.125"],
        ["--problem", "semilinear", "--scheme", "ga", "--n", "16",
         "--t-final", "0.125"],
        ["--problem", "burgers", "--scheme", "aa", "--n", "8",
         "--t-final", "0.0625"],
    ],
    "sweep": [
        ["--problem", "linear", "--resolutions", "8,16", "--t-final",
         "0.125"],
        ["--problem", "burgers", "--n", "8", "--resolutions", "1,2",
         "--dt-base", "0.0078125", "--t-final", "0.03125"],
    ],
    "stability": [["--variant", "aa", "--resolution", "3"]],
}
OUTPUTS = {"run": ["--out", "{out}/o.csv"], "sweep": ["--out", "{out}/t.csv"],
           "stability": ["--out", "{out}/m.csv", "--pgm", "{out}/m.pgm"]}


def _commands_of(parser):
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands


def _commands():
    return _commands_of(build_parser())


def _float_flags():
    return [(command, action.option_strings[0])
            for command, parser in _commands().items()
            for action in parser._actions if action.type is float]


def _sweep_t_final_help():
    (action,) = [action for action in _commands()["sweep"]._actions
                 if action.dest == "t_final"]
    return action.help


def test_sweep_t_final_help_reads_the_builders_defaults(monkeypatch):
    # the help states the end times that advection_sweep and burgers_sweep
    # take when --t-final is not given, and follows them when they change
    assert _sweep_t_final_help() == "default 0.5 for advection, 1 for burgers"
    for builder, name in ((analysis.advection_sweep, "ADVECTION_T_FINAL"),
                          (analysis.burgers_sweep, "BURGERS_T_FINAL")):
        default = inspect.signature(builder).parameters["t_final"].default
        assert default == getattr(analysis, name)
    monkeypatch.setattr(analysis, "ADVECTION_T_FINAL", 0.25)
    monkeypatch.setattr(analysis, "BURGERS_T_FINAL", 3.0)
    assert _sweep_t_final_help() == (
        "default 0.25 for advection, 3 for burgers"
    )


@pytest.mark.parametrize("columns", ["50", "200"])
def test_help_is_what_the_default_formatter_writes(monkeypatch, capsys,
                                                   columns):
    # the width build_parser reads once is the one each HelpFormatter would
    # read for itself, on the top parser and on every command
    monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser()
    for each in (parser, *_commands_of(parser).values()):
        given = each.format_help()
        each.formatter_class = argparse.HelpFormatter
        assert each.format_help() == given, each.prog
    # main parses a command with that command's own parser, whose help is
    # its subparser's
    for name, command in _commands_of(build_parser()).items():
        with pytest.raises(SystemExit):
            cli._parse([name, "-h"])
        assert capsys.readouterr().out == command.format_help(), name


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _float_flags())
def test_every_float_flag_takes_non_finite_values(tmp_path, capsys, command,
                                                  flag, value):
    # the exit-code contract on every float flag of every command: 0, 2 or
    # 3, never an exception, and a usage error writes nothing
    for k, base in enumerate(FLOAT_FLAG_BASES[command]):
        out = tmp_path / str(k)
        out.mkdir()
        argv = [command, *base, f"{flag}={value}",
                *(a.format(out=out) for a in OUTPUTS[command])]
        code = main(argv)
        assert code in (0, 2, 3), argv
        if code == 2:
            assert list(out.iterdir()) == [], argv


def test_float_flags_cover_every_command():
    assert {command for command, _ in _float_flags()} == set(FLOAT_FLAG_BASES)
    assert len(_float_flags()) == 16


# argvs with an int or a range at fault, or a float whose time step
# underflows to 0, each with the flag that sets it
FLAG_PROBES = [
    (["sweep", "--problem", "burgers", "--n", "2"], "--n"),
    *[(["sweep", "--problem", "linear", "--resolutions", resolutions],
       "--resolutions") for resolutions in ("2,4", "0,1", "16,8")],
    (["sweep", "--problem", "burgers", "--resolutions", "3"],
     "--resolutions"),
    # the dt divisor 1 takes 0.001 / (0.5 / 30^2) = 1.8 steps
    (["sweep", "--problem", "burgers", "--resolutions", "1,2",
      "--t-final", "0.001"], "--t-final"),
    (["sweep", "--problem", "linear", "--cfl", "5e-324", "--resolutions",
      "8,16"], "--cfl"),
    # dt = 5e-324 / 2 rounds to 0 at the divisor 2
    (["sweep", "--problem", "burgers", "--n", "8", "--dt-base", "5e-324",
      "--resolutions", "1,2", "--t-final", "0.03125"], "--dt-base"),
]


def _flag_probes():
    for command, flag_ in _float_flags():
        for value in ("nan", "inf", "-inf", "-1", "0"):
            for k, base in enumerate(FLOAT_FLAG_BASES[command]):
                yield pytest.param([command, *base, f"{flag_}={value}"], flag_,
                                   id=f"{command}{k}{flag_}={value}")
    for k, (argv, flag_) in enumerate(FLAG_PROBES):
        yield pytest.param(argv, flag_, id=f"{argv[0]}-probe{k}")


@pytest.mark.parametrize("argv, flag_", _flag_probes())
def test_every_usage_error_names_its_flag(tmp_path, capsys, argv, flag_):
    # whichever check rejects a value, library or CLI, the message names
    # the flag that gave it
    code = main(argv + [a.format(out=tmp_path) for a in OUTPUTS[argv[0]]])
    assert code in (0, 2, 3), argv
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("icnlab: error: --"), err
        assert re.search(rf"{re.escape(flag_)}(?![\w-])", err), err


def _parameter_literals():
    """The parameter of every ParameterError raised under src/icnlab with
    a string literal for it."""
    names = set()
    for path in Path(icnlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "ParameterError"
                    and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_every_parameter_maps_to_a_flag():
    # a library parameter renamed without its entry in cli.FLAGS fails
    # here, not as a message that names no flag; a scan range maps to the
    # pair of flags that bound it.  SchemeConfig names its parameter from
    # schemes.PARAMETER
    options = {option for parser in _commands().values()
               for action in parser._actions
               for option in action.option_strings}
    names = _parameter_literals() | {p for p in PARAMETER.values() if p}
    assert {"n_cells", "t_final", "theta1", "theta_range", "resolution",
            "cfl", "cache_dir"} <= names
    for name in sorted(names):
        assert set(flag(name).split("/")) <= options, (name, flag(name))


@pytest.mark.parametrize(
    "item", ["1" * 4301, "\x1c1", "1__0", "", "x"],
    ids=["4301-digits", "separator", "double-underscore", "empty", "letter"],
)
def test_resolutions_int_rejects_exit_2(tmp_path, capsys, item):
    # each item is parsed by int(): whatever it rejects, past its digit
    # limit too, is a usage error that names the flag and writes nothing
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--problem", "linear", "--resolutions", item,
                 "--out", str(out / "t.csv")]) == 2
    assert "--resolutions" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sweep_repeat_is_byte_identical(tmp_path):
    args = ["sweep", "--problem", "linear", "--schemes", "icn,aa",
            "--resolutions", "100,200", "--norms", "l1,linf"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    assert run_cli(*args, "--out", a_dir / "t.csv").returncode == 0
    assert run_cli(*args, "--out", b_dir / "t.csv").returncode == 0
    for norm in ("l1", "linf"):
        assert (a_dir / f"t_{norm}.csv").read_bytes() == (
            b_dir / f"t_{norm}.csv"
        ).read_bytes()


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    # two fresh processes that hash strings differently write the same
    # sweep tables and maps
    outputs = {}
    for seed in ("0", "4242"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        for args in (
            ("sweep", "--problem", "semilinear", "--resolutions", "100,200",
             "--format", "markdown", "--out", out / "s.md"),
            ("sweep", "--problem", "burgers", "--resolutions", "1,2",
             "--t-final", "0.005", "--out", out / "b.csv"),
            ("stability", "--variant", "aa", "--resolution", "21",
             "--out", out / "map.csv", "--pgm", out / "map.pgm"),
        ):
            proc = run_cli(*args, env=env)
            assert proc.returncode == 0, proc.stderr
        outputs[seed] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs["0"]) == 8
    assert outputs["0"] == outputs["4242"]


def test_stability_point_query(tmp_path):
    out = tmp_path / "p.csv"
    proc = run_cli(
        "stability", "--variant", "ga", "--theta-min", "0.4",
        "--theta-max", "0.4", "--beta-min", "0.6", "--beta-max", "0.6",
        "--resolution", "2", "--out", out,
    )
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(line.split(",")[2] == "8.99110e-01" for line in lines[1:])


def test_stability_zero_beta_range(tmp_path):
    out = tmp_path / "z.csv"
    proc = run_cli(
        "stability", "--variant", "aa", "--beta-min", "0", "--beta-max",
        "0", "--resolution", "3", "--out", out,
    )
    assert proc.returncode == 0
    cols = read_csv_columns(out)
    assert set(cols["g_modulus"]) == {"1.00000e+00"}
    assert set(cols["stable"]) == {"1"}


def test_stability_aa_symmetry_in_csv(tmp_path):
    out = tmp_path / "aa.csv"
    proc = run_cli(
        "stability", "--variant", "aa", "--resolution", "41", "--out", out,
    )
    assert proc.returncode == 0
    cols = read_csv_columns(out)
    moduli = cols["g_modulus"]
    blocks = [moduli[i * 41:(i + 1) * 41] for i in range(41)]
    for k in range(20):
        assert blocks[k] == blocks[40 - k]


def test_stability_pgm_output(tmp_path):
    csv_out, pgm_out = tmp_path / "m.csv", tmp_path / "m.pgm"
    proc = run_cli(
        "stability", "--variant", "ga", "--resolution", "9",
        "--out", csv_out, "--pgm", pgm_out,
    )
    assert proc.returncode == 0
    lines = pgm_out.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "9 9"
    assert lines[2] == "255"
    assert len(lines) == 12
    # bottom image row is beta = 0 where every modulus is exactly 1
    assert lines[-1] == " ".join(["128"] * 9)
    values = [int(v) for row in lines[3:] for v in row.split()]
    assert all(0 <= v <= 255 for v in values)


@pytest.mark.parametrize("variant", [v.value for v in SchemeVariant])
def test_stability_takes_every_variant(tmp_path, variant):
    out = tmp_path / "m.csv"
    assert main(["stability", "--variant", variant, "--resolution", "5",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 26


def test_main_returns_exit_code_in_process(tmp_path, capsys):
    code = main([
        "stability", "--variant", "ga", "--theta-min", "2", "--theta-max",
        "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


STABILITY = ["stability", "--variant", "ga", "--resolution", "3", "--out",
             "m.csv"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["swe"], ["-h", "sweep"],
    ["--foo", "sweep"], ["run", "-h"], ["sweep", "-h"], ["stability", "-h"],
    # a missing required flag, a bad choice, a bad int
    ["stability", "--out", "m.csv"],
    ["run", "--problem", "cubic", "--scheme", "icn", "--n", "8", "--out",
     "o.csv"],
    ["stability", "--variant", "ga", "--resolution", "x", "--out", "m.csv"],
    # arguments the command does not take
    STABILITY + ["--bogus"], STABILITY + ["stray"], STABILITY + ["--", "x"],
    # abbreviated long options
    ["stability", "--var", "ga", "--res", "5", "--out", "m.csv"],
], ids=lambda argv: " ".join(argv) or "no-argv")
def test_main_parses_as_the_whole_parser_does(tmp_path, monkeypatch, capsys,
                                              argv):
    # main builds only the named command's parser; its exit code, output
    # and messages are the ones the whole tree gives
    monkeypatch.chdir(tmp_path)

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()
    own = outcome()
    monkeypatch.setattr(cli, "_parse",
                        lambda argv: build_parser().parse_args(argv))
    assert outcome() == own


@pytest.mark.parametrize("flag_", ["--out", "--pgm"])
def test_output_through_a_dangling_symlink_exits_2(tmp_path, monkeypatch,
                                                   capsys, flag_):
    # the link's own directory exists, its target's does not: a usage error
    # before any work, as for a path in a missing directory
    monkeypatch.chdir(tmp_path)
    Path("dang").symlink_to("nodir/m.pgm")
    argv = STABILITY + ["--pgm", "m.pgm"]
    argv[argv.index(flag_) + 1] = "dang"
    assert main(argv) == 2
    missing = str(tmp_path.resolve() / "nodir")
    assert capsys.readouterr().err == (
        f"icnlab: error: {flag_}: no directory {missing!r} for dang\n")
    assert [p.name for p in tmp_path.iterdir()] == ["dang"]


@pytest.mark.parametrize("argv, flag_, directory", [
    (["run", "--problem", "linear", "--scheme", "icn", "--n", "8",
      "--t-final", "0", "--out", "o.csv"], "--out", "o.csv"),
    (["sweep", "--problem", "linear", "--schemes", "icn", "--resolutions",
      "100", "--out", "t.csv"], "--out", "t_l1.csv"),
    (["stability", "--variant", "ga", "--resolution", "5", "--out",
      "m.csv"], "--out", "m.csv"),
    (["stability", "--variant", "ga", "--resolution", "5", "--out",
      "m.csv", "--pgm", "m.pgm"], "--pgm", "m.pgm"),
], ids=["run-out", "sweep-norm-file", "stability-out", "stability-pgm"])
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, argv,
                                                 flag_, directory):
    # a file to write that is an existing directory is a usage error on
    # its flag, found before any work: nothing else is written
    (tmp_path / directory).mkdir()
    argv = [str(tmp_path / a) if a.endswith((".csv", ".pgm")) else a
            for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"icnlab: error: {flag_}: ")
    assert [p.name for p in tmp_path.iterdir()] == [directory]


@pytest.mark.parametrize("out, shown", [(".", "."), ("/", "/"), ("", "."),
                                        ("..", "..")],
                         ids=["dot", "root", "empty", "dot-dot"])
def test_out_path_without_a_name_exits_2(tmp_path, monkeypatch, capsys, out,
                                         shown):
    # a sweep names its per-norm files by extending --out's name; a path
    # with no name is a directory, and both commands say so alike
    monkeypatch.chdir(tmp_path)
    for argv in (["sweep", "--problem", "burgers", "--resolutions", "1",
                  "--t-final", "0.005"],
                 ["stability", "--variant", "ga", "--resolution", "3"]):
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == (
            f"icnlab: error: --out: {shown!r} is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["x" * 300 + ".csv", "full"],
                         ids=["name-too-long", "write-fails"])
def test_output_os_error_exits_2(tmp_path, capsys, name):
    # an OSError from looking up the path or from writing it is a usage
    # error on the flag: a name past the file system's limit, or a device
    # that takes no bytes
    path = tmp_path / name
    if name == "full":
        path = Path("/dev/full")
        if not path.exists():
            pytest.skip("no /dev/full on this system")
    assert main(["stability", "--variant", "ga", "--resolution", "5",
                 "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("icnlab: error: --out: ")


def test_stability_formats_before_opening_its_output(tmp_path, capsys,
                                                    monkeypatch):
    # every value is formatted before --out is opened, so an allocation
    # that fails there leaves the file that was there untouched
    out = tmp_path / "m.csv"
    out.write_bytes(b"earlier output\n")

    def fail(values):
        raise MemoryError("float_bytes")
    monkeypatch.setattr(output, "float_bytes", fail)
    assert main(["stability", "--variant", "ga", "--resolution", "5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("icnlab: error: --resolution: too large for memory")
    assert out.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("existing", [False, True], ids=["missing", "file"])
@pytest.mark.parametrize("pgm", ["m.csv", "./m.csv", "link.csv"])
def test_stability_out_and_pgm_on_one_file_exit_2(tmp_path, capsys,
                                                  monkeypatch, existing, pgm):
    # two flags that name one file, by any spelling, would leave only the
    # second output: a usage error on the second flag, before any work
    monkeypatch.chdir(tmp_path)
    if existing:
        Path("m.csv").write_bytes(b"earlier output\n")
    Path("link.csv").symlink_to("m.csv")
    assert main(["stability", "--variant", "ga", "--resolution", "5",
                 "--out", "m.csv", "--pgm", pgm]) == 2
    err = capsys.readouterr().err
    assert err.startswith("icnlab: error: --pgm: "), err
    if existing:
        assert Path("m.csv").read_bytes() == b"earlier output\n"
    else:
        assert not Path("m.csv").exists()


def test_stability_out_and_pgm_on_one_pipe(tmp_path):
    # a pipe is no file to overwrite: both outputs reach it, in order
    proc = run_cli("stability", "--variant", "ga", "--resolution", "2",
                   "--out", "/dev/stdout", "--pgm", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    csv_out, pgm_out = tmp_path / "m.csv", tmp_path / "m.pgm"
    assert main(["stability", "--variant", "ga", "--resolution", "2",
                 "--out", str(csv_out), "--pgm", str(pgm_out)]) == 0
    assert proc.stdout == csv_out.read_text() + pgm_out.read_text()


@pytest.mark.parametrize("argv, where", [
    (["run", "--problem", "linear", "--scheme", "icn", "--t-final",
      "5e-15"], "--n: "),
    # no one flag sizes a Burgers sweep's arrays
    (["sweep", "--problem", "burgers", "--schemes", "icn", "--resolutions",
      "1", "--t-final", "1e-20"], ""),
], ids=["run", "burgers-sweep"])
def test_too_large_for_memory_exits_2(tmp_path, capsys, argv, where):
    # 1e14 nodes need 728 TiB, more than any address space: the first
    # allocation of that size fails at once, a usage error that names the
    # flag that sizes the arrays
    assert main(argv + ["--n", "100000000000000", "--out",
                        str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"icnlab: error: {where}too large for memory"), err
    assert list(tmp_path.iterdir()) == []


# Flag values for the property below, by the flag's type: the edge floats
# and ordinary ones (with a few that divide the default time steps), and
# ints that are zero, negative or small (half of them valid grid sizes).
FLOATS = (
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300,
                     1e300])
    | st.sampled_from([0.0625, 0.125, 0.25, 0.5, 0.6, 1.0])
    | st.floats(-2.0, 2.0)
)
INTS = st.sampled_from([0, -1, -8]) | st.integers(1, 8) | st.integers(4, 8)
# paths, one draw in four in a directory that does not exist
PATHS = {"--out": ["{tmp}/o.csv"] * 3 + ["{tmp}/missing/o.csv"],
         "--pgm": ["{tmp}/m.pgm"] * 3 + ["{tmp}/missing/m.pgm"],
         "--cache-dir": ["{tmp}/cache"]}
# the cell-steps a drawn argv may integrate, or the points it may scan
WORK_LIMIT = 2000


def _values(action):
    """Text for one flag's value, drawn from its choices or its type."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is float:
        return FLOATS.map(repr)
    if action.type is int:
        return INTS.map(str)
    if action.type is Path:
        return st.sampled_from(PATHS[action.option_strings[0]])
    # a comma-separated list: of the default's items, or of ints
    items = (st.sampled_from(action.default.split(",")) if action.default
             else INTS.map(str))
    return st.lists(items, min_size=1, max_size=3).map(",".join)


# flags always given: the sweep's default resolutions and end times are
# far outside the work bound, and so are many end times with the run's
# default of 1
ALWAYS = {"--resolutions", "--t-final"}


@st.composite
def _argvs(draw):
    commands = _commands()
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for action in commands[command]._actions:
        if not action.option_strings or action.nargs == 0:
            continue
        flag = action.option_strings[0]
        # each other optional flag in about one argv of four
        if (action.required or flag in ALWAYS
                or draw(st.integers(0, 3)) == 0):
            argv.append(f"{flag}={draw(_values(action))}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_parse_gives_the_whole_parsers_namespace(argv):
    # by repr, in which a nan flag value equals itself
    def fields(args):
        return sorted((name, repr(value)) for name, value in vars(args).items())
    assert fields(cli._parse(argv)) == fields(build_parser().parse_args(argv))


def _steps(t_final, dt):
    try:
        return analysis.steps_for(t_final, dt)
    except ValueError:
        return 0


def _work(argv):
    """An upper bound on the cell-steps that argv integrates, or on the
    points it scans, if it is valid; an invalid argv stops before any
    work."""
    args = build_parser().parse_args(argv)
    if args.command == "stability":
        return args.resolution ** 2
    if args.command == "run":
        if args.n < 4:
            return 0
        if args.problem != "burgers":
            cfl = analysis.CFL if args.cfl is None else args.cfl
            return args.n * _steps(
                args.t_final,
                analysis.advection_dt(linear_advection(), args.n, cfl))
        base = analysis.burgers_dt(args.n)
        dt = base if args.dt is None else args.dt
        return args.n * (_steps(args.t_final, dt) + _steps(
            args.t_final, base / analysis.REFERENCE_DIVISOR))
    try:
        resolutions = [int(r) for r in args.resolutions.split(",")]
    except ValueError:
        return 0
    # up to five schemes run at each resolution
    if args.problem != "burgers":
        cfl = analysis.CFL if args.cfl is None else args.cfl
        return 5 * sum(r * _steps(
            args.t_final, analysis.advection_dt(linear_advection(), r, cfl))
            for r in resolutions if r >= 4)
    n = args.n
    if n is None:
        n = inspect.signature(analysis.burgers_sweep).parameters[
            "n_cells"].default
    if n < 4:
        return 0
    base = analysis.burgers_dt(n) if args.dt_base is None else args.dt_base
    reference = _steps(args.t_final, base / analysis.REFERENCE_DIVISOR)
    return n * (reference + 5 * sum(
        _steps(args.t_final, base / r) for r in resolutions if r > 0))


# Valid-leaning argvs: grid sizes of at least 4, end times that are whole
# numbers of steps, and theta in [0, 1], so that most draws run to exit 0
# with edge values such as theta = 0 or 1, n = 4 or 0 steps.
THETAS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _valid_argvs(draw):
    command = draw(st.sampled_from(["run", "sweep", "stability"]))
    if command == "stability":
        thetas = sorted(draw(st.lists(THETAS, min_size=2, max_size=2)))
        betas = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=2,
                                     max_size=2)))
        argv = ["stability", f"--variant={draw(st.sampled_from(VARIANTS))}",
                f"--theta-min={thetas[0]!r}", f"--theta-max={thetas[1]!r}",
                f"--beta-min={betas[0]!r}", f"--beta-max={betas[1]!r}",
                f"--resolution={draw(st.integers(2, 12))}",
                "--out={tmp}/m.csv"]
        if draw(st.booleans()):
            argv.append("--pgm={tmp}/m.pgm")
        return argv
    problem = draw(st.sampled_from(["linear", "semilinear", "burgers"]))
    if command == "run":
        schemes = [draw(st.sampled_from(VARIANTS))]
        n = draw(st.integers(4, 16))
        argv = ["run", f"--problem={problem}", f"--scheme={schemes[0]}",
                f"--n={n}", "--out={tmp}/o.csv"]
        steps = draw(st.integers(0, 4))
        if problem == "burgers":
            dt = analysis.burgers_dt(n) / draw(st.sampled_from([1, 2, 4]))
            argv.append(f"--dt={dt!r}")
        else:
            cfl = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
            dt = analysis.advection_dt(linear_advection(), n, cfl)
            argv.append(f"--cfl={cfl!r}")
        argv.append(f"--t-final={steps * dt!r}")
    else:
        schemes = draw(st.lists(st.sampled_from(VARIANTS), min_size=1,
                                max_size=5, unique=True))
        argv = ["sweep", f"--problem={problem}",
                f"--schemes={','.join(schemes)}", "--out={tmp}/t.csv",
                f"--norms={draw(st.sampled_from(['l1', 'l2,linf']))}",
                f"--format={draw(st.sampled_from(['csv', 'markdown']))}"]
        steps = draw(st.integers(1, 2))
        if problem == "burgers":
            n = draw(st.integers(4, 8))
            divisors = draw(st.sampled_from([(1,), (1, 2), (2, 4)]))
            dt_base = analysis.burgers_dt(n) * draw(st.sampled_from([1, 2]))
            argv += [f"--n={n}", f"--dt-base={dt_base!r}",
                     f"--t-final={steps * dt_base!r}"]
            if draw(st.booleans()):
                argv.append("--cache-dir={tmp}/cache")
        else:
            n = draw(st.integers(4, 8))
            divisors = (n, 2 * n)
            cfl = draw(st.sampled_from([0.25, 0.5]))
            dt = analysis.advection_dt(linear_advection(), n, cfl)
            argv += [f"--cfl={cfl!r}", f"--t-final={steps * dt!r}"]
        argv.append(f"--resolutions={','.join(map(str, divisors))}")
    for variant in set(schemes):
        theta = PARAMETER[SchemeVariant(variant)]
        if theta is not None and draw(st.booleans()):
            argv.append(f"{flag(theta)}={draw(THETAS)!r}")
    return argv


def _keeps_exit_code_contract(argv):
    """0, 2 or 3 and no exception; a usage error names a flag and writes
    no output file."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([a.format(tmp=tmp) for a in argv])
        assert code in (0, 2, 3), argv
        if code == 2:
            assert err.getvalue().startswith("icnlab: error: --"), (
                argv, err.getvalue())
            written = [p for p in Path(tmp).rglob("*") if p.is_file()]
            assert written == [], argv
    return code


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argvs().filter(lambda argv: _work(argv) <= WORK_LIMIT))
def test_main_keeps_exit_code_contract_on_generated_argvs(argv):
    # any argv the parser accepts, built from its own actions
    _keeps_exit_code_contract(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_valid_argvs().filter(lambda argv: _work(argv) <= WORK_LIMIT))
def test_main_keeps_exit_code_contract_on_valid_argvs(argv):
    # argvs that mostly run, at the edges of the valid values
    _keeps_exit_code_contract(argv)
