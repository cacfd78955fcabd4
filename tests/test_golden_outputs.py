"""Byte-identity gate: the files a fixed set of CLI commands writes, and the
ga and aa maps of scan_region at its default 241 points, compared with
SHA-256 digests in golden_outputs.sha256.

The commands cover every output path: stability maps of every variant with
PGM, one whose moduli overflow to inf and one on negative axes; linear and
semilinear sweeps in CSV and Markdown; a Burgers sweep with and without a
reference cache (tables, final-state CSV, trajectory .npy and its .sha256
digest); three sweeps in which some schemes diverge and others do not, one
of them on five rows of N = 205 and 410; and one run per scheme and
problem.  They are kept small (121-point maps,
N <= 410, Burgers to t = 0.125 except in the divergence case).  A refactor
that changes no number leaves every digest as it is.  Rewrite the
digests, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from icnlab import cli
from icnlab.stability import scan_region

GOLDEN = Path(__file__).with_name("golden_outputs.sha256")

BURGERS = ("sweep", "--problem", "burgers", "--t-final", "0.125")
RUN_SCHEMES = {
    "icn": (),
    "theta": ("--theta", "0.7"),
    "swapped": ("--theta", "0.4"),
    "ga": ("--theta1", "0.8"),
    "aa": ("--theta-o", "0.3"),
}
RUN_PROBLEMS = {
    "linear": ("--n", "50", "--t-final", "0.5"),
    "semilinear": ("--n", "50", "--t-final", "0.5"),
    "burgers": ("--n", "16", "--t-final", "0.125"),
}


def _sweeps(problem: str) -> list[tuple[str, ...]]:
    common = ("sweep", "--problem", problem, "--resolutions", "100,200,400")
    return [common + ("--out", "{out}/t.csv"),
            common + ("--format", "markdown", "--out", "{out}/t.md")]


# case name -> the commands of the case; {out} is the case's directory
CASES = {
    **{
        f"stability-{variant}": [
            ("stability", "--variant", variant, "--resolution", "121",
             "--out", "{out}/map.csv", "--pgm", "{out}/map.pgm")
        ]
        for variant in ("icn", "theta", "swapped", "ga", "aa")
    },
    # a finite beta range so wide that |g| overflows to inf off beta = 0
    "stability-inf": [
        ("stability", "--variant", "icn", "--beta-max", "1e200",
         "--resolution", "5", "--out", "{out}/map.csv",
         "--pgm", "{out}/map.pgm")
    ],
    # negative theta and beta axes: the 7,260 rows with theta < 0 start
    # with "-", and beta < 0 puts a sign in mid-row
    "stability-negative-axes": [
        ("stability", "--variant", "ga", "--theta-min", "-1", "--theta-max",
         "1", "--beta-min", "-1.2", "--beta-max", "1.2", "--resolution",
         "121", "--out", "{out}/map.csv", "--pgm", "{out}/map.pgm")
    ],
    "sweep-linear": _sweeps("linear"),
    "sweep-semilinear": _sweeps("semilinear"),
    "burgers": [
        BURGERS + ("--out", "{out}/t.csv"),
        BURGERS + ("--format", "markdown", "--out", "{out}/t.md"),
    ],
    # a cold cache is written, then read by the rerun
    "burgers-cache": [
        BURGERS + ("--cache-dir", "{out}/cache", "--out", "{out}/first.csv"),
        BURGERS + ("--cache-dir", "{out}/cache", "--out", "{out}/rerun.csv"),
    ],
    # batches in which only theta(0.6) diverges: at N = 200 (CFL 2.5), and
    # at dt divisor 1 (dt = 0.09), where ga's L2 norm overflows to inf
    "mixed-divergence-semilinear": [
        ("sweep", "--problem", "semilinear", "--cfl", "2.5",
         "--resolutions", "100,200", "--out", "{out}/t.csv"),
    ],
    "mixed-divergence-burgers": [
        ("sweep", "--problem", "burgers", "--dt-base", "0.09", "--t-final",
         "0.9", "--resolutions", "1,2", "--out", "{out}/t.csv"),
    ],
    # semilinear again, on grids of 1024 values and more per rhs call,
    # where the neighbours come from slices: only theta(0.6) diverges at
    # N = 205, and every scheme at N = 410
    "mixed-divergence-semilinear-large": [
        ("sweep", "--problem", "semilinear", "--cfl", "2.5",
         "--resolutions", "205,410", "--out", "{out}/t.csv"),
    ],
    "run": [
        ("run", "--problem", problem, "--scheme", scheme, *size, *flags,
         "--out", f"{{out}}/{problem}-{scheme}.csv")
        for problem, size in RUN_PROBLEMS.items()
        for scheme, flags in RUN_SCHEMES.items()
    ],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(case: str, out: Path) -> dict[str, str]:
    """Run one case's commands into ``out``; digest of every file written."""
    for argv in CASES[case]:
        code = cli.main([a.format(out=out) for a in argv])
        assert code == cli.EXIT_OK, argv
    return {
        f"{case}/{path.relative_to(out).as_posix()}": _digest(path.read_bytes())
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def scan_digests() -> dict[str, str]:
    return {
        f"scan_region/{variant}/modulus":
            _digest(scan_region(variant).modulus.tobytes())
        for variant in ("ga", "aa")
    }


def read_golden() -> dict[str, str]:
    entries = (line.split("  ") for line in GOLDEN.read_text().splitlines())
    return {name: digest for digest, name in entries}


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_outputs_match_golden(tmp_path, case):
    golden = {name: digest for name, digest in read_golden().items()
              if name.startswith(f"{case}/")}
    assert golden, f"no golden digests for {case}"
    assert case_digests(case, tmp_path) == golden


def test_scan_modulus_matches_golden():
    golden = read_golden()
    for name, digest in scan_digests().items():
        assert digest == golden[name], name


def write_golden() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            out = Path(tmp) / case
            out.mkdir()
            digests.update(case_digests(case, out))
    digests.update(scan_digests())
    GOLDEN.write_text("".join(f"{d}  {n}\n" for n, d in digests.items()))


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN}", file=sys.stderr)
