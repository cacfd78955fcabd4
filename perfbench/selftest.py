"""Tests of the benchmark's output checks: each check accepts what the
program writes and rejects a known-wrong result.

    python3 -m pytest -q perfbench/selftest.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from icnlab import cli, schemes  # noqa: E402

SWAPPED = "swapped(0.6)"


def icnlab(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def edit_line(path, row, edit):
    """Apply ``edit`` to the cells of data row ``row`` (0 = first after the header)."""
    lines = Path(path).read_text().splitlines()
    cells = lines[row + 1].split(",")
    lines[row + 1] = ",".join(edit(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def scale_value(factor):
    def edit(cells):
        cells[2] = f"{float(cells[2]) * factor:.5e}"
        return cells
    return edit


def linear_swapped(tmp_path):
    icnlab("sweep", "--problem", "linear", "--schemes", "swapped",
           "--resolutions", "50,100", "--out", tmp_path / "lin.csv")
    return lambda: checks.check_linear(tmp_path / "lin", (50, 100), 0.5, 0.5,
                                       [SWAPPED])


def test_linear_check_accepts_program_output(tmp_path):
    linear_swapped(tmp_path)()


def test_linear_check_rejects_swapped_second_weight_045(tmp_path, monkeypatch):
    original = schemes.step_theta_icn

    def mutated(u, rhs, dt, theta, swapped=False):
        if not swapped:
            return original(u, rhs, dt, theta)
        un = u.values
        ut = un + dt * rhs(u).values
        ub = theta * ut + (1.0 - theta) * un
        ut = un + dt * rhs(u.with_values(ub)).values
        ub = 0.45 * ut + 0.55 * un
        return u.with_values(un + dt * rhs(u.with_values(ub)).values)

    monkeypatch.setattr(schemes, "step_theta_icn", mutated)
    check = linear_swapped(tmp_path)
    with pytest.raises(checks.CheckFailed, match="closed form"):
        check()


@pytest.mark.parametrize("norm", checks.NORMS)
def test_linear_check_rejects_scaled_norm(tmp_path, norm):
    check = linear_swapped(tmp_path)
    edit_line(tmp_path / f"lin_{norm}.csv", 1, scale_value(1.2))
    with pytest.raises(checks.CheckFailed):
        check()


def test_linear_allowance_covers_only_the_unstable_scheme():
    _, stable = checks.linear_norms("theta(0.6)", 1600, 0.5, 0.5)
    _, unstable = checks.linear_norms(SWAPPED, 1600, 0.5, 0.5)
    assert stable == 2 * checks.EPS
    # max |g| = 1.0153 at CFL 0.5, over 1600 steps
    assert 1e-6 < unstable < 1e-4


PAPER_RESOLUTIONS = (200, 400)  # the paper's protocol, two published rows


@pytest.fixture(scope="module")
def semilinear(tmp_path_factory):
    out = tmp_path_factory.mktemp("semilinear")
    icnlab("sweep", "--problem", "semilinear", "--resolutions",
           ",".join(map(str, PAPER_RESOLUTIONS)), "--out", out / "semi.csv")
    return out


def test_semilinear_check_accepts_program_output(semilinear, tmp_path):
    checks.check_semilinear(semilinear / "semi", workloads.LABELS,
                            PAPER_RESOLUTIONS, paper_protocol=True)
    icnlab("sweep", "--problem", "semilinear", "--resolutions",
           ",".join(map(str, workloads.ADVECTION_RESOLUTIONS)), "--t-final",
           workloads.ADVECTION_T_FINAL, "--out", tmp_path / "semi.csv")
    checks.check_semilinear(tmp_path / "semi", workloads.LABELS,
                            workloads.ADVECTION_RESOLUTIONS, paper_protocol=False)


@pytest.mark.parametrize("row", [0, 4, 9])
def test_semilinear_check_rejects_scaled_norm(semilinear, tmp_path, row):
    for norm in checks.NORMS:
        text = (semilinear / f"semi_{norm}.csv").read_text()
        (tmp_path / f"semi_{norm}.csv").write_text(text)
    edit_line(tmp_path / "semi_l2.csv", row, scale_value(1.2))
    with pytest.raises(checks.CheckFailed):
        checks.check_semilinear(tmp_path / "semi", workloads.LABELS,
                                PAPER_RESOLUTIONS, paper_protocol=True)


def write_burgers_tables(prefix, scale=None, diverged=None):
    """Tables with exact nominal orders: e = c (1/d)^p."""
    for norm in checks.NORMS:
        lines = [f"scheme,resolution,{norm},order"]
        for label in workloads.LABELS:
            p = checks.nominal_order(label, norm, refines_grid=False)
            previous = None
            for d in workloads.BURGERS_DIVISORS:
                e = 1e-4 * d**-p
                if scale == (label, d):
                    e *= 1.2
                order = "" if previous is None else f"{math.log2(previous / e):.5e}"
                value = "DIVERGED" if diverged == (label, d) else f"{e:.5e}"
                lines.append(f"{label},{d},{value},{order}")
                previous = e
        Path(f"{prefix}_{norm}.csv").write_text("\n".join(lines) + "\n")


def test_burgers_order_check(tmp_path):
    def check():
        checks.check_burgers(tmp_path / "b", workloads.LABELS,
                             workloads.BURGERS_DIVISORS, paper_protocol=False)
    write_burgers_tables(tmp_path / "b")
    check()
    write_burgers_tables(tmp_path / "b", scale=("ga(0.6)", 4))
    with pytest.raises(checks.CheckFailed, match="order"):
        check()
    write_burgers_tables(tmp_path / "b", diverged=("icn", 8))
    with pytest.raises(checks.CheckFailed, match="diverged"):
        check()


def test_burgers_published_values_are_checked(tmp_path):
    write_burgers_tables(tmp_path / "b")
    with pytest.raises(checks.CheckFailed, match="published"):
        checks.check_burgers(tmp_path / "b", workloads.LABELS,
                             workloads.BURGERS_DIVISORS, paper_protocol=True)


def test_rerun_tables_must_be_byte_equal(tmp_path):
    write_burgers_tables(tmp_path / "first")
    write_burgers_tables(tmp_path / "rerun")
    checks.check_same_tables(tmp_path / "first", tmp_path / "rerun")
    write_burgers_tables(tmp_path / "rerun", scale=("icn", 2))
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_same_tables(tmp_path / "first", tmp_path / "rerun")


@pytest.fixture
def cached_reference(tmp_path):
    cache = tmp_path / "cache"
    icnlab("sweep", "--problem", "burgers", "--schemes", "icn", "--dt-base",
           "0.001", "--t-final", "0.004", "--resolutions", "1,2",
           "--cache-dir", cache, "--out", tmp_path / "b.csv")
    (path,) = cache.glob("*.csv")
    checks.check_burgers_reference_cache(cache, 30)
    return cache, path


def test_cache_check_rejects_truncated_reference(cached_reference):
    cache, path = cached_reference
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_burgers_reference_cache(cache, 30)


def test_cache_check_rejects_lost_mass(cached_reference):
    cache, path = cached_reference
    edit_line(path, 3, lambda c: [c[0], f"{float(c[1]) + 1e-6:.17e}"])
    with pytest.raises(checks.CheckFailed, match="mass"):
        checks.check_burgers_reference_cache(cache, 30)


def test_cache_check_rejects_empty_directory(tmp_path):
    with pytest.raises(checks.CheckFailed, match="no cached"):
        checks.check_burgers_reference_cache(tmp_path, 30)


@pytest.fixture(params=["ga", "aa"])
def stability_map(request, tmp_path):
    variant = request.param
    icnlab("stability", "--variant", variant, "--resolution", 41, "--out",
           tmp_path / "m.csv", "--pgm", tmp_path / "m.pgm")

    def check():
        checks.check_stability(tmp_path / "m.csv", tmp_path / "m.pgm",
                               variant, 41)
    check()
    return tmp_path, check


def test_stability_check_rejects_flipped_flag(stability_map):
    out, check = stability_map
    # theta = 0.5, beta = 1.2: |g| well above 1
    edit_line(out / "m.csv", 20 * 41 + 40, lambda c: [*c[:3], "1"])
    with pytest.raises(checks.CheckFailed, match="flag"):
        check()


def test_stability_check_rejects_wrong_modulus(stability_map):
    out, check = stability_map
    # the same change at theta and 1 - theta keeps the aa map symmetric
    for theta_index in (5, 35):
        edit_line(out / "m.csv", theta_index * 41 + 7, scale_value(1.001))
    with pytest.raises(checks.CheckFailed, match="closed form"):
        check()


def test_stability_check_rejects_wrong_gray_level(stability_map):
    out, check = stability_map
    text = (out / "m.pgm").read_text().split("\n")
    row = text[3].split()
    row[2] = str((int(row[2]) + 3) % 256)
    text[3] = " ".join(row)
    (out / "m.pgm").write_text("\n".join(text))
    with pytest.raises(checks.CheckFailed, match="gray"):
        check()


def test_aa_symmetry_check(tmp_path):
    """The aa map is symmetric about theta = 1/2; one changed cell breaks it."""
    icnlab("stability", "--variant", "aa", "--resolution", 41, "--out",
           tmp_path / "m.csv", "--pgm", tmp_path / "m.pgm")
    table = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)
    cells = table.reshape(41, 41, 4)
    assert np.array_equal(cells[..., 2], cells[::-1, :, 2])
    edit_line(tmp_path / "m.csv", 3 * 41 + 10, scale_value(1.001))
    with pytest.raises(checks.CheckFailed, match="symmetric"):
        checks.check_stability(tmp_path / "m.csv", tmp_path / "m.pgm", "aa", 41)
