"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run `pytest -s -v tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Reference table values live in tests/reference_tables.py, and
published order entries shown to be wrong are corrected in ERRATA; the
reproduction protocol (snapshot errors at t = 0.5 for advection, running
mean over (0, 1] for Burgers) is the harness default.
"""
import math
import subprocess
import sys

import numpy as np
import pytest

import reference_tables as ref
from icnlab.analysis import (
    advection_sweep,
    burgers_sweep,
    run_sweep,
    steps_for,
)
from icnlab.core import Grid1D
from icnlab.problems import (
    burgers,
    initial_condition,
    linear_advection,
    semilinear_advection,
)
from icnlab.schemes import SchemeConfig, SchemeVariant, integrate
from icnlab.stability import period_factor, scan_region
from scalar_ops import linear_stencil

ALL_SCHEMES = (
    SchemeConfig.icn(),
    SchemeConfig.theta_icn(0.6),
    SchemeConfig.swapped_theta_icn(0.6),
    SchemeConfig.ga(0.6),
    SchemeConfig.aa(0.6),
)
NORM_KEYS = ("l1", "l2", "linf")


# Published order entries that the rest of the published record
# contradicts, keyed by (problem, norm, scheme, resolution) and mapped to
# (corrected order, reason).  reference_tables.py stays the published
# record; check_orders compares against the corrected value.  The
# derivations are in CHANGES.md, and the test_erratum_* tests below fail
# if a premise stops holding.
ERRATA = {
    ("semilinear", "l1", "swapped", 400): (
        1.0,
        "theta and swapped share their first-order error term, so this "
        "order is theta's published 1.0 plus log2 of the N = 400 ratio "
        "5.3e-4/5.4e-4 (< 1); 1.1 needs every entry at a rounding edge",
    ),
    ("linear", "linf", "theta", 400): (
        1.0,
        "the error is one Fourier mode, so Linf/L1 = pi/2 at every N and "
        "the Linf order equals the published L1 order 1.0",
    ),
    ("linear", "linf", "swapped", 400): (
        1.0,
        "the error is one Fourier mode, so Linf/L1 = pi/2 at every N and "
        "the Linf order equals the published L1 order 1.0",
    ),
}

# Bound on |p_swapped - p_theta - log2(e_swapped / e_theta)| at the finer
# resolution of a pair, the step from the shared leading term to the
# order gap (the semilinear L1 column gives at most 0.0014).
GAP_SLACK = 0.005


def report(number, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:2d}] {status}: {description}")
    for line in failures[:20]:
        print(f"    {line}")
    assert not failures, f"criterion {number}: {len(failures)} check(s) failed"


@pytest.fixture(scope="module")
def linear_result():
    return run_sweep(advection_sweep(linear_advection(), ALL_SCHEMES))


@pytest.fixture(scope="module")
def semilinear_result():
    return run_sweep(advection_sweep(semilinear_advection(), ALL_SCHEMES))


@pytest.fixture(scope="module")
def burgers_result(burgers_cache):
    # the reference is read from the session's cache (tests/conftest.py)
    return run_sweep(burgers_sweep(ALL_SCHEMES, cache_dir=burgers_cache))


def rows_by_label(result, scheme_key):
    index = {"icn": 0, "theta": 1, "swapped": 2, "ga": 3, "aa": 4}
    table = result.tables[index[scheme_key]]
    return {row.resolution_label: row for row in table.rows}


def check_values(result, expected, labels, norm_key, rtol, failures):
    for scheme_key in ref.SCHEMES:
        rows = rows_by_label(result, scheme_key)
        for label, target in zip(labels, expected[norm_key][scheme_key]):
            got = rows[label].norms.get(norm_key)
            if not math.isclose(got, target, rel_tol=rtol):
                failures.append(
                    f"{scheme_key} {norm_key} @{label}: {got:.3e} "
                    f"vs {target:.1e} (>{rtol:.0%})"
                )


def check_orders(result, problem, expected, labels, norm_key, atol,
                 failures):
    norm_index = NORM_KEYS.index(norm_key)
    for scheme_key in ref.SCHEMES:
        rows = rows_by_label(result, scheme_key)
        for label, target in zip(labels[1:], expected[norm_key][scheme_key]):
            erratum = ERRATA.get((problem, norm_key, scheme_key, label))
            note = ""
            if erratum is not None:
                note = f", published {target}"
                target = erratum[0]
            got = rows[label].orders[norm_index]
            if abs(got - target) > atol:
                failures.append(
                    f"{scheme_key} {norm_key} order @{label}: {got:.2f} "
                    f"vs {target}{note} (>{atol})"
                )


def test_criterion_1_linear_l1_table(linear_result):
    failures = []
    check_values(
        linear_result, ref.LINEAR, ref.ADVECTION_RESOLUTIONS, "l1", 0.15,
        failures,
    )
    check_orders(
        linear_result, "linear", ref.LINEAR_ORDERS,
        ref.ADVECTION_RESOLUTIONS, "l1", 0.1, failures,
    )
    report(1, "linear L1 table, values within 15%, orders within 0.1",
           failures)


def test_criterion_2_linear_l2_orders(linear_result):
    failures = []
    second_order = {"icn", "ga", "aa"}
    for scheme_key in ref.SCHEMES:
        target = 2.5 if scheme_key in second_order else 1.5
        rows = rows_by_label(linear_result, scheme_key)
        for label in ref.ADVECTION_RESOLUTIONS[1:]:
            got = rows[label].orders[1]
            if abs(got - target) > 0.1:
                failures.append(
                    f"{scheme_key} l2 order @{label}: {got:.2f} vs {target}"
                )
    report(2, "linear L2 orders 2.5 (icn/ga/aa) and 1.5 (theta/swapped)",
           failures)


def test_criterion_3_semilinear_tables(semilinear_result):
    failures = []
    for norm_key in NORM_KEYS:
        check_values(
            semilinear_result, ref.SEMILINEAR, ref.ADVECTION_RESOLUTIONS,
            norm_key, 0.15, failures,
        )
        check_orders(
            semilinear_result, "semilinear", ref.SEMILINEAR_ORDERS,
            ref.ADVECTION_RESOLUTIONS, norm_key, 0.1, failures,
        )
    ga_400 = rows_by_label(semilinear_result, "ga")[400].norms.l1
    aa_1600 = rows_by_label(semilinear_result, "aa")[1600].norms.linf
    if not math.isclose(ga_400, 3.5e-5, rel_tol=0.15):
        failures.append(f"spot ga @400 l1: {ga_400:.3e} vs 3.5e-5")
    if not math.isclose(aa_1600, 4.3e-6, rel_tol=0.15):
        failures.append(f"spot aa @1600 linf: {aa_1600:.3e} vs 4.3e-6")
    report(3, "semilinear tables, values within 15%, orders within 0.1",
           failures)


def test_criterion_4_burgers_tables(burgers_result):
    failures = []
    for norm_key in NORM_KEYS:
        check_values(
            burgers_result, ref.BURGERS, ref.BURGERS_DIVISORS, norm_key,
            0.20, failures,
        )
        check_orders(
            burgers_result, "burgers", ref.BURGERS_ORDERS,
            ref.BURGERS_DIVISORS, norm_key, 0.15, failures,
        )
    report(4, "burgers tables, values within 20%, orders within 0.15",
           failures)


def test_criterion_5_stability_spot_checks():
    failures = []
    ga_modulus = abs(complex(*period_factor(SchemeVariant.GA, 0.4, 0.6)))
    if not 0.88 <= ga_modulus <= 0.92:
        failures.append(f"|g_ga(0.4, 0.6)| = {ga_modulus:.4f} not in "
                        "[0.88, 0.92]")
    aa_modulus = abs(complex(*period_factor(SchemeVariant.AA, 0.4, 0.6)))
    if not 0.5 <= aa_modulus <= 0.7:
        failures.append(f"|g_aa(0.4, 0.6)| = {aa_modulus:.4f} not in "
                        "[0.5, 0.7]")
    scan = scan_region("ga")
    column = int(np.where(scan.theta_axis == 0.5)[0][0])
    for i, beta in enumerate(scan.beta_axis):
        expected = beta <= 1.0 + 1e-9
        if scan.stable_mask[i, column] != expected:
            failures.append(
                f"ga theta=0.5 column: beta={beta:.6f} "
                f"stable={bool(scan.stable_mask[i, column])}"
            )
    report(5, "stability spot checks and the theta1=1/2 boundary", failures)


def test_criterion_6_oracle_equivalence():
    failures = []
    problem = linear_advection()
    for n in (8, 64):
        grid = Grid1D(n)
        rng = np.random.default_rng(n)
        x = grid.nodes()
        u = np.full(n, 0.5)
        for k in (1, 2, 3):
            a, b = rng.uniform(-0.3, 0.3, size=2)
            u += a * np.cos(2 * np.pi * k * x)
            u += b * np.sin(2 * np.pi * k * x)
        for theta in (0.3, 0.5, 0.6, 0.9):
            for courant in (0.1, 0.25, 0.45):
                dt = 2.0 * courant * grid.dx
                for scheme in (SchemeConfig.ga(theta), SchemeConfig.aa(theta)):
                    staged = scheme.step(u, problem.rhs, dt)
                    stencil = linear_stencil(u, courant, *scheme.weights())
                    gap = np.abs(staged - stencil).max()
                    scale = np.abs(stencil).max()
                    if gap > 1e-13 * scale:
                        failures.append(
                            f"{scheme.variant.value} n={n} theta={theta} "
                            f"R={courant}: {gap:.2e}"
                        )
    report(6, "staged ga/aa steppers match the closed-form stencils",
           failures)


def test_criterion_7_reduction_identities():
    failures = []
    problem = linear_advection()
    grid = Grid1D(64)
    dt = 0.5 * grid.dx
    u0 = initial_condition(grid)
    rhs = problem.array_rhs(grid)
    baseline = integrate(u0, SchemeConfig.icn(), rhs, dt, 100)
    scale = np.abs(baseline).max()
    reduced = {
        "ga(0.5)": SchemeConfig.ga(0.5),
        "aa(0.5)": SchemeConfig.aa(0.5),
        "theta(0.5)": SchemeConfig.theta_icn(0.5),
    }
    for name, scheme in reduced.items():
        final = integrate(u0, scheme, rhs, dt, 100)
        gap = np.abs(final - baseline).max()
        if gap > 1e-12 * scale:
            failures.append(f"{name} vs icn after 100 steps: {gap:.2e}")
    report(7, "half-weight ga/aa/theta trajectories match icn", failures)


def test_criterion_8_conservation():
    failures = []
    linear = linear_advection()
    grid = Grid1D(200)
    dt = 0.5 * grid.dx  # 400 steps to t = 1
    for scheme in ALL_SCHEMES:
        u0 = initial_condition(grid)
        final = integrate(u0, scheme, linear.array_rhs(grid), dt, 400)
        drift = abs(final.sum() - u0.sum())
        if drift > 1e-10:
            failures.append(f"linear {scheme.label()}: drift {drift:.2e}")
    viscous = burgers(0.01)
    grid = Grid1D(30)
    dt = 0.5 * grid.dx**2  # 1800 steps to t = 1
    for scheme in ALL_SCHEMES:
        u0 = initial_condition(grid)
        final = integrate(u0, scheme, viscous.array_rhs(grid), dt, 1800)
        drift = abs(final.sum() - u0.sum())
        if drift > 1e-10:
            failures.append(f"burgers {scheme.label()}: drift {drift:.2e}")
    report(8, "total mass drift below 1e-10 over full runs", failures)


def test_criterion_9_aa_scan_symmetry():
    failures = []
    scan = scan_region("aa")
    n = len(scan.theta_axis)
    for k in range(n // 2):
        gap = np.abs(scan.modulus[:, k] - scan.modulus[:, n - 1 - k]).max()
        if gap > 1e-15:
            failures.append(
                f"columns {k} and {n - 1 - k}: max |g| gap {gap:.2e}"
            )
    report(9, "aa map symmetric about theta = 1/2 on the default scan",
           failures)


def test_criterion_10_sweep_determinism(tmp_path):
    failures = []
    cases = [
        (
            "linear",
            ["sweep", "--problem", "linear", "--schemes", "icn,ga,aa",
             "--resolutions", "100,200"],
        ),
        (
            "burgers",
            ["sweep", "--problem", "burgers", "--schemes", "icn,theta",
             "--resolutions", "1,2", "--t-final", "0.125"],
        ),
    ]
    for name, args in cases:
        outputs = []
        for attempt in ("a", "b"):
            directory = tmp_path / f"{name}_{attempt}"
            directory.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "icnlab", *args,
                 "--out", str(directory / "t.csv")],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                failures.append(f"{name} {attempt}: exit {proc.returncode}")
                continue
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(directory.glob("t_*.csv"))
                }
            )
        if len(outputs) == 2:
            if not outputs[0]:
                failures.append(f"{name}: no output files written")
            if outputs[0] != outputs[1]:
                failures.append(f"{name}: repeated sweeps differ")
    report(10, "repeated sweep invocations are byte-identical", failures)


def test_linear_linf_orders(linear_result):
    failures = []
    check_orders(
        linear_result, "linear", ref.LINEAR_ORDERS,
        ref.ADVECTION_RESOLUTIONS, "linf", 0.1, failures,
    )
    assert not failures, failures


def snapshot_error(spec, scheme, n):
    """Signed nodal error of the advection-sweep cell (scheme, n) of spec."""
    grid = Grid1D(n)
    dt = spec.cfl * grid.dx / abs(spec.problem.advection_speed)
    final = integrate(
        initial_condition(grid), scheme, spec.problem.array_rhs(grid), dt,
        steps_for(spec.t_final, dt),
    )
    return final - spec.problem.exact_solution(grid.nodes(), spec.t_final)


def linear_error_amplitude(spec, n, w1, s_w2):
    """Complex amplitude c of the snapshot error of a linear sweep cell.

    sin^2(pi x) = 1/2 - Re(e^{2 pi i x}) / 2 is a single Fourier mode.  A
    step with weights (w1, s, w2) multiplies it by
    g = 1 - 2i beta - 4 s w2 beta^2 + 8i s w1 w2 beta^3 with
    beta = R sin(2 pi dx) and R = a dt / (2 dx), while the exact solution
    turns it by e^{-2 pi i a t}; the error at node x_j is
    -Re(c e^{2 pi i x_j}) / 2.
    """
    grid = Grid1D(n)
    speed = spec.problem.advection_speed
    dt = spec.cfl * grid.dx / abs(speed)
    beta = speed * dt / (2.0 * grid.dx) * math.sin(2.0 * math.pi * grid.dx)
    g = 1 - 2j * beta - 4 * s_w2 * beta**2 + 8j * w1 * s_w2 * beta**3
    return (
        g ** steps_for(spec.t_final, dt)
        - np.exp(-2j * np.pi * speed * spec.t_final)
    )


def printed_interval(value):
    """Values that print as ``value`` with two significant digits."""
    half = 0.05 * 10.0 ** math.floor(math.log10(value))
    return value - half, value + half


def test_erratum_swapped_orders_follow_theta():
    # theta's first-order error is minus swapped's, so their norms share
    # the leading term and, to within GAP_SLACK,
    # p_swapped = p_theta + log2(e_swapped / e_theta) at the finer
    # resolution.  Read as rounding intervals, the published entries leave
    # every swapped order its full interval but one, the erratum.
    tables = {
        "linear": (ref.LINEAR, ref.LINEAR_ORDERS, ref.ADVECTION_RESOLUTIONS),
        "semilinear": (
            ref.SEMILINEAR, ref.SEMILINEAR_ORDERS, ref.ADVECTION_RESOLUTIONS
        ),
        "burgers": (ref.BURGERS, ref.BURGERS_ORDERS, ref.BURGERS_DIVISORS),
    }
    squeezed = set()
    for problem, (norms, orders, labels) in tables.items():
        for norm_key in NORM_KEYS:
            theta_norms = norms[norm_key]["theta"]
            swapped_norms = norms[norm_key]["swapped"]
            for i, label in enumerate(labels[1:]):
                s_lo, s_hi = printed_interval(swapped_norms[i + 1])
                t_lo, t_hi = printed_interval(theta_norms[i + 1])
                p_theta = orders[norm_key]["theta"][i]
                p_swapped = orders[norm_key]["swapped"][i]
                low = p_theta - 0.05 + math.log2(s_lo / t_hi) - GAP_SLACK
                high = p_theta + 0.05 + math.log2(s_hi / t_lo) + GAP_SLACK
                room = min(high, p_swapped + 0.05) - max(low, p_swapped - 0.05)
                if room <= GAP_SLACK:
                    squeezed.add((problem, norm_key, "swapped", label))
    assert squeezed == {("semilinear", "l1", "swapped", 400)}, squeezed
    assert squeezed <= ERRATA.keys()


def test_erratum_linear_closed_form(linear_result):
    # premise of the linear Linf errata: the theta and swapped errors are
    # one Fourier mode, so Linf/L1 = pi/2 and the two orders coincide
    spec = linear_result.spec
    cases = {  # scheme, w1, s w2
        "theta": (ALL_SCHEMES[1], 0.6, 0.6),
        "swapped": (ALL_SCHEMES[2], 0.6, 0.4),
    }
    for key, (scheme, w1, s_w2) in cases.items():
        for n in (200, 400):
            c = linear_error_amplitude(spec, n, w1, s_w2)
            x = Grid1D(n).nodes()
            closed = -0.5 * np.real(c * np.exp(2j * np.pi * x))
            gap = np.abs(snapshot_error(spec, scheme, n) - closed).max()
            assert gap <= 1e-12, (key, n, gap)
        l1_order, _, linf_order = rows_by_label(linear_result, key)[400].orders
        assert abs(linf_order - l1_order) <= 0.01, (key, l1_order, linf_order)
        corrected, _ = ERRATA[("linear", "linf", key, 400)]
        assert corrected == ref.LINEAR_ORDERS["l1"][key][0]


def test_erratum_semilinear_theta_swapped_mirror(semilinear_result):
    # premise of the semilinear L1 erratum: theta's first-order error
    # dt^2 (theta - 1/2) L'L is the negative of swapped's, so the signed
    # errors are anti-correlated, the L1 ratio tends to 1 like h, and the
    # order gap is log2 of the ratio at the finer N
    spec = semilinear_result.spec
    for n in (200, 400):
        a = snapshot_error(spec, ALL_SCHEMES[1], n)
        b = snapshot_error(spec, ALL_SCHEMES[2], n)
        cosine = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine < -0.9, (n, cosine)
    theta = rows_by_label(semilinear_result, "theta")
    swapped = rows_by_label(semilinear_result, "swapped")
    labels = ref.ADVECTION_RESOLUTIONS
    ratio = {n: swapped[n].norms.l1 / theta[n].norms.l1 for n in labels}
    halving = (ratio[200] - 1.0) / (ratio[400] - 1.0)
    assert 1.8 <= halving <= 2.2, halving
    for n in labels[1:]:
        gap = swapped[n].orders[0] - theta[n].orders[0]
        assert abs(gap - math.log2(ratio[n])) <= GAP_SLACK, (n, gap)
    theta_order = theta[400].orders[0]
    swapped_order = swapped[400].orders[0]
    assert swapped_order < 1.0 < theta_order, (theta_order, swapped_order)
    corrected, _ = ERRATA[("semilinear", "l1", "swapped", 400)]
    assert round(swapped_order, 1) == corrected
