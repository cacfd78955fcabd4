"""Independent checks of the files icnlab writes.

Nothing here imports icnlab.  Each expected value comes from a closed
form, from the paper's published tables (published.py) or from a property
the output must have.  A check that fails raises CheckFailed.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import published

EPS = float(np.finfo(float).eps)
NORMS = ("l1", "l2", "linf")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- tables

def read_sweep_csv(path: Path, norm: str) -> dict:
    """{(label, resolution): (value text, order text)} of one norm file."""
    lines = Path(path).read_text().splitlines()
    require(lines[:1] == [f"scheme,resolution,{norm},order"],
            f"{path}: bad header {lines[:1]}")
    rows = {}
    for line in lines[1:]:
        label, resolution, value, order = line.split(",")
        require(value != "DIVERGED", f"{path}: {label} @{resolution} diverged")
        rows[(label, int(resolution))] = (value, order)
    return rows


def scheme_key(label: str) -> str:
    return label.partition("(")[0]


def weights(label: str) -> list[tuple[float, float, float]]:
    """Averaging weights (w1, s, w2) of each step in one period of a scheme.

    A step predicts with dt, averages with w1, predicts with s dt, averages
    with w2 and takes a full step; aa alternates two weight sets.
    """
    key, _, rest = label.partition("(")
    theta = float(rest.rstrip(")")) if rest else None
    if key == "icn":
        return [(0.5, 1.0, 0.5)]
    if key == "theta":
        return [(theta, 1.0, theta)]
    if key == "swapped":
        return [(theta, 1.0, 1.0 - theta)]
    if key == "ga":
        return [(theta, 2.0 * theta, 1.0 / (4.0 * theta))]
    if key == "aa":
        return [(theta, 1.0, theta), (1.0 - theta, 1.0, 1.0 - theta)]
    raise CheckFailed(f"unknown scheme label {label!r}")


def amplification(w, beta):
    """Per-step factor on u_t + a u_x = 0 of one weight set, beta = R sin(k dx)."""
    w1, s, w2 = w
    return factor(s * w2, s * w1 * w2, beta)


def factor(sw2, sw1w2, beta):
    """g = 1 - 2i beta - 4 s w2 beta^2 + 8i s w1 w2 beta^3."""
    return 1.0 - 2j * beta - 4.0 * sw2 * beta**2 + 8j * sw1w2 * beta**3


def linear_norms(label: str, n: int, cfl: float, t_final: float):
    """Closed-form error norms of one linear-advection cell, plus the
    absolute round-off allowance of that cell.

    sin^2(pi x) = 1/2 - Re(exp(2 pi i x))/2 is one Fourier mode, so after
    n_steps the discrete error is -Re((G - exp(-2 pi i t)) exp(2 pi i x_j))/2
    with G the product of the per-step factors.  A scheme whose largest
    per-mode factor exceeds 1 (swapped at theta > 1/2) amplifies round-off
    by that factor to the power n_steps; the allowance is 2 eps times it.
    """
    dx = 1.0 / n
    steps = round(t_final / (cfl * dx))
    courant = 0.5 * cfl
    period = weights(label)
    beta = courant * math.sin(2.0 * math.pi * dx)
    factors = [amplification(w, beta) for w in period]
    total = np.prod(factors) ** (steps // len(period))
    total *= np.prod(factors[: steps % len(period)])
    x = np.arange(n) * dx
    errors = -0.5 * np.real(
        (total - np.exp(-2j * np.pi * t_final)) * np.exp(2j * np.pi * x)
    )
    norms = {
        "l1": dx * np.sum(np.abs(errors)),
        "l2": dx * math.sqrt(np.sum(errors * errors)),
        "linf": float(np.max(np.abs(errors))),
    }
    all_betas = courant * np.sin(2.0 * np.pi * np.arange(n) * dx)
    growth = np.prod([np.abs(amplification(w, all_betas)) for w in period],
                     axis=0) ** (1.0 / len(period))
    allowance = 2.0 * EPS * max(1.0, float(growth.max())) ** steps
    return norms, allowance


def agrees(text: str, expected: float, slack: float = 0.0) -> bool:
    """True when a %.5e cell equals ``expected`` to its printed precision."""
    value = float(text)
    exponent = math.floor(math.log10(abs(value))) if value else 0
    half_unit = 0.5 * 10.0 ** (exponent - 5)
    return abs(value - expected) <= half_unit * (1 + 1e-9) + slack + 1e-12 * abs(expected)


def check_linear(prefix: Path, resolutions, cfl: float, t_final: float,
                 labels) -> None:
    """Every norm and order of the linear sweep against the closed form."""
    for norm in NORMS:
        rows = read_sweep_csv(f"{prefix}_{norm}.csv", norm)
        require(set(rows) == {(l, n) for l in labels for n in resolutions},
                f"linear {norm}: unexpected cells {sorted(rows)}")
        for label in labels:
            previous = None
            for n in resolutions:
                value, order = rows[(label, n)]
                exact, slack = linear_norms(label, n, cfl, t_final)
                require(agrees(value, exact[norm], slack),
                        f"linear {norm} {label} @{n}: {value} vs closed form "
                        f"{exact[norm]:.6e}")
                if previous is None:
                    require(order == "", f"linear {norm} {label} @{n}: order "
                                         f"{order!r} on the first row")
                else:
                    e0, s0 = previous
                    expected = math.log2(e0 / exact[norm])
                    order_slack = (s0 / e0 + slack / exact[norm]) / math.log(2)
                    require(order != "" and agrees(order, expected, order_slack),
                            f"linear {norm} {label} order @{n}: {order!r} vs "
                            f"closed form {expected:.6f}")
                previous = (exact[norm], slack)


def nominal_order(label: str, norm: str, refines_grid: bool) -> float:
    """About 2 for icn, ga and aa and about 1 for theta and swapped.

    The program's L2 norm carries an extra sqrt(dx), so on a grid
    refinement its order is half a unit higher.
    """
    base = 1.0 if scheme_key(label) in ("theta", "swapped") else 2.0
    return base + (0.5 if refines_grid and norm == "l2" else 0.0)


def check_orders_and_values(prefix: Path, problem: str, labels, resolutions,
                            refines_grid: bool, order_tol: float,
                            table: dict | None = None,
                            value_rtol: float = 0.0) -> None:
    """Observed orders near their nominal value, and values near the
    published table where the run follows the paper's protocol."""
    for norm in NORMS:
        rows = read_sweep_csv(f"{prefix}_{norm}.csv", norm)
        require(set(rows) == {(l, n) for l in labels for n in resolutions},
                f"{problem} {norm}: unexpected cells {sorted(rows)}")
        for label in labels:
            for i, n in enumerate(resolutions):
                value, order = rows[(label, n)]
                require(math.isfinite(float(value)) and float(value) > 0,
                        f"{problem} {norm} {label} @{n}: value {value}")
                if i == 0:
                    require(order == "", f"{problem} {norm} {label} @{n}: "
                                         f"order {order!r} on the first row")
                else:
                    target = nominal_order(label, norm, refines_grid)
                    require(order != "" and abs(float(order) - target) <= order_tol,
                            f"{problem} {norm} {label} order @{n}: {order!r} "
                            f"vs {target} (>{order_tol})")
                if table is not None and n in table["resolutions"]:
                    target = table[norm][scheme_key(label)][
                        table["resolutions"].index(n)]
                    require(math.isclose(float(value), target, rel_tol=value_rtol),
                            f"{problem} {norm} {label} @{n}: {value} vs "
                            f"published {target} (>{value_rtol:.0%})")


def check_semilinear(prefix: Path, labels, resolutions,
                     paper_protocol: bool) -> None:
    """The paper's tolerances: orders within 0.1, values within 15%."""
    check_orders_and_values(prefix, "semilinear", labels, resolutions, True,
                            0.1, published.SEMILINEAR if paper_protocol else None,
                            0.15)


def check_burgers(prefix: Path, labels, divisors, paper_protocol: bool) -> None:
    """The paper's tolerances: orders within 0.15, values within 20%."""
    check_orders_and_values(prefix, "burgers", labels, divisors, False, 0.15,
                            published.BURGERS if paper_protocol else None, 0.20)


def check_same_tables(first: Path, second: Path) -> None:
    for norm in NORMS:
        a = Path(f"{first}_{norm}.csv").read_bytes()
        b = Path(f"{second}_{norm}.csv").read_bytes()
        require(a == b, f"rerun {norm} table differs from the first run's")


def check_burgers_reference_cache(cache_dir: Path, n_cells: int) -> None:
    """Each cached reference state: n_cells finite values in [0, 1] whose
    mass dx sum(u) is 1/2, the mass of sin^2(pi x), which the centered flux
    form conserves."""
    files = sorted(Path(cache_dir).glob("*.csv"))
    require(files != [], f"{cache_dir}: no cached reference")
    for path in files:
        lines = path.read_text().splitlines()
        require(lines[:1] == ["x,u"], f"{path.name}: bad header {lines[:1]}")
        try:
            table = np.array([[float(c) for c in line.split(",")]
                              for line in lines[1:]])
        except ValueError as err:
            raise CheckFailed(f"{path.name}: {err}") from err
        require(table.shape == (n_cells, 2),
                f"{path.name}: shape {table.shape}, want ({n_cells}, 2)")
        x, u = table.T
        require(np.allclose(x, np.arange(n_cells) / n_cells, rtol=0, atol=1e-15),
                f"{path.name}: nodes are not j/{n_cells}")
        require(bool(np.isfinite(u).all()), f"{path.name}: non-finite value")
        require(bool(((u >= 0) & (u <= 1)).all()), f"{path.name}: u outside [0, 1]")
        mass = float(np.sum(u)) / n_cells
        require(abs(mass - 0.5) <= 1e-10, f"{path.name}: mass {mass!r} != 1/2")


# ------------------------------------------------------------ stability

def map_modulus(variant: str, theta, beta):
    """|g| of ga (one step) or aa (two steps, theta then 1 - theta)."""
    theta, beta = np.broadcast_arrays(theta, beta)
    if variant == "ga":
        # weights (theta, 2 theta, 1/(4 theta)): s w2 = 1/2, s w1 w2 = theta/2,
        # also in the limit theta -> 0
        return np.abs(factor(0.5, 0.5 * theta, beta))
    first = amplification((theta, 1.0, theta), beta)
    second = amplification((1.0 - theta, 1.0, 1.0 - theta), beta)
    return np.abs(first * second)


def check_stability(csv_path: Path, pgm_path: Path, variant: str,
                    resolution: int, theta_range=(0.0, 1.0),
                    beta_range=(0.0, 1.2)) -> None:
    """The whole map against the closed form, its symmetry and the PGM."""
    with open(csv_path) as f:
        header = f.readline().rstrip("\n")
    require(header == "theta,beta,g_modulus,stable", f"{csv_path}: bad header {header!r}")
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    require(table.shape == (resolution**2, 4),
            f"{csv_path}: table shape {table.shape}, want ({resolution**2}, 4)")
    # [theta index, beta index, column]: rows are theta-major, beta ascending
    cells = table.reshape(resolution, resolution, 4)
    theta = np.linspace(*theta_range, resolution)
    beta = np.linspace(*beta_range, resolution)
    printed = cells[..., :3]
    stable = cells[..., 3]
    require(bool(np.isin(stable, (0.0, 1.0)).all()), f"{csv_path}: bad flag")
    half_unit = 0.5 * 10.0 ** (np.floor(np.log10(np.maximum(np.abs(printed), 1e-300))) - 5)
    tol = half_unit * (1 + 1e-9) + 1e-12
    tt, bb = np.meshgrid(theta, beta, indexing="ij")
    require(bool((np.abs(printed[..., 0] - tt) <= tol[..., 0]).all()
                 and (np.abs(printed[..., 1] - bb) <= tol[..., 1]).all()),
            f"{csv_path}: axes are not linspace({theta_range}) x linspace({beta_range})")
    if variant == "aa" and theta_range[0] + theta_range[1] == 1.0:
        require(bool((cells[..., 2:] == cells[::-1, :, 2:]).all()),
                f"{csv_path}: aa map is not symmetric about theta = 1/2")
    modulus = map_modulus(variant, tt, bb)
    require(bool(np.isfinite(modulus).all()), "closed form not finite on this map")
    bad = ~(np.abs(printed[..., 2] - modulus) <= tol[..., 2] + 1e-12 * modulus)
    require(not bad.any(), f"{csv_path}: |g| differs from the closed form at "
                           f"{np.argwhere(bad)[:3].tolist()} (theta, beta index)")
    decided = np.abs(modulus - 1.0) > 1e-9
    wrong = decided & ((stable == 1.0) != (modulus <= 1.0))
    require(not wrong.any(), f"{csv_path}: stable flag wrong at "
                             f"{np.argwhere(wrong)[:3].tolist()}")
    half = np.flatnonzero(np.abs(theta - 0.5) <= 1e-12)
    if variant == "ga" and half.size:
        column = stable[half[0]] == 1.0
        require(bool((column == (beta <= 1.0 + 1e-9)).all()),
                f"{csv_path}: ga theta = 1/2 is not stable exactly for beta <= 1")

    pgm = Path(pgm_path).read_text().split()
    require(pgm[:4] == ["P2", str(resolution), str(resolution), "255"],
            f"{pgm_path}: bad header {pgm[:4]}")
    gray = np.array(pgm[4:], dtype=int)
    require(gray.size == resolution**2, f"{pgm_path}: {gray.size} gray levels")
    # image rows run from beta_max down, columns along theta
    exact = 255.0 * np.minimum(modulus.T[::-1], 2.0) / 2.0
    off = np.abs(gray.reshape(resolution, resolution) - exact) > 0.5 + 1e-6
    require(not off.any(), f"{pgm_path}: gray level off at "
                           f"{np.argwhere(off)[:3].tolist()} (row, column)")
