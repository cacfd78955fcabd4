"""Deterministic text renderers for solution, table, and stability files.

All formats are fixed byte-for-byte: fixed float formatting, fixed row
order, newline line endings.  Per-point rows are formatted from the Python
floats of ``.tolist()``, a map column at a time, because a NumPy scalar
indexed and formatted per point costs several times the formatting itself.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .analysis import NORM_KEYS, SweepResult
from .core import Grid1D
from .stability import StabilityMap

FAILED_CELL = "DIVERGED"


def format_float(x: float) -> str:
    """Six significant digits, scientific notation (CSV cells)."""
    return f"{x:.5e}"


def format_compact(x: float) -> str:
    """Two significant digits in the 1.8E-4 style (Markdown cells); a
    non-finite value reads as in the CSV cells."""
    if not math.isfinite(x):
        return format_float(x)
    mantissa, exponent = f"{x:.1E}".split("E")
    return f"{mantissa}E{int(exponent)}"


def solution_csv(
    grid: Grid1D, numerical: np.ndarray, reference: np.ndarray
) -> str:
    rows = zip(grid.nodes().tolist(), numerical.tolist(), reference.tolist())
    lines = ["x,u_num,u_ref,error"]
    lines += [
        f"{format_float(x)},{format_float(un)},"
        f"{format_float(ur)},{format_float(un - ur)}"
        for x, un, ur in rows
    ]
    return "\n".join(lines) + "\n"


def sweep_csv(result: SweepResult, norm_key: str) -> str:
    """One norm, all schemes: rows grouped in scheme blocks."""
    lines = [f"scheme,resolution,{norm_key},order"]
    for table in result.tables:
        label = table.scheme.label()
        for row in table.rows:
            if row.failed:
                value, order = FAILED_CELL, ""
            else:
                value = format_float(row.norms.get(norm_key))
                order = (
                    format_float(row.orders[NORM_KEYS.index(norm_key)])
                    if row.orders is not None
                    else ""
                )
            lines.append(f"{label},{row.resolution_label},{value},{order}")
    return "\n".join(lines) + "\n"


def sweep_markdown(result: SweepResult, norm_key: str) -> str:
    """Paper-style layout: one row per resolution, value/order per scheme."""
    res_header = "dt divisor" if result.spec.is_burgers else "N"
    norm_name = {"l1": "L1", "l2": "L2", "linf": "Linf"}[norm_key]
    header = [res_header]
    for table in result.tables:
        header += [f"{table.scheme.label()} {norm_name}", "order"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for i, label in enumerate(result.spec.resolutions):
        cells = [str(label)]
        for table in result.tables:
            row = table.rows[i]
            if row.failed:
                cells += [FAILED_CELL, ""]
            else:
                cells.append(format_compact(row.norms.get(norm_key)))
                cells.append(
                    f"{row.orders[NORM_KEYS.index(norm_key)]:.1f}"
                    if row.orders is not None
                    else ""
                )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def stability_csv(stability_map: StabilityMap) -> str:
    """Rows (theta, beta, |g|, stable), theta-major, beta ascending."""
    betas = [format_float(beta) for beta in stability_map.beta_axis.tolist()]
    blocks = ["theta,beta,g_modulus,stable\n"]
    # one block of lines per theta column, so only one column's Python
    # floats are alive at a time
    for j, theta in enumerate(stability_map.theta_axis.tolist()):
        t = format_float(theta)
        column = zip(
            betas,
            stability_map.modulus[:, j].tolist(),
            stability_map.stable_mask[:, j].tolist(),
        )
        blocks.append("".join([
            f"{t},{beta},{format_float(g)},{'1' if stable else '0'}\n"
            for beta, g, stable in column
        ]))
    return "".join(blocks)


def stability_pgm(stability_map: StabilityMap) -> str:
    """Plain-ASCII P2 heatmap, gray = round(255 min(|g|, 2) / 2).

    Width spans the theta axis, height the beta axis, and the top image
    row is beta_max so the picture reads the same way up as the figures.
    """
    clipped = np.minimum(stability_map.modulus, 2.0)
    gray = np.rint(255.0 * clipped / 2.0).astype(int)
    height, width = gray.shape
    lines = ["P2", f"{width} {height}", "255"]
    lines += [" ".join(map(str, row)) for row in gray[::-1].tolist()]
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, content: str) -> None:
    """Byte-exact write (no platform newline translation)."""
    Path(path).write_bytes(content.encode("utf-8"))
