"""Deterministic text renderers for solution, table, and stability files.

All formats are fixed byte-for-byte: fixed float formatting, fixed row
order, newline line endings.  A stability map is assembled as one uint8
buffer per file, in which zero bytes stand for nothing and are dropped
before decoding (``_text``).  The CSV's buffer starts as the bytes that do
not depend on theta, laid out once for one theta and copied under every
other.  Its floats come from ``float_bytes``, whose row for each
value holds exactly the bytes of ``format_float``.  A value of magnitude in
[1e-99, 1e99) is scaled to six integer digits in float arithmetic, off by
less than 1e-9, and rounded.  Within 1e-6 of a rounding tie that error
could pick the wrong side, so such a value, like every zero, subnormal,
non-finite or larger one, is formatted by ``format_float`` itself.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .analysis import NORM_KEYS, SweepResult
from .core import Grid1D
from .stability import StabilityMap

FAILED_CELL = "DIVERGED"
# bytes of format_float's longest string, "-1.79769e+308"
FLOAT_WIDTH = 13
# the layout of float_bytes' rows: a sign byte, "0.00000e+00", a pad byte
FLOAT_TEMPLATE = np.frombuffer(b"\x000.00000e+00\x00", np.uint8)
# the PGM's gray levels 0 .. 255 in decimal, zero-padded to three bytes
GRAY_DIGITS = np.arange(256).astype("S3").view(np.uint8).reshape(256, 3)


def format_float(x: float) -> str:
    """Six significant digits, scientific notation (CSV cells)."""
    return f"{x:.5e}"


def float_bytes(values: np.ndarray) -> np.ndarray:
    """format_float of each value, flattened, as the rows of an
    (n, FLOAT_WIDTH) uint8 array: the nonzero bytes of a row, in order,
    are the string's."""
    x = np.ravel(values)
    magnitude = np.abs(x)
    in_range = (magnitude >= 1e-99) & (magnitude < 1e99)
    magnitude[~in_range] = 1.0
    # |x| = scaled 10^(e - 5) with scaled in [1e5, 1e6), up to the rounding
    # of log10 at a power of ten, which rint and the carry absorb
    exponent = np.floor(np.log10(magnitude))
    scaled = magnitude * 10.0 ** (5.0 - exponent)
    exact = in_range & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
    mantissa = np.rint(scaled)
    carry = mantissa == 1e6
    mantissa[carry] = 1e5
    exponent[carry] += 1.0
    # the six digits of the mantissa, then the two of the exponent
    digits = (100.0 * mantissa + np.abs(exponent)).astype(np.uint32)

    out = np.tile(FLOAT_TEMPLATE, (x.size, 1))
    for column in (11, 10, 7, 6, 5, 4, 3, 1):
        digits, digit = np.divmod(digits, 10)
        out[:, column] += digit
    out[exponent < 0, 9] = ord("-")
    out[x < 0, 0] = ord("-")
    rest = ~exact
    out[rest] = np.array(
        [format_float(v).encode() for v in x[rest].tolist()],
        dtype=f"S{FLOAT_WIDTH}",
    ).view(np.uint8).reshape(-1, FLOAT_WIDTH)
    return out


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
    theta = float_bytes(stability_map.theta_axis)
    n_theta, n_beta, w = len(theta), len(stability_map.beta_axis), FLOAT_WIDTH
    # a line: theta, ",", beta, ",", |g|, ",", the flag, "\n"; the bytes of
    # all but theta, |g| and a "1" flag are one block under every theta
    lines = np.empty((n_beta, 3 * w + 5), np.uint8)
    lines[:, w + 1:2 * w + 1] = float_bytes(stability_map.beta_axis)
    lines[:, [w, 2 * w + 1, 3 * w + 2]] = ord(",")
    lines[:, 3 * w + 3] = ord("0")
    lines[:, 3 * w + 4] = ord("\n")
    buf = np.empty((n_theta, n_beta, 3 * w + 5), np.uint8)
    buf[:] = lines
    buf[:, :, :w] = theta[:, None]
    buf[:, :, 2 * w + 2:3 * w + 2] = float_bytes(
        stability_map.modulus.T).reshape(n_theta, n_beta, w)
    buf[stability_map.stable_mask.T, 3 * w + 3] = ord("1")
    return "theta,beta,g_modulus,stable\n" + _text(buf)


def stability_pgm(stability_map: StabilityMap) -> str:
    """Plain-ASCII P2 heatmap, gray = round(255 min(|g|, 2) / 2).

    Width spans the theta axis, height the beta axis, and the top image
    row is beta_max so the picture reads the same way up as the figures.
    A NaN modulus has no gray level and raises ValueError.
    """
    if np.isnan(stability_map.modulus).any():
        raise ValueError("|g| is NaN on this map, which has no gray level")
    clipped = np.minimum(stability_map.modulus, 2.0)
    gray = np.rint(255.0 * clipped / 2.0).astype(int)
    height, width = gray.shape
    buf = np.empty((height, width, 4), np.uint8)
    buf[:, :, :3] = GRAY_DIGITS[gray[::-1]]
    buf[:, :, 3] = ord(" ")
    buf[:, -1, 3] = ord("\n")
    return f"P2\n{width} {height}\n255\n" + _text(buf)


def _text(buf: np.ndarray) -> str:
    """The nonzero bytes of ``buf`` in order, as text: one bytes.translate."""
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def write_text(path: str | Path, content: str) -> None:
    """Byte-exact write (no platform newline translation)."""
    Path(path).write_bytes(content.encode("utf-8"))
