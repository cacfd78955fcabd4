"""Deterministic text renderers for solution, table, and stability files.

All formats are fixed byte-for-byte: fixed float formatting, fixed row
order, newline line endings.  A stability map's text is laid out in uint8
buffers in which zero bytes stand for nothing and are dropped by one
bytes.translate: one buffer for the PGM, one gather from GRAY_CELLS, and
one per block of theta rows for the CSV, each at most CSV_BLOCK bytes and
written as it is made.  The CSV's bytes that do not depend on theta are
laid out once and copied under every theta.  Its floats come from
``float_bytes``, all of them before the first block, so that a map too
large for memory fails before its file is opened.  The row for each value
holds exactly the bytes of ``format_float``.  A value of magnitude in
[1e-99, 1e99) is scaled to six integer digits in float arithmetic, off by
less than 1e-9, rounded, and split into digits by integer floor division,
with no boolean-mask pass.  Within 1e-6 of a rounding tie that error could
pick the wrong side, so such a value, like every zero, subnormal,
non-finite or larger one, is formatted by ``format_float`` itself.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
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
# the most bytes of stability_csv's rows in one block: 24 theta rows of
# 121 points
CSV_BLOCK = 128 * 1024
# the PGM's gray levels 0 .. 255, a uint32 each: three NUL-padded decimal
# digits and a space, copied in (integer ufuncs at import cost memory)
GRAY_CELLS = np.full((256, 4), ord(" "), np.uint8)
GRAY_CELLS[:, :3] = np.arange(256).astype("S3").view(np.uint8).reshape(256, 3)
GRAY_CELLS = GRAY_CELLS.view(np.uint32).ravel()


def format_float(x: float) -> str:
    """Six significant digits, scientific notation (CSV cells)."""
    return f"{x:.5e}"


def float_bytes(values: np.ndarray) -> np.ndarray:
    """format_float of each value, flattened, as the rows of an
    (n, FLOAT_WIDTH) uint8 array: the nonzero bytes of a row, in order,
    are the string's."""
    x = np.ravel(values)
    # three float arrays of x's size, each reused in place: ``scaled``
    # holds |x|, then |x| scaled, then the mantissa; ``exponent``; ``work``
    # holds 10^(5 - e), then the fraction test, then |e|
    scaled = np.abs(x)
    in_range = (scaled >= 1e-99) & (scaled < 1e99)
    np.copyto(scaled, 1.0, where=~in_range)
    # |x| = scaled 10^(e - 5) with scaled in [1e5, 1e6), up to the rounding
    # of log10 at a power of ten, which rint and the carry absorb
    exponent = np.log10(scaled)
    np.floor(exponent, out=exponent)
    work = np.subtract(5.0, exponent)
    scaled *= np.power(10.0, work, out=work)
    np.subtract(scaled, np.floor(scaled, out=work), out=work)
    work -= 0.5
    exact = np.abs(work, out=work) > 1e-6
    exact &= in_range
    mantissa = np.rint(scaled, out=scaled)
    carry = mantissa == 1e6
    np.copyto(mantissa, 1e5, where=carry)
    exponent += carry
    # the six digits of the mantissa, then the two of the exponent, each by
    # an exact // and multiply-subtract, a tenth of divmod's cost
    mantissa *= 100.0
    mantissa += np.abs(exponent, out=work)
    digits = mantissa.astype(np.uint32)

    out = np.tile(FLOAT_TEMPLATE, (x.size, 1))
    for column in (11, 10, 7, 6, 5, 4, 3, 1):
        quotient = digits // 10
        digits -= quotient * 10
        out[:, column] += digits.astype(np.uint8)
        digits = quotient
    # the exponent's "+" (43) becomes "-" (45), and the sign byte "-" or NUL
    out[:, 9] += 2 * (exponent < 0).view(np.uint8)
    out[:, 0] = ord("-") * (x < 0).view(np.uint8)
    rest = ~exact
    if rest.any():
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


def stability_csv(stability_map: StabilityMap) -> Iterator[bytes]:
    """Rows (theta, beta, |g|, stable), theta-major, beta ascending, as
    blocks of bytes for ``write_text``: the header, then whole theta rows,
    at most CSV_BLOCK bytes a block unless one row is longer.  Every value
    is formatted here, before the first block is asked for."""
    theta = float_bytes(stability_map.theta_axis)
    n_theta, n_beta, w = len(theta), len(stability_map.beta_axis), FLOAT_WIDTH
    # in the map's (beta, theta) order, which ravels without a copy
    modulus = float_bytes(stability_map.modulus).reshape(n_beta, n_theta, w)
    stable = stability_map.stable_mask
    # a line: theta, ",", beta, ",", |g|, ",", the flag, "\n"; the bytes of
    # all but theta, |g| and a "1" flag are laid out once, for every theta
    lines = np.empty((n_beta, 3 * w + 5), np.uint8)
    lines[:, w + 1:2 * w + 1] = float_bytes(stability_map.beta_axis)
    lines[:, [w, 2 * w + 1, 3 * w + 2]] = ord(",")
    lines[:, 3 * w + 3] = ord("0")
    lines[:, 3 * w + 4] = ord("\n")
    rows = max(1, CSV_BLOCK // lines.nbytes)

    def blocks():
        yield b"theta,beta,g_modulus,stable\n"
        for start in range(0, n_theta, rows):
            # the block's lines are laid out in its own bytes, which one
            # translate compacts
            part = slice(start, start + rows)
            text = bytearray(len(theta[part]) * lines.nbytes)
            buf = np.frombuffer(text, np.uint8).reshape((-1,) + lines.shape)
            buf[:] = lines
            buf[:, :, :w] = theta[part, None]
            buf[:, :, 2 * w + 2:3 * w + 2] = modulus[:, part].swapaxes(0, 1)
            # a stable point's "0" becomes "1"
            buf[:, :, 3 * w + 3] += stable[:, part].T
            yield text.translate(None, b"\0")

    return blocks()


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
    cells = GRAY_CELLS[gray[::-1]]
    # each row's last space becomes its newline
    cells.view(np.uint8).reshape(height, width, 4)[:, -1, 3] = ord("\n")
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    return f"P2\n{width} {height}\n255\n" + text


def write_text(path: str | Path, content: str | Iterable[bytes]) -> None:
    """Write a text, or blocks of bytes in the order they come, to
    ``path`` byte for byte (no platform newline translation).  Every file
    an output flag names is written here."""
    if isinstance(content, str):
        content = (content.encode("utf-8"),)
    with open(path, "wb") as file:
        file.writelines(content)
