import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icnlab.analysis import (
    ConvergenceRow,
    NormTriple,
    SchemeTable,
    SweepResult,
    advection_sweep,
)
from icnlab.core import Grid1D
from icnlab.output import (
    CSV_BLOCK,
    FLOAT_WIDTH,
    float_bytes,
    format_compact,
    format_float,
    solution_csv,
    stability_csv,
    stability_pgm,
    sweep_csv,
    sweep_markdown,
)
from icnlab.problems import linear_advection
from icnlab.schemes import SchemeConfig, SchemeVariant
from icnlab.stability import (
    STABILITY_TOLERANCE,
    StabilityMap,
    period_factor,
    scan_region,
)


def test_format_float_six_significant_digits():
    assert format_float(1.8e-4) == "1.80000e-04"
    assert format_float(-2.905e-4) == "-2.90500e-04"
    assert format_float(0.0) == "0.00000e+00"


def kernel_strings(values):
    """The strings the rows of float_bytes(values) spell."""
    rows = float_bytes(np.array(values, dtype=float))
    assert rows.shape == (len(values), FLOAT_WIDTH)
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


# the edges of the kernel's float path: powers of ten and their neighbours,
# values that round up to the next power, the ends of its range, a
# subnormal, a signed zero, and an exact tie that rounds to even
POWERS = [10.0 ** k for k in range(-99, 100)]
FORMAT_EDGES = [
    *POWERS,
    *(math.nextafter(p, 0.0) for p in POWERS),
    *(math.nextafter(p, math.inf) for p in POWERS),
    *(0.9999995 * p for p in POWERS),
    9.999995e98, 1e-99, 5e-324, -0.0, 1234565.0,
]


def test_float_bytes_edges_match_format_float():
    values = FORMAT_EDGES + [-v for v in FORMAT_EDGES]
    assert kernel_strings(values) == [format_float(x) for x in values]


# values whose six digits round up to the next power of ten
round_ups = st.builds(lambda f, k: f * 10.0 ** k,
                      st.floats(0.9999995, 1.0, exclude_max=True),
                      st.integers(-98, 98))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(FORMAT_EDGES),
                          st.sampled_from([math.nan, math.inf, -math.inf]),
                          round_ups),
                max_size=40))
def test_float_bytes_match_format_float(values):
    assert kernel_strings(values) == [format_float(x) for x in values]


def test_float_bytes_seeded_sample_matches_format_float():
    # about 10^5 values: mantissas in [1, 10) at every exponent from
    # subnormal to 1e307, both signs, the 0.9999995 * 10^k values that
    # carry to the next power and their neighbours, signed zeros, inf and
    # nan; each row, ended by a newline, spells format_float's string
    rng = np.random.default_rng(20261020)
    sample = rng.uniform(1.0, 10.0, 90_000) * 10.0 ** rng.integers(
        -320, 308, 90_000)
    carries = 0.9999995 * 10.0 ** np.arange(-320.0, 308.0)
    values = np.concatenate([
        sample, carries, np.nextafter(carries, 0.0),
        np.nextafter(carries, np.inf), [0.0, np.inf, np.nan],
    ])
    values = np.concatenate([values, -values])
    rows = np.empty((values.size, FLOAT_WIDTH + 1), np.uint8)
    rows[:, :FLOAT_WIDTH] = float_bytes(values)
    rows[:, FLOAT_WIDTH] = ord("\n")
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    assert text == "".join(f"{format_float(x)}\n" for x in values.tolist())


def test_format_compact_two_significant_digits():
    assert format_compact(1.8e-4) == "1.8E-4"
    assert format_compact(0.000185025) == "1.9E-4"
    assert format_compact(2.0) == "2.0E0"
    assert format_compact(-4.9e-5) == "-4.9E-5"
    assert format_compact(1.23e12) == "1.2E12"


def synthetic_result():
    spec = advection_sweep(
        linear_advection(),
        [SchemeConfig.icn()],
        resolutions=(100, 200, 400),
    )
    rows = (
        ConvergenceRow(100, NormTriple(1.8e-4, 1.5e-5, 2.9e-4), None),
        ConvergenceRow(200, NormTriple(4.6e-5, 2.6e-6, 7.3e-5),
                       (1.96, 2.52, 1.99)),
        ConvergenceRow(400, None, None, failed=True),
    )
    return SweepResult(spec, (SchemeTable(SchemeConfig.icn(), rows),))


def test_sweep_csv_layout():
    text = sweep_csv(synthetic_result(), "l1")
    lines = text.splitlines()
    assert lines[0] == "scheme,resolution,l1,order"
    assert lines[1] == "icn,100,1.80000e-04,"
    assert lines[2] == "icn,200,4.60000e-05,1.96000e+00"
    assert lines[3] == "icn,400,DIVERGED,"
    assert text.endswith("\n")


def test_sweep_markdown_layout():
    text = sweep_markdown(synthetic_result(), "linf")
    lines = text.splitlines()
    assert lines[0] == "| N | icn Linf | order |"
    assert lines[2] == "| 100 | 2.9E-4 |  |"
    assert lines[3] == "| 200 | 7.3E-5 | 2.0 |"
    assert lines[4] == "| 400 | DIVERGED |  |"


def test_solution_csv_layout():
    grid = Grid1D(4)
    text = solution_csv(
        grid, np.array([0.0, 0.5, 1.0, 0.5]), np.array([0.0, 0.4, 1.0, 0.5])
    )
    lines = text.splitlines()
    assert lines[0] == "x,u_num,u_ref,error"
    assert lines[2] == "2.50000e-01,5.00000e-01,4.00000e-01,1.00000e-01"
    assert len(lines) == 5


def csv_text(stability_map):
    """The text of stability_csv's blocks, joined."""
    return b"".join(stability_csv(stability_map)).decode("ascii")


def synthetic_map():
    theta = np.array([0.0, 0.5, 1.0])
    beta = np.array([0.0, 1.0])
    modulus = np.array([[1.0, 1.0, 1.0], [0.5, 2.5, 1.0]])
    return StabilityMap(
        variant=SchemeVariant.GA,
        theta_axis=theta,
        beta_axis=beta,
        modulus=modulus,
        stable_mask=modulus <= 1.0 + 1e-12,
    )


def test_stability_csv_layout():
    lines = csv_text(synthetic_map()).splitlines()
    assert lines[0] == "theta,beta,g_modulus,stable"
    # theta-major ordering: both beta rows for theta = 0 come first
    assert lines[1] == "0.00000e+00,0.00000e+00,1.00000e+00,1"
    assert lines[2] == "0.00000e+00,1.00000e+00,5.00000e-01,1"
    assert lines[4] == "5.00000e-01,1.00000e+00,2.50000e+00,0"
    assert len(lines) == 7


def test_stability_pgm_layout():
    lines = stability_pgm(synthetic_map()).splitlines()
    assert lines[:3] == ["P2", "3 2", "255"]
    # top image row is beta_max: |g| = 0.5, 2.5 (clipped to 2), 1.0
    assert lines[3] == "64 255 128"
    assert lines[4] == "128 128 128"


def test_stability_pgm_rejects_a_nan_modulus():
    # 2x2, one NaN: the gray level would be cast from NaN
    modulus = np.array([[1.0, 0.5], [np.nan, 2.5]])
    stability_map = StabilityMap(
        variant=SchemeVariant.GA,
        theta_axis=np.array([0.0, 1.0]),
        beta_axis=np.array([0.0, 1.0]),
        modulus=modulus,
        stable_mask=modulus <= 1.0 + 1e-12,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            stability_pgm(stability_map)


def plain_stability_csv(stability_map):
    """One line per point, each value formatted as it is indexed: the
    reference for the byte-buffer renderer."""
    lines = ["theta,beta,g_modulus,stable"]
    for j, theta in enumerate(stability_map.theta_axis):
        for i, beta in enumerate(stability_map.beta_axis):
            stable = "1" if stability_map.stable_mask[i, j] else "0"
            lines.append(
                f"{format_float(theta)},{format_float(beta)},"
                f"{format_float(stability_map.modulus[i, j])},{stable}"
            )
    return "\n".join(lines) + "\n"


def plain_stability_pgm(stability_map):
    """One image row at a time from NumPy integers: the reference for the
    heatmap renderer."""
    clipped = np.minimum(stability_map.modulus, 2.0)
    gray = np.rint(255.0 * clipped / 2.0).astype(int)
    height, width = gray.shape
    lines = ["P2", f"{width} {height}", "255"]
    for row in gray[::-1]:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# values at the edges of the formats: inf, signed zeros, subnormals,
# moduli within 1e-12 of 1, on both sides of the stability tolerance, and
# one that rounds up to 1.00000e+00
EDGES = [math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308, 1.0,
         1.0 + STABILITY_TOLERANCE, math.nextafter(1.0 + STABILITY_TOLERANCE,
                                                   2.0), 2.0, 1.0 - 4e-7]
moduli = st.one_of(
    st.sampled_from(EDGES),
    st.floats(1.0 - 1e-12, 1.0 + 1e-12),
    st.floats(0.0, 1e-307),
    st.floats(0.0, math.inf),
)
axis_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -1e-310, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def stability_maps(draw):
    n_theta, n_beta = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    theta = draw(st.lists(axis_values, min_size=n_theta, max_size=n_theta))
    beta = draw(st.lists(axis_values, min_size=n_beta, max_size=n_beta))
    values = draw(st.lists(moduli, min_size=n_beta * n_theta,
                           max_size=n_beta * n_theta))
    modulus = np.array(values).reshape(n_beta, n_theta)
    return StabilityMap(
        variant=draw(st.sampled_from(list(SchemeVariant))),
        theta_axis=np.array(theta),
        beta_axis=np.array(beta),
        modulus=modulus,
        stable_mask=modulus <= 1.0 + STABILITY_TOLERANCE,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stability_maps())
def test_map_renderers_match_per_point_oracles(stability_map):
    assert csv_text(stability_map) == plain_stability_csv(stability_map)
    assert stability_pgm(stability_map) == plain_stability_pgm(stability_map)


@pytest.mark.parametrize("width", [7, 13, 20])
def test_stability_pgm_every_gray_level(width):
    # |g| = 2g/255 for every gray level g, then 2.5, inf and 0, repeated
    # to fill whole rows; at these widths rows end on cells of one, two
    # and three digits
    levels = np.concatenate([2.0 * np.arange(256) / 255.0,
                             [2.5, np.inf, 0.0]])
    height = -(-levels.size // width)
    modulus = np.resize(levels, (height, width))
    stability_map = StabilityMap(
        variant=SchemeVariant.GA,
        theta_axis=np.linspace(0.0, 1.0, width),
        beta_axis=np.linspace(0.0, 1.2, height),
        modulus=modulus,
        stable_mask=modulus <= 1.0 + STABILITY_TOLERANCE,
    )
    text = stability_pgm(stability_map)
    assert text == plain_stability_pgm(stability_map)
    rows = [line.split() for line in text.splitlines()[3:]]
    assert {int(cell) for row in rows for cell in row} == set(range(256))
    assert {len(row[-1]) for row in rows} == {1, 2, 3}


def block_lines(stability_map):
    """The lines of each of stability_csv's blocks after the header."""
    header, *blocks = stability_csv(stability_map)
    assert header == b"theta,beta,g_modulus,stable\n"
    assert all(block.endswith(b"\n") for block in blocks)
    return [block.count(b"\n") for block in blocks]


def test_stability_csv_blocks_of_a_121_point_map():
    # 24 theta rows of 121 points fit in a block: five full blocks, then
    # one row; each point still matches its oracle
    stability_map = scan_region("aa", resolution=121)
    assert block_lines(stability_map) == [24 * 121] * 5 + [121]
    assert csv_text(stability_map) == plain_stability_csv(stability_map)


def test_stability_csv_theta_row_longer_than_a_block():
    # 3000 points of up to 44 bytes are more than CSV_BLOCK: one theta row
    # a block, each whole
    beta = np.linspace(0.0, 1.2, 3000)
    modulus = np.hypot(*period_factor(SchemeVariant.GA, np.array([0.3, 0.7]),
                                      beta[:, None]))
    stability_map = StabilityMap(
        variant=SchemeVariant.GA,
        theta_axis=np.array([0.3, 0.7]),
        beta_axis=beta,
        modulus=modulus,
        stable_mask=modulus <= 1.0 + STABILITY_TOLERANCE,
    )
    assert 3000 * (3 * FLOAT_WIDTH + 5) > CSV_BLOCK
    assert block_lines(stability_map) == [3000, 3000]
    assert csv_text(stability_map) == plain_stability_csv(stability_map)
