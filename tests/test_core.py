import numpy as np
import pytest

from icnlab.core import Grid1D, PeriodicShifts
from scalar_ops import (
    delta1,
    delta1_array,
    delta2,
    delta2_array,
    delta3,
    delta3_array,
    second_derivative,
    second_derivative_array,
    wrap_index,
)


def state(values):
    return np.asarray(values, dtype=float)


@pytest.mark.parametrize("j,n,expected", [(5, 4, 1), (-1, 4, 3), (0, 4, 0)])
def test_wrap_index_examples(j, n, expected):
    assert wrap_index(j, n) == expected


def test_wrap_index_total():
    for n in (1, 2, 4, 7):
        for j in range(-3 * n, 3 * n + 1):
            w = wrap_index(j, n)
            assert 0 <= w < n
            assert (j - w) % n == 0


def test_delta1_examples():
    assert delta1(state([1, 2, 3, 4]), 0) == -2.0
    assert delta1(state([7, 7, 7, 7]), 2) == 0.0
    assert delta1(state([0, 1, 0, -1]), 0) == 2.0


def test_delta2_examples():
    assert delta2(state([3, 3, 3, 3]), 1) == 0.0
    assert delta2(state([0, 1, 0, -1]), 0) == 0.0
    assert delta2(state([1, 0, 0, 0, 0, 0]), 0) == -2.0


def test_delta3_examples():
    assert delta3(state([2, 2, 2, 2]), 3) == 0.0
    assert delta3(state([0, 1, 0, -1]), 0) == -8.0
    # affine data on a non-wrapping interior stencil is annihilated
    assert delta3(state(np.arange(8.0)), 4) == 0.0


def test_second_derivative_examples():
    assert second_derivative(state([5, 5, 5, 5]), 1, 0.25) == 0.0
    osc = state([0, 1, 0, -1, 0, 1, 0, -1])
    assert second_derivative(osc, 1, 1.0 / 8.0) == -128.0
    grid = Grid1D(8)
    quad = grid.nodes() ** 2
    assert second_derivative(quad, 4, grid.dx) == 2.0


@pytest.mark.parametrize(
    "scalar,vector",
    [
        (delta1, delta1_array),
        (delta2, delta2_array),
        (delta3, delta3_array),
    ],
)
def test_scalar_matches_array(scalar, vector):
    rng = np.random.default_rng(7)
    u = state(rng.standard_normal(16))
    out = vector(u)
    for j in range(16):
        assert scalar(u, j) == out[j]


def test_second_derivative_scalar_matches_array():
    rng = np.random.default_rng(8)
    u = state(rng.standard_normal(12))
    out = second_derivative_array(u, 0.1)
    for j in range(12):
        assert second_derivative(u, j, 0.1) == out[j]


@pytest.mark.parametrize("n", [4, 5, 30, 204, 205, 1023, 1024, 1600])
def test_gather_operators_match_roll_forms(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    shifts = PeriodicShifts(n)
    neighbours = shifts.gather(v)
    assert neighbours.shape == (2, n)
    plus, minus = neighbours
    assert np.array_equal(plus, np.roll(v, -1))
    assert np.array_equal(minus, np.roll(v, 1))
    assert np.array_equal(plus - minus, delta1_array(v))
    dx = 1.0 / n
    assert np.array_equal(
        (plus - 2.0 * v + minus) / (dx * dx),
        second_derivative_array(v, dx),
    )
    # (K, N) rows: gather acts on each row as np.roll on axis -1
    for rows in (1, 5):
        v = rng.standard_normal((rows, n))
        shifts = PeriodicShifts(n, rows)
        neighbours = shifts.gather(v)
        assert neighbours.shape == (2, rows, n)
        assert np.array_equal(neighbours[0], np.roll(v, -1, axis=-1))
        assert np.array_equal(neighbours[1], np.roll(v, 1, axis=-1))


@pytest.mark.parametrize("n, rows", [
    (4, None), (4, 5), (1023, None), (1024, None), (204, 5), (205, 5),
])
def test_difference_matches_delta1(n, rows):
    # bit for bit, with inf and nan at the row ends, whose entries the flat
    # subtraction takes across a row end and difference redoes, and inside
    # the rows
    rng = np.random.default_rng(n)
    shape = (n,) if rows is None else (rows, n)
    v = rng.standard_normal(shape)
    v2 = v.reshape(-1, n)
    v2[0, 0], v2[0, -1], v2[0, n // 2] = np.inf, np.nan, -np.inf
    v2[-1, 1], v2[-1, -2] = np.nan, np.inf
    shifts = PeriodicShifts(n, rows)
    with np.errstate(invalid="ignore"):
        got = shifts.difference(v)
        expected = [delta1_array(row) for row in v2]
    assert got.shape == shape
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("op", [delta1_array, delta2_array, delta3_array])
@pytest.mark.parametrize("shift", [1, 3, 7])
def test_shift_equivariance_exact(op, shift):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(16)
    assert np.array_equal(op(np.roll(v, shift)), np.roll(op(v), shift))


@pytest.mark.parametrize("op", [delta1_array, delta2_array, delta3_array])
def test_telescoping_sum(op):
    rng = np.random.default_rng(13)
    for n in (8, 64, 257):
        v = rng.standard_normal(n)
        assert abs(op(v).sum()) <= 1e-12 * n * np.abs(v).max()


@pytest.mark.parametrize("op", [delta1_array, delta2_array, delta3_array])
def test_linearity(op):
    rng = np.random.default_rng(17)
    u = rng.standard_normal(32)
    v = rng.standard_normal(32)
    a, b = 1.7, -0.3
    lhs = op(a * u + b * v)
    rhs = a * op(u) + b * op(v)
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(scale, 1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(3)
    # the interval is [0, 1) for every problem, not a setting
    with pytest.raises(TypeError):
        Grid1D(8, x_max=1.5)
    grid = Grid1D(4)
    assert grid.dx == 0.25
    assert np.array_equal(grid.nodes(), [0.0, 0.25, 0.5, 0.75])
