import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icnlab.core import Grid1D
from icnlab.problems import (
    Problem,
    ProblemKind,
    burgers,
    initial_condition,
    linear_advection,
    semilinear_advection,
)
from scalar_ops import delta1_array, second_derivative_array


def test_linear_rhs_constant_field():
    out = linear_advection().rhs(np.full(8, 3.0))
    assert np.array_equal(out, np.zeros(8))


def test_linear_rhs_hand_value():
    u = np.array([0.0, 1.0, 0.0, -1.0])
    out = linear_advection().rhs(u)
    assert out[0] == -4.0


def test_semilinear_rhs_constant_field():
    c = 0.7
    out = semilinear_advection().rhs(np.full(8, c))
    assert np.allclose(out, -c * c, rtol=0, atol=1e-15)


def test_burgers_rhs_constant_field():
    out = burgers(0.01).rhs(np.full(8, 0.4))
    assert np.array_equal(out, np.zeros(8))


def test_exact_solution_examples():
    assert linear_advection().exact_solution(0.5, 0.5) == pytest.approx(
        0.0, abs=1e-30
    )
    semi = semilinear_advection()
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(
        semi.exact_solution(x, 0.0), np.sin(np.pi * x) ** 2, atol=1e-15
    )
    assert semi.exact_solution(1.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_exact_solution_periodicity():
    for problem in (linear_advection(), semilinear_advection()):
        for x in (0.0, 0.21, 0.5, 0.93):
            for t in (0.0, 0.4, 1.0):
                assert problem.exact_solution(x, t) == pytest.approx(
                    problem.exact_solution(x + 1.0, t), abs=1e-15
                )


def test_linear_exact_full_period():
    grid = Grid1D(64)
    u0 = initial_condition(grid)
    u1 = linear_advection().exact_solution(grid.nodes(), 1.0)
    assert np.allclose(u0, u1, rtol=0, atol=1e-15)


def test_initial_condition():
    assert np.allclose(
        initial_condition(Grid1D(4)), [0.0, 0.5, 1.0, 0.5], atol=1e-16
    )
    values = initial_condition(Grid1D(33))
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_rhs_translation_equivariance():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(16)
    for problem in (linear_advection(), semilinear_advection(), burgers()):
        shifted = problem.rhs(np.roll(v, 5))
        rolled = np.roll(problem.rhs(v), 5)
        assert np.array_equal(shifted, rolled)


@pytest.mark.parametrize("problem", [linear_advection(), burgers(0.05)])
def test_rhs_conservation(problem):
    rng = np.random.default_rng(5)
    grid = Grid1D(64)
    v = rng.standard_normal(64)
    out = problem.rhs(v)
    assert abs(out.sum() * grid.dx) <= 1e-12 * np.abs(v).max()


def test_burgers_has_no_exact_solution():
    problem = burgers()
    assert not problem.has_exact
    with pytest.raises(ValueError, match="no closed-form exact solution"):
        problem.exact_solution(0.3, 0.5)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(ProblemKind.BURGERS, viscosity=0.0)
    assert burgers(0.01).viscosity == 0.01


def roll_rhs(problem, v, dx):
    """L(v) for one row as the plain np.roll statement of each problem: the
    oracle for array_rhs."""
    if problem.kind is ProblemKind.LINEAR_ADVECTION:
        return -delta1_array(v) / (2.0 * dx)
    if problem.kind is ProblemKind.SEMILINEAR_ADVECTION:
        return -delta1_array(v) / (2.0 * dx) - v * v
    flux = 0.5 * v * v
    return -delta1_array(flux) / (2.0 * dx) + problem.viscosity * (
        second_derivative_array(v, dx)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    problem=st.sampled_from([linear_advection(), semilinear_advection(),
                             burgers(), burgers(0.3)]),
    n=st.sampled_from([4, 5, 30, 129, 205, 1024]),
    rows=st.sampled_from([None, 1, 5]),
    decades=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_rhs_matches_roll_forms(problem, n, rows, decades, seed):
    # bit for bit, on one row and on K rows, from 4 to 5 * 1024 values per
    # call, for states of both signs whose magnitudes spread over up to six
    # decades
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(
        -decades / 2, decades / 2, shape
    )
    grid = Grid1D(n)
    got = problem.array_rhs(grid, rows)(v)
    expected = [roll_rhs(problem, row, grid.dx) for row in v.reshape(-1, n)]
    assert got.shape == shape
    assert got.tobytes() == np.array(expected).tobytes()
