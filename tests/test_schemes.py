import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icnlab.core import DivergenceError, Grid1D, ParameterError
from icnlab.problems import (
    burgers,
    initial_condition,
    linear_advection,
    semilinear_advection,
)
from icnlab.schemes import (
    PARAMETER,
    SchemeConfig,
    SchemeVariant,
    _factors,
    _run,
    _step,
    integrate,
    period_coefficients,
)
from scalar_ops import (
    delta1_array,
    delta2_array,
    delta3_array,
    error_norms,
    linear_stencil,
    second_derivative_array,
)

LINEAR = linear_advection()
ICN = SchemeConfig.icn()


def one_step(u, f, dt, w1, s, w2):
    """One step with weights (w1, s, w2) for any f: _step on a copy of
    what f returns, as _run_row gives it."""
    return _step(u, lambda v: f(v).copy(), *_factors(dt, w1, s, w2))


def zero_rhs(u):
    return np.zeros_like(u)


def smooth_field(grid, seed=0):
    """Band-limited random data, periodic and smooth on the grid."""
    rng = np.random.default_rng(seed)
    x = grid.nodes()
    v = np.full(grid.n_cells, 0.5)
    for k in (1, 2, 3):
        a, b = rng.uniform(-0.3, 0.3, size=2)
        v += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    return v


def courant_dt(grid, courant, speed=1.0):
    # courant is R = a dt / (2 dx)
    return 2.0 * courant * grid.dx / speed


@pytest.mark.parametrize(
    "step",
    [
        lambda u: ICN.step(u, zero_rhs, 0.1),
        lambda u: SchemeConfig.theta_icn(1.0).step(u, zero_rhs, 0.1),
        lambda u: SchemeConfig.ga(0.7).step(u, zero_rhs, 0.1),
        lambda u: SchemeConfig.aa(0.3).step(u, zero_rhs, 0.1),
        lambda u: SchemeConfig.swapped_theta_icn(0.3).step(u, zero_rhs, 0.1),
    ],
)
def test_zero_rhs_is_identity(step):
    u = smooth_field(Grid1D(16), seed=1)
    assert np.array_equal(step(u), u)


def test_icn_hand_value():
    grid = Grid1D(4)
    u = np.array([0.0, 1.0, 0.0, -1.0])
    out = ICN.step(u, LINEAR.rhs, courant_dt(grid, 0.25))
    assert out[0] == pytest.approx(-0.46875, abs=1e-15)


def test_semilinear_zero_fixed_point():
    grid = Grid1D(8)
    u = np.zeros(8)
    out = ICN.step(u, semilinear_advection().rhs, 0.01)
    assert np.array_equal(out, np.zeros(8))


@pytest.mark.parametrize("swapped", [False, True])
def test_theta_half_equals_icn(swapped):
    grid = Grid1D(32)
    u = smooth_field(grid, seed=2)
    dt = courant_dt(grid, 0.25)
    a = ICN.step(u, LINEAR.rhs, dt)
    config = (SchemeConfig.swapped_theta_icn if swapped
              else SchemeConfig.theta_icn)
    b = config(0.5).step(u, LINEAR.rhs, dt)
    assert np.array_equal(a, b)


def test_theta_and_swapped_differ():
    grid = Grid1D(200)
    u = initial_condition(grid)
    dt = courant_dt(grid, 0.25)
    a = SchemeConfig.theta_icn(0.6).step(u, LINEAR.rhs, dt)
    b = SchemeConfig.swapped_theta_icn(0.6).step(u, LINEAR.rhs, dt)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert not np.array_equal(a, b)


def test_ga_half_matches_icn_trajectory():
    grid = Grid1D(64)
    dt = courant_dt(grid, 0.25)
    u_icn = u_ga = initial_condition(grid)
    for _ in range(20):
        u_icn = ICN.step(u_icn, LINEAR.rhs, dt)
        u_ga = SchemeConfig.ga(0.5).step(u_ga, LINEAR.rhs, dt)
    assert np.array_equal(u_icn, u_ga)


def test_aa_parity_alternation():
    grid = Grid1D(32)
    u = smooth_field(grid, seed=3)
    dt = courant_dt(grid, 0.2)
    aa = SchemeConfig.aa(0.6)
    two = aa.step(aa.step(u, LINEAR.rhs, dt, 0), LINEAR.rhs, dt, 1)
    manual = SchemeConfig.theta_icn(0.4).step(
        SchemeConfig.theta_icn(0.6).step(u, LINEAR.rhs, dt), LINEAR.rhs, dt
    )
    assert np.array_equal(two, manual)


def test_ga_step_matches_stencil():
    grid = Grid1D(8)
    u = smooth_field(grid, seed=4)
    courant = 0.25
    dt = courant_dt(grid, courant)
    staged = SchemeConfig.ga(0.6).step(u, LINEAR.rhs, dt)
    stencil = linear_stencil(u, courant, *SchemeConfig.ga(0.6).weights())
    scale = np.abs(stencil).max()
    assert np.abs(staged - stencil).max() <= 1e-13 * scale


def test_aa_step_matches_stencil():
    grid = Grid1D(8)
    u = smooth_field(grid, seed=5)
    courant = 0.25
    dt = courant_dt(grid, courant)
    staged = SchemeConfig.aa(0.6).step(u, LINEAR.rhs, dt)
    stencil = linear_stencil(u, courant, *SchemeConfig.aa(0.6).weights())
    scale = np.abs(stencil).max()
    assert np.abs(staged - stencil).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("theta", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("courant", [0.1, 0.25, 0.45])
def test_swapped_step_matches_stencil(n, theta, courant):
    # weights (theta, 1, 1 - theta) give
    # u - R d1 u + (1 - theta) R^2 d2 u - theta (1 - theta) R^3 d3 u
    grid = Grid1D(n)
    u = smooth_field(grid, seed=n)
    staged = SchemeConfig.swapped_theta_icn(theta).step(
        u, LINEAR.rhs, courant_dt(grid, courant)
    )
    stencil = (
        u
        - courant * delta1_array(u)
        + (1.0 - theta) * courant**2 * delta2_array(u)
        - theta * (1.0 - theta) * courant**3 * delta3_array(u)
    )
    scale = np.abs(stencil).max()
    assert np.abs(staged - stencil).max() <= 1e-13 * scale


def test_ga_stencil_constrained_coefficients():
    # with theta2 = 1/(4 theta1) the stencil is
    # u - R d1 u + (R^2/2) d2 u - (theta1 R^3 / 2) d3 u
    grid = Grid1D(16)
    u = smooth_field(grid, seed=6)
    rng = np.random.default_rng(7)
    courant = 0.3
    for theta1 in rng.uniform(0.3, 1.2, size=5):
        out = linear_stencil(u, courant, *SchemeConfig.ga(theta1).weights())
        direct = (
            u
            - courant * delta1_array(u)
            + 0.5 * courant**2 * delta2_array(u)
            - 0.5 * theta1 * courant**3 * delta3_array(u)
        )
        assert np.abs(out - direct).max() <= 1e-14


def test_aa_stencil_reduces_to_ga_at_half():
    grid = Grid1D(16)
    u = smooth_field(grid, seed=8)
    a = linear_stencil(u, 0.3, *SchemeConfig.aa(0.5).weights())
    b = linear_stencil(u, 0.3, *SchemeConfig.ga(0.5).weights())
    assert np.abs(a - b).max() <= 1e-15


def test_stencils_at_zero_courant():
    u = smooth_field(Grid1D(8), seed=9)
    for scheme in (SchemeConfig.ga(0.6), SchemeConfig.aa(0.6)):
        out = linear_stencil(u, 0.0, *scheme.weights())
        assert np.array_equal(out, u)


def test_stencil_preserves_constants():
    u = np.full(8, 1.3)
    out = linear_stencil(u, 0.4, *SchemeConfig.aa(0.7).weights())
    assert np.array_equal(out, u)


def test_integrate_zero_steps():
    u = smooth_field(Grid1D(8), seed=10)
    out = integrate(u, SchemeConfig.icn(), LINEAR.rhs, 0.1, 0)
    assert np.array_equal(out, u)


def test_state_validation():
    # a state is one row of nodal values, taken as floats, and error_norms
    # compares two states of one shape; neither is a parameter with a flag,
    # so both raise a plain ValueError.  Problem.rhs takes one state too:
    # on rows it would take each row's end neighbours from the next row
    u = [0, 1, 0, -1]
    dt = courant_dt(Grid1D(4), 0.25)
    out = ICN.step(u, LINEAR.rhs, dt)
    assert out.dtype == np.float64
    assert np.array_equal(out, ICN.step(np.array(u, float), LINEAR.rhs, dt))
    assert integrate(u, ICN, LINEAR.rhs, dt, 0).dtype == np.float64
    for problem in PROBLEMS:
        assert problem.rhs(u).tobytes() == problem.array_rhs(Grid1D(4))(
            np.array(u, float)).tobytes()
    for bad in (np.zeros((2, 8)), 1.0):
        for call in (lambda: integrate(bad, ICN, LINEAR.rhs, dt, 1),
                     lambda: ICN.step(bad, LINEAR.rhs, dt),
                     *(lambda p=p: p.rhs(bad) for p in PROBLEMS)):
            with pytest.raises(ValueError, match="one row") as info:
                call()
            assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="grid mismatch") as info:
        error_norms(np.zeros(4), np.zeros(8))
    assert type(info.value) is ValueError


def test_integrate_published_linear_l1():
    # snapshot error at t = 0.5 with CFL 0.5 (200 steps at N = 200)
    grid = Grid1D(200)
    dt = 0.5 * grid.dx
    expected = {"icn": 1.8e-4, "aa": 1.9e-4}
    schemes = {
        "icn": SchemeConfig.icn(),
        "aa": SchemeConfig.aa(0.6),
    }
    for name, scheme in schemes.items():
        final = integrate(initial_condition(grid), scheme, LINEAR.rhs, dt, 200)
        norms = error_norms(final, LINEAR.exact_solution(grid.nodes(), 0.5))
        assert norms.l1 == pytest.approx(expected[name], rel=0.15)


@pytest.mark.parametrize(
    "problem", [linear_advection(), burgers(0.01)]
)
def test_mass_conservation_per_step(problem):
    grid = Grid1D(64)
    u = initial_condition(grid)
    dt = 0.5 * grid.dx if problem.has_exact else 0.5 * grid.dx**2
    out = ICN.step(u, problem.rhs, dt)
    drift = abs(out.sum() - u.sum())
    assert drift <= 1e-12 * grid.n_cells * np.abs(u).max()


@pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf, -math.inf])
def test_integrate_and_step_reject_a_dt_that_is_not_positive_and_finite(dt):
    # one check for both: a negative dt would step backward in time, and a
    # nan or inf one is a usage error, not a divergence at step 0
    u = initial_condition(Grid1D(30))
    rhs = burgers(0.01).array_rhs(Grid1D(30))
    for run in (lambda: integrate(u, ICN, rhs, dt, 3),
                lambda: ICN.step(u, rhs, dt),
                lambda: SchemeConfig.aa(0.3).step(u, rhs, dt, step_index=1)):
        with pytest.raises(ParameterError,
                           match="dt must be positive and finite") as info:
            run()
        assert info.value.parameter == "dt"


def test_integrate_divergence_reports_step_index():
    grid = Grid1D(30)
    u = initial_condition(grid)
    with pytest.raises(DivergenceError, match="step diverged at step") as info:
        integrate(u, SchemeConfig.icn(), burgers(0.01).rhs, 0.2, 20)
    assert info.value.step_index is not None
    assert 0 <= info.value.step_index < 20


# values of p outside each variant's domain
OUT_OF_DOMAIN = {
    SchemeVariant.THETA_ICN: (-0.1, 1.5, np.nan),
    SchemeVariant.SWAPPED_THETA_ICN: (-0.1, 1.5, np.nan),
    SchemeVariant.GA: (0.0, -0.5, np.inf, np.nan),
    SchemeVariant.AA: (-0.1, 1.5, np.nan),
}


def test_scheme_config_validation():
    # p is given exactly when PARAMETER names one, and lies in its domain;
    # an error names the parameter as PARAMETER does
    for variant, name in PARAMETER.items():
        if name is None:
            with pytest.raises(ParameterError, match="takes no parameter"):
                SchemeConfig(variant, 0.5)
            continue
        with pytest.raises(ParameterError, match=f"requires {name}") as info:
            SchemeConfig(variant)
        assert info.value.parameter == name
        for p in OUT_OF_DOMAIN[variant]:
            with pytest.raises(ParameterError) as info:
                SchemeConfig(variant, p)
            assert info.value.parameter == name
        assert SchemeConfig(variant, 0.5).p == 0.5


def test_scheme_config_derived_weights():
    # ga's theta2 = 1/(4 theta1) and aa's theta_even = 1 - theta_odd
    assert SchemeConfig.ga(0.625).weights()[2] == 0.4
    assert SchemeConfig.aa(0.6).weights(1)[0] == pytest.approx(0.4, abs=0)


def test_scheme_config_labels():
    assert SchemeConfig.icn().label() == "icn"
    assert SchemeConfig.theta_icn(0.6).label() == "theta(0.6)"
    assert SchemeConfig.swapped_theta_icn(0.6).label() == "swapped(0.6)"
    assert SchemeConfig.ga(0.6).label() == "ga(0.6)"
    assert SchemeConfig.aa(0.6).label() == "aa(0.6)"


def test_scheme_config_takes_a_variant_name():
    # a name is stored as its SchemeVariant, so the config is the one its
    # constructor builds; an unknown name is an error naming the variant
    ga = SchemeConfig("ga", 0.6)
    assert ga.variant is SchemeVariant.GA
    assert ga == SchemeConfig.ga(0.6)
    assert ga.label() == "ga(0.6)"
    assert ga.weights()[2] == SchemeConfig.ga(0.6).weights()[2]
    assert SchemeConfig("icn").label() == "icn"
    with pytest.raises(ParameterError) as info:
        SchemeConfig("nope", 0.6)
    assert info.value.parameter == "variant"
    assert str(info.value) == ("'nope' is not one of icn, theta, swapped, "
                               "ga, aa")


FIVE_SCHEMES = [
    SchemeConfig.icn(),
    SchemeConfig.theta_icn(0.6),
    SchemeConfig.swapped_theta_icn(0.6),
    SchemeConfig.ga(0.6),
    SchemeConfig.aa(0.3),
]
PROBLEMS = [linear_advection(), semilinear_advection(), burgers(0.01)]


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.kind.value)
def test_ga_half_step_equals_icn_bitwise(problem):
    # ga(1/2) has the icn weights (1/2, 1, 1/2) exactly
    grid = Grid1D(30)
    u = initial_condition(grid)
    dt = 0.5 * grid.dx if problem.has_exact else 0.5 * grid.dx**2
    ga = SchemeConfig.ga(0.5).step(u, problem.rhs, dt)
    assert ga.tobytes() == ICN.step(u, problem.rhs, dt).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    w1=st.floats(0.0, 1.5),
    s=st.floats(0.0, 2.5),
    w2=st.floats(0.0, 1.5),
    courant=st.floats(0.0, 0.6),
    n=st.sampled_from([8, 17, 64]),
    seed=st.integers(0, 1000),
)
def test_kernel_matches_unified_stencil(w1, s, w2, courant, n, seed):
    # on u_t + a u_x = 0 with R = a dt / (2 dx), weights (w1, s, w2) give
    # u - R d1 u + s w2 R^2 d2 u - s w1 w2 R^3 d3 u
    grid = Grid1D(n)
    u = smooth_field(grid, seed=seed)
    dt = courant_dt(grid, courant)
    staged = one_step(u, LINEAR.array_rhs(grid), dt, w1, s, w2)
    stencil = (
        u
        - courant * delta1_array(u)
        + s * w2 * courant**2 * delta2_array(u)
        - s * w1 * w2 * courant**3 * delta3_array(u)
    )
    scale = np.abs(stencil).max()
    assert np.abs(staged - stencil).max() <= 1e-13 * scale


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.kind.value)
@pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=SchemeConfig.label)
def test_field_callable_matches_array_form(problem, scheme):
    # the array form (what icnlab run passes), Problem.rhs and a wrapped
    # callable give the same bits, through integrate and SchemeConfig.step
    grid = Grid1D(30)
    dt = 0.5 * grid.dx if problem.has_exact else 0.5 * grid.dx**2
    u0 = initial_condition(grid)
    forms = (problem.array_rhs(grid), problem.rhs, lambda u: problem.rhs(u))
    runs = [integrate(u0, scheme, rhs, dt, 7).tobytes() for rhs in forms]
    steps = [scheme.step(u0, rhs, dt, step_index=1).tobytes()
             for rhs in forms]
    assert runs[0] == runs[1] == runs[2]
    assert steps[0] == steps[1] == steps[2]


def plain_kernel(u, f, dt, w1, s, w2):
    """The step as plain expressions, each result a fresh array: the
    reference for the kernel's in-place form."""
    ut = u + dt * f(u)
    ub = w1 * ut + (1.0 - w1) * u
    ut = u + (s * dt) * f(ub)
    ub = w2 * ut + (1.0 - w2) * u
    return u + dt * f(ub)


@pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=SchemeConfig.label)
def test_kernel_never_writes_into_what_the_rhs_returns(scheme):
    # a callable that returns its input: f hands back the very array the
    # step passed in, so a kernel that updated what f returns in place
    # would overwrite its own state
    grid = Grid1D(30)
    u0 = initial_condition(grid)
    dt = 0.01
    got = integrate(u0, scheme, lambda u: u, dt, 5)
    u = u0
    for i in range(5):
        u = plain_kernel(u, lambda v: v, dt, *scheme.weights(i))
    assert got.tobytes() == u.tobytes()
    weights = scheme.weights(0)
    one = one_step(u0, lambda v: v, dt, *weights)
    assert one.tobytes() == plain_kernel(u0, lambda v: v, dt,
                                         *weights).tobytes()
    assert u0.tobytes() == initial_condition(grid).tobytes()


@pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=SchemeConfig.label)
def test_step_owns_a_copy_of_what_a_field_callable_returns(scheme):
    # a callable that returns the same held array on every call: the
    # step scales a copy of it, so the array stays as it was, through
    # integrate and through SchemeConfig.step alike
    grid = Grid1D(30)
    u0 = initial_condition(grid)
    held = np.cos(2.0 * np.pi * grid.nodes())
    kept = held.copy()
    dt = 0.01

    def rhs(u):
        return held

    got = integrate(u0, scheme, rhs, dt, 5)
    assert held.tobytes() == kept.tobytes()
    u = u0
    for i in range(5):
        u = plain_kernel(u, lambda v: kept, dt, *scheme.weights(i))
    assert got.tobytes() == u.tobytes()
    for parity in (0, 1):
        one = scheme.step(u0, rhs, dt, step_index=parity)
        assert held.tobytes() == kept.tobytes()
        assert one.tobytes() == plain_kernel(
            u0, lambda v: kept, dt, *scheme.weights(parity)
        ).tobytes()


def test_finite_check_survives_an_overflowing_sum():
    # every entry of rows of +-1e308 is finite though their sum is not, so
    # no row is marked as diverged, on K rows or on one
    u = np.array([[1e308] * 8, [1e308] * 8, [-1e308] * 8])
    zero = np.zeros_like
    for state in (u, u[0]):
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(state, None))
        schemes = [SchemeConfig.icn()] * len(np.atleast_2d(state))
        final, diverged_at = _run(state, schemes, zero, 0.1, range(3))
        assert (diverged_at == -1).all()
        assert final.tobytes() == state.tobytes()


ORACLE_WEIGHTS = {
    "icn": lambda i: (0.5, 1.0, 0.5),
    "theta(0.6)": lambda i: (0.6, 1.0, 0.6),
    "swapped(0.6)": lambda i: (0.6, 1.0, 1.0 - 0.6),
    "ga(0.6)": lambda i: (0.6, 2.0 * 0.6, 1.0 / (4.0 * 0.6)),
    "aa(0.3)": lambda i: (0.3, 1.0, 0.3) if i % 2 == 0 else (0.7, 1.0, 0.7),
}


def oracle_divergence_step(problem, label, u0, dt, n_steps):
    """First step whose output is not finite, checked after every step of
    plain expressions: a step-by-step reference for integrate."""
    u = u0
    for i in range(n_steps):
        w1, s, w2 = ORACLE_WEIGHTS[label](i)
        with np.errstate(over="ignore", invalid="ignore"):
            ut = u + dt * problem.rhs(u)
            ub = w1 * ut + (1.0 - w1) * u
            ut = u + (s * dt) * problem.rhs(ub)
            ub = w2 * ut + (1.0 - w2) * u
            out = u + dt * problem.rhs(ub)
        if not np.isfinite(out).all():
            return i
        u = out
    return None


@pytest.mark.parametrize(
    "problem,n,dt",
    [
        (burgers(0.01), 30, 0.2),
        (linear_advection(), 16, 0.25),
        (semilinear_advection(), 33, 0.2),
    ],
    ids=["burgers", "linear", "semilinear"],
)
@pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=SchemeConfig.label)
def test_divergence_step_matches_per_call_checks(problem, n, dt, scheme):
    u0 = initial_condition(Grid1D(n))
    expected = oracle_divergence_step(problem, scheme.label(), u0, dt, 2000)
    assert expected is not None
    # neither form of the rhs checks its input: the one per-step check
    # finds the step
    for rhs in (problem.array_rhs(Grid1D(n)), problem.rhs):
        with pytest.raises(DivergenceError) as info:
            integrate(u0, scheme, rhs, dt, 2000)
        assert info.value.step_index == expected


@pytest.mark.parametrize("scheme, parity", [
    (SchemeConfig.icn(), 0),
    (SchemeConfig.theta_icn(0.6), 0),
    (SchemeConfig.swapped_theta_icn(0.6), 0),
    (SchemeConfig.ga(0.6), 0),
    (SchemeConfig.aa(0.6), 0),
    (SchemeConfig.aa(0.6), 1),
], ids=["icn", "theta", "swapped", "ga", "aa-odd", "aa-even"])
def test_order_condition_oracle(scheme, parity):
    # one step of u' = L(u) = -u^2 from u = 1, against u = 1 / (1 + t):
    # a step with c2 = s w2 leaves the local error (c2 - 1/2) dt^2 L'L +
    # O(dt^3), and L'L = 2 u^3 = 2 here; second order needs c2 = 1/2
    dt = 1e-3
    step = one_step(np.array([1.0]), lambda v: -v * v, dt,
                    *scheme.weights(parity))
    fitted = (step[0] - 1.0 / (1.0 + dt)) / (2.0 * dt * dt)
    c2, _ = period_coefficients(scheme.variant, scheme.p)[parity]
    assert abs(fitted - (c2 - 0.5)) <= 1e-3


def minus_icn_remainder(scheme, step_index=0, dt=1e-4):
    """Step ``step_index`` of ``scheme`` minus icn's step, less its
    expansion to dt^3, in the max norm relative to the dt^3 term; on
    Burgers at N = 30 from u = sin^2(pi x).

    Burgers is nonlinear, so this tells averaging the states, as _step
    does, from averaging the right-hand sides, which gives the same step on
    any linear L.  Read as a Runge-Kutta method (schemes docstring), a step
    of coefficients (c2, c3) is u + dt f + c2 dt^2 J f + dt^3 (c3 J J f +
    c2^2 f''(f, f) / 2) + O(dt^4), J the Jacobian of L at u, and icn's has
    (1/2, 1/4).  For Burgers J v = -d1(u v) / (2 dx) + nu v_xx, v_xx by the
    rhs's three-point difference, and f''(v, v) = -d1(v^2) / (2 dx).  Below
    dt of about 5e-5 round-off in the difference of two steps dominates.
    """
    grid = Grid1D(30)
    problem = burgers()
    u = initial_condition(grid)
    w1, s, w2 = scheme.weights(step_index)
    c2, c3 = s * w2, s * w1 * w2

    def jacobian(v):
        return (-delta1_array(u * v) / (2.0 * grid.dx)
                + problem.viscosity * second_derivative_array(v, grid.dx))

    f = problem.rhs(u)
    got = (scheme.step(u, problem.rhs, dt, step_index)
           - ICN.step(u, problem.rhs, dt))
    third = dt ** 3 * ((c3 - 0.25) * jacobian(jacobian(f))
                       - 0.5 * (c2 * c2 - 0.25)
                       * delta1_array(f * f) / (2.0 * grid.dx))
    remainder = got - (c2 - 0.5) * dt ** 2 * jacobian(f) - third
    return np.abs(remainder).max() / np.abs(third).max()


def test_ga_minus_icn_third_order_oracle():
    # ga and icn differ only in c3, theta1 / 2 against 1/4; the
    # rhs-averaging step misses by about 20%.  2.6e-4 measured: the
    # O(dt^4) remainder
    assert minus_icn_remainder(SchemeConfig.ga(0.6)) <= 1e-3


@pytest.mark.parametrize("scheme, step_index, bound", [
    # each bound is about twice the remainder measured at dt = 1e-4
    (SchemeConfig.theta_icn(0.6), 0, 5e-4),  # 2.44e-4
    (SchemeConfig.swapped_theta_icn(0.6), 0, 4e-4),  # 1.60e-4
    (SchemeConfig.aa(0.6), 0, 5e-4),  # 2.44e-4, the theta(0.6) step
    (SchemeConfig.aa(0.6), 1, 5e-4),  # 2.03e-4, the theta(0.4) step
], ids=["theta", "swapped", "aa-odd", "aa-even"])
def test_step_minus_icn_third_order_oracle(scheme, step_index, bound):
    # ROADMAP item 4's per-variant expansion: c2 != 1/2 adds a dt^2 J f
    # term and, with c3, the f''(f, f) term at dt^3
    assert minus_icn_remainder(scheme, step_index) <= bound


@pytest.fixture(scope="module")
def burgers_orders():
    """Burgers to t = 0.2 on N = 30 at dt = dx^2 / (2 d), d = 1, 2, 4, 8, by
    icn, ga(0.4), ga(0.6), ga(0.8), theta(0.6) and swapped(0.6): the
    final states per d, one batch of six rows each (at most 2880 steps)."""
    grid = Grid1D(30)
    schemes = [ICN, SchemeConfig.ga(0.4), SchemeConfig.ga(0.6),
               SchemeConfig.ga(0.8), SchemeConfig.theta_icn(0.6),
               SchemeConfig.swapped_theta_icn(0.6)]
    finals = []
    for d in (1, 2, 4, 8):
        dt = grid.dx ** 2 / (2 * d)
        final, diverged_at = _run(
            np.tile(initial_condition(grid), (len(schemes), 1)), schemes,
            burgers().array_rhs(grid, len(schemes)), dt,
            range(round(0.2 / dt)),
        )
        assert (diverged_at == -1).all()
        finals.append(final)
    return finals


@pytest.mark.parametrize("difference, order", [
    # ga's error is affine in theta1 at order dt^2: the residual of the
    # midpoint is the dt^3 term, 1.89e-10 at d = 1 to 3.78e-13 at d = 8
    (lambda icn, g4, g6, g8, theta, swapped: g6 - (g4 + g8) / 2.0, 3),
    # theta's and swapped's first-order errors, +-(theta - 1/2), cancel in
    # their mean: 6.1e-7 to 9.5e-9
    (lambda icn, g4, g6, g8, theta, swapped: (theta + swapped) / 2.0 - icn,
     2),
    # and theta alone is first order: 1.9e-4 to 2.4e-5
    (lambda icn, g4, g6, g8, theta, swapped: theta - icn, 1),
], ids=["ga-affine-in-theta1", "theta-swapped-mirror", "theta-first-order"])
def test_burgers_global_orders(burgers_orders, difference, order):
    # ROADMAP item 4's global tests: the paper's order claims on the
    # nonlinear problem, with no reference solution; each halving of dt
    # divides the max norm by 2^order (measured within 0.03 of it)
    norms = [np.abs(difference(*final)).max() for final in burgers_orders]
    rates = [math.log2(a / b) for a, b in zip(norms, norms[1:])]
    assert rates == pytest.approx([order] * 3, abs=0.1), rates
