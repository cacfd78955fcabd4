import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icnlab.core import Grid1D, ParameterError
from icnlab.problems import linear_advection
from icnlab.schemes import SchemeConfig, SchemeVariant, _factors, _step
from icnlab.stability import (
    STABILITY_TOLERANCE,
    amplification,
    period_factor,
    scan_region,
)

GA = SchemeVariant.GA
THETA = SchemeVariant.THETA_ICN
AA = SchemeVariant.AA


def g(variant, p, beta):
    """The variant's factor over one period of its weights, as a complex."""
    return complex(*period_factor(variant, p, beta))


def test_g_ga_zero_mode():
    for theta1 in (0.1, 0.5, 1.0):
        assert g(GA, theta1, 0.0) == 1.0 + 0.0j
        assert abs(g(GA, theta1, 0.0)) == 1.0


def test_g_ga_marginal_point():
    assert g(GA, 0.5, 1.0) == pytest.approx(-1.0 + 0.0j, abs=1e-15)
    assert abs(g(GA, 0.5, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_g_ga_damped_point():
    assert g(GA, 0.4, 0.6) == pytest.approx(0.28 - 0.8544j, abs=1e-12)
    assert 0.88 <= abs(g(GA, 0.4, 0.6)) <= 0.92


def test_g_theta_step_zero_mode():
    assert g(THETA, 0.7, 0.0) == 1.0 + 0.0j


def test_g_theta_step_half_equals_g_ga():
    for beta in np.linspace(0.0, 1.2, 25):
        assert g(THETA, 0.5, beta) == g(GA, 0.5, beta)


def test_g_theta_step_example_point():
    assert g(THETA, 0.4, 0.6) == pytest.approx(0.424 - 0.92352j, abs=1e-12)
    assert abs(g(THETA, 0.4, 0.6)) == pytest.approx(1.0162, abs=1e-3)


def test_g_aa_composed_zero_mode():
    assert g(AA, 0.3, 0.0) == 1.0 + 0.0j


def test_g_aa_composed_band():
    modulus = abs(g(AA, 0.4, 0.6))
    assert 0.5 <= modulus <= 0.7
    assert modulus == pytest.approx(0.6033, abs=1e-3)


def test_g_aa_composed_is_product_of_parts():
    for beta in (0.0, 0.3, 0.77, 1.2):
        composed = g(AA, 0.4, beta)
        product = g(THETA, 0.4, beta) * g(THETA, 0.6, beta)
        assert composed == product


def test_g_aa_composed_complement_exact():
    for theta in np.linspace(0.0, 1.0, 241):
        for beta in (0.15, 0.6, 1.05):
            assert abs(g(AA, theta, beta)) == abs(g(AA, 1.0 - theta, beta))


def test_aa_damps_more_than_ga_at_example_point():
    assert abs(g(AA, 0.4, 0.6)) < abs(g(GA, 0.4, 0.6))


def test_scan_ga_half_column_boundary():
    scan = scan_region("ga")
    j = int(np.where(scan.theta_axis == 0.5)[0][0])
    for i, beta in enumerate(scan.beta_axis):
        expected = beta <= 1.0 + 1e-9
        assert scan.stable_mask[i, j] == expected, f"beta={beta}"


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_scan_fills_the_map_with_per_point_factors(variant):
    # a theta row against a beta column: icn's factor has no theta, yet
    # its map has the full (beta, theta) shape, and every point is the
    # scalar factor's modulus bit for bit
    scan = scan_region(variant, (0.1, 0.9), (0.0, 1.5), resolution=7)
    assert scan.modulus.shape == scan.stable_mask.shape == (7, 7)
    for i, beta in enumerate(scan.beta_axis.tolist()):
        for j, theta in enumerate(scan.theta_axis.tolist()):
            assert scan.modulus[i, j] == abs(g(variant, theta, beta))
    assert np.array_equal(scan.stable_mask,
                          scan.modulus <= 1.0 + STABILITY_TOLERANCE)
    if variant is SchemeVariant.ICN:
        assert (scan.modulus == scan.modulus[:, :1]).all()


def test_scan_zero_beta_row():
    for variant in ("ga", "aa"):
        scan = scan_region(variant, resolution=41)
        assert np.all(scan.modulus[0, :] == 1.0)
        assert np.all(scan.stable_mask[0, :])


def test_scan_aa_mirror_symmetry_exact():
    scan = scan_region("aa", resolution=81)
    n = len(scan.theta_axis)
    for k in range(n // 2):
        assert np.array_equal(scan.modulus[:, k], scan.modulus[:, n - 1 - k])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lo=st.floats(-1.0, 0.5),
    beta=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted),
    resolution=st.integers(2, 41),
)
def test_scan_aa_mirror_symmetry_property(lo, beta, resolution):
    # any theta range symmetric about 1/2 in floating point gives a map
    # whose columns mirror bit for bit
    hi = 1.0 - lo
    assume(lo + hi == 1.0)
    scan = scan_region("aa", (lo, hi), tuple(beta), resolution)
    assert scan.modulus.tobytes() == scan.modulus[:, ::-1].tobytes()


def test_scan_theta_axis_complement_exact():
    scan = scan_region("aa", resolution=80)
    ax = scan.theta_axis
    n = len(ax)
    for k in range(n // 2):
        assert ax[n - 1 - k] == 1.0 - ax[k]


def test_scan_neighbor_jump_bounds():
    # |g| slope over the default window: comfortably below 50 for the ga
    # map; the composed aa factor is steeper near (theta in {0,1}, beta_max)
    # where the true slope reaches ~115, so its check uses 120.
    for variant, bound in (("ga", 50.0), ("aa", 120.0)):
        scan = scan_region(variant, resolution=61)
        dtheta = scan.theta_axis[1] - scan.theta_axis[0]
        dbeta = scan.beta_axis[1] - scan.beta_axis[0]
        jump_theta = np.abs(np.diff(scan.modulus, axis=1)).max()
        jump_beta = np.abs(np.diff(scan.modulus, axis=0)).max()
        assert jump_theta <= bound * dtheta
        assert jump_beta <= bound * dbeta


def test_scan_degenerate_beta_range():
    scan = scan_region("ga", beta_range=(0.0, 0.0), resolution=5)
    assert np.all(scan.modulus == 1.0)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_region("no-such-variant")
    with pytest.raises(ParameterError, match="'nope' is not one of") as info:
        scan_region("nope")
    assert info.value.parameter == "variant"
    with pytest.raises(ValueError):
        scan_region("ga", resolution=1)
    with pytest.raises(ValueError):
        scan_region("ga", theta_range=(1.0, 0.0))


def test_stable_mask_threshold():
    scan = scan_region("ga", resolution=31)
    assert np.array_equal(
        scan.stable_mask, scan.modulus <= 1.0 + STABILITY_TOLERANCE
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    theta=st.floats(0.05, 0.95),
    courant=st.floats(0.05, 0.6),
    n=st.sampled_from([8, 17, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_dft_matches_amplification(theta, courant, n, seed):
    # empirical von Neumann check: mode m of one kernel step on random data
    # grows by g at beta = R sin(2 pi m / N), with (c2, c3) = (s w2, s w1 w2)
    grid = Grid1D(n)
    problem = linear_advection()
    dt = 2.0 * courant * grid.dx
    u = np.random.default_rng(seed).standard_normal(n)
    beta = courant * np.sin(2.0 * np.pi * np.arange(n) / n)
    aa = SchemeConfig.aa(theta)
    weights = [
        SchemeConfig.icn().weights(),
        SchemeConfig.theta_icn(theta).weights(),
        SchemeConfig.swapped_theta_icn(theta).weights(),
        SchemeConfig.ga(theta).weights(),
        aa.weights(0),
        aa.weights(1),
    ]
    f = problem.array_rhs(grid)
    for w1, s, w2 in weights:
        # one step for any f: _step on a copy of what f returns
        step = _step(u, lambda v: f(v).copy(), *_factors(dt, w1, s, w2))
        ratio = np.fft.fft(step) / np.fft.fft(u)
        re, im = amplification(s * w2, s * w1 * w2, beta)
        assert np.abs(ratio - (re + 1j * im)).max() <= 1e-12, (w1, s, w2)


@pytest.mark.parametrize(
    "theta_range, beta_range, resolution",
    [((0.0, 1.0), (0.0, 1.2), 41), ((0.15, 1.35), (0.3, 0.95), 23)],
    ids=["default-41", "asymmetric-23"],
)
# the ids are those the suite has long reported, kept so runs compare
@pytest.mark.parametrize("variant", [
    pytest.param(SchemeVariant.GA, id="ga-g_ga"),
    pytest.param(SchemeVariant.AA, id="aa-g_aa_composed"),
    pytest.param(SchemeVariant.THETA_ICN, id="theta-g_theta_step"),
    pytest.param(SchemeVariant.ICN, id="icn-g_icn"),
    pytest.param(SchemeVariant.SWAPPED_THETA_ICN, id="swapped-g_swapped"),
])
def test_scan_matches_scalar_factors_bitwise(
    variant, theta_range, beta_range, resolution
):
    # icn's factor is the same at every theta of the map
    scan = scan_region(variant, theta_range, beta_range, resolution)
    expected = np.array([
        [abs(g(variant, theta, beta)) for theta in scan.theta_axis]
        for beta in scan.beta_axis
    ])
    assert scan.modulus.tobytes() == expected.tobytes()


def test_icn_map_is_ga_half_column():
    ga = scan_region("ga", resolution=41)
    icn = scan_region("icn", resolution=41)
    j = int(np.where(ga.theta_axis == 0.5)[0][0])
    column = ga.modulus[:, j].tobytes()
    assert all(icn.modulus[:, k].tobytes() == column for k in range(41))


def test_swapped_map_shows_weak_instability():
    # at theta = 0.6 and CFL 0.5 (R = 1/4) swapped's worst mode gains about
    # 1.5% per step, where theta, its mirror image, is stable
    window = dict(theta_range=(0.6, 0.6), beta_range=(0.0, 0.25))
    swapped = scan_region("swapped", resolution=101, **window)
    theta = scan_region("theta", resolution=101, **window)
    assert swapped.modulus.max() == pytest.approx(1.0153, abs=1e-4)
    assert theta.modulus.max() <= 1.0

