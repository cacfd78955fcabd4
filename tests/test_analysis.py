import math

import numpy as np
import pytest

from icnlab.analysis import (
    SweepSpec,
    advection_sweep,
    burgers_reference,
    burgers_sweep,
    error_norms,
    observed_order,
    run_sweep,
    steps_for,
)
from icnlab.core import Field, Grid1D
from icnlab.problems import (
    burgers,
    initial_condition,
    linear_advection,
    semilinear_advection,
)
from icnlab.schemes import SchemeConfig

ICN = SchemeConfig.icn()


def test_error_norms_hand_example():
    grid = Grid1D(4)
    reference = Field(grid, [1.0, 1.0, 1.0, 1.0])
    numerical = Field(grid, [1.3, 1.4, 1.0, 1.0])
    norms = error_norms(numerical, reference)
    assert norms.l1 == pytest.approx(0.175, abs=1e-15)
    assert norms.l2 == pytest.approx(0.125, abs=1e-15)
    assert norms.linf == pytest.approx(0.4, abs=1e-15)


def test_error_norms_identical_fields():
    grid = Grid1D(8)
    u = initial_condition(grid)
    norms = error_norms(u, u.copy())
    assert norms.l1 == norms.l2 == norms.linf == 0.0


def test_error_norms_grid_mismatch():
    with pytest.raises(ValueError, match="grid mismatch"):
        error_norms(
            Field(Grid1D(4), np.zeros(4)), Field(Grid1D(8), np.zeros(8))
        )


def test_error_norms_scaling():
    rng = np.random.default_rng(1)
    grid = Grid1D(32)
    u = Field(grid, rng.standard_normal(32))
    v = Field(grid, rng.standard_normal(32))
    base = error_norms(u, v)
    alpha = -3.7
    scaled = error_norms(
        u.with_values(alpha * u.values), v.with_values(alpha * v.values)
    )
    for key in ("l1", "l2", "linf"):
        assert scaled.get(key) == pytest.approx(
            abs(alpha) * base.get(key), rel=1e-14
        )


def test_error_norms_max_dominates_mean():
    rng = np.random.default_rng(2)
    grid = Grid1D(50)
    u = Field(grid, rng.standard_normal(50))
    v = Field(grid, rng.standard_normal(50))
    norms = error_norms(u, v)
    # on the unit domain l1 equals the mean absolute error
    assert norms.linf >= norms.l1


def test_observed_order_examples():
    order = observed_order(1.6e-3, 7.9e-4)
    assert order == pytest.approx(math.log2(1.6e-3 / 7.9e-4), rel=1e-15)
    assert order == pytest.approx(1.0, abs=0.1)
    assert observed_order(4.0e-4, 1.0e-4) == pytest.approx(2.0, abs=1e-12)
    assert observed_order(1.5e-5, 2.6e-6) == pytest.approx(2.5, abs=0.1)


def test_observed_order_undefined():
    with pytest.raises(ValueError, match="order undefined"):
        observed_order(0.0, 1e-5)
    with pytest.raises(ValueError, match="order undefined"):
        observed_order(1e-5, -1e-6)


def test_observed_order_rescale_invariance():
    a = observed_order(3.1e-4, 7.7e-5)
    b = observed_order(3.1e2, 7.7e1)
    assert a == pytest.approx(b, rel=1e-12)


def test_steps_for():
    assert steps_for(0.0, 0.1) == 0
    assert steps_for(0.5, 0.5 / 200) == 200
    with pytest.raises(ValueError, match="not reachable"):
        steps_for(1.0, 0.3)


def test_burgers_reference_time_zero():
    reference = burgers_reference(30, 1e-3, 0.0)
    assert np.array_equal(
        reference.values, initial_condition(Grid1D(30)).values
    )


def test_burgers_reference_maximum_principle():
    grid = Grid1D(30)
    delta = 0.5 * grid.dx**2
    reference = burgers_reference(30, delta / 32.0, 0.2)
    assert reference.values.min() >= 0.0
    assert reference.values.max() <= 1.0


def test_burgers_reference_self_convergence():
    # measured dt/32 vs dt/64 gap at t = 1 is 1.14e-9 (second order in dt)
    grid = Grid1D(30)
    delta = 0.5 * grid.dx**2
    r32 = burgers_reference(30, delta / 32.0, 1.0)
    r64 = burgers_reference(30, delta / 64.0, 1.0)
    gap = np.abs(r32.values - r64.values).max()
    assert gap <= 2e-9


def test_burgers_reference_cache_roundtrip(tmp_path):
    grid = Grid1D(30)
    delta = 0.5 * grid.dx**2
    fresh = burgers_reference(30, delta / 4.0, 0.25, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("burgers-ref-*.csv"))) == 1
    cached = burgers_reference(30, delta / 4.0, 0.25, cache_dir=tmp_path)
    assert np.array_equal(fresh.values, cached.values)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines[:20],
        lambda lines: lines[:5] + [lines[5].replace(",", "")] + lines[6:],
        lambda lines: ["x,v"] + lines[1:],
        lambda lines: lines[:3] + [lines[3].split(",")[0] + ",nan"]
        + lines[4:],
        lambda lines: lines[:3] + [lines[3] + ",1.0"] + lines[4:],
        lambda lines: lines + lines[-1:],
        lambda lines: [],
    ],
    ids=["truncated", "no-comma", "header", "nan", "three-cells",
         "extra-row", "empty"],
)
def test_burgers_reference_recomputes_corrupt_cache(tmp_path, corrupt):
    grid = Grid1D(30)
    delta = 0.5 * grid.dx**2
    fresh = burgers_reference(30, delta / 4.0, 0.125, cache_dir=tmp_path)
    (path,) = tmp_path.glob("burgers-ref-*.csv")
    good = path.read_text()
    lines = corrupt(good.splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    again = burgers_reference(30, delta / 4.0, 0.125, cache_dir=tmp_path)
    assert np.array_equal(again.values, fresh.values)
    assert path.read_text() == good
    assert not list(tmp_path.glob("*.tmp"))


def small_linear_spec():
    return advection_sweep(
        linear_advection(),
        [ICN, SchemeConfig.ga(0.6)],
        resolutions=(100, 200, 400),
    )


def test_run_sweep_deterministic():
    a = run_sweep(small_linear_spec())
    b = run_sweep(small_linear_spec())
    for ta, tb in zip(a.tables, b.tables):
        for ra, rb in zip(ta.rows, tb.rows):
            assert ra == rb


def test_run_sweep_first_row_has_no_order():
    result = run_sweep(small_linear_spec())
    for table in result.tables:
        assert table.rows[0].orders is None
        assert all(row.orders is not None for row in table.rows[1:])


def test_run_sweep_l2_order_offset():
    # the extra sqrt(dx) in the L2 definition lifts its order by 1/2
    result = run_sweep(small_linear_spec())
    for table in result.tables:
        for row in table.rows[1:]:
            l1_order, l2_order, _ = row.orders
            assert l2_order - l1_order == pytest.approx(0.5, abs=0.1)


def test_run_sweep_semilinear_published_value():
    result = run_sweep(
        advection_sweep(
            semilinear_advection(),
            [SchemeConfig.ga(0.6)],
            resolutions=(400,),
        )
    )
    row = result.tables[0].rows[0]
    assert row.norms.l1 == pytest.approx(3.5e-5, rel=0.15)
    assert row.orders is None


def test_run_sweep_burgers_published_value(burgers_small_result):
    # dt divisor 2 cell of the ICN column
    icn_rows = burgers_small_result.tables[0].rows
    assert icn_rows[1].norms.l1 == pytest.approx(7.3e-8, rel=0.2)


@pytest.fixture(scope="module")
def burgers_small_result():
    return run_sweep(
        burgers_sweep([ICN, SchemeConfig.aa(0.6)], dt_divisors=(1, 2))
    )


def test_run_sweep_burgers_divergence_marked():
    spec = burgers_sweep([ICN], dt_divisors=(1, 2), t_final=1.0, dt_base=0.1)
    result = run_sweep(spec)
    rows = result.tables[0].rows
    assert rows[0].failed and rows[0].norms is None and rows[0].orders is None
    # the sweep carries on past the failed cell
    assert len(rows) == 2 and not rows[1].failed
    assert np.isfinite(rows[1].norms.l1)


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        advection_sweep(
            linear_advection(), [ICN], resolutions=(200, 200)
        )
    with pytest.raises(ValueError, match="t_final"):
        advection_sweep(linear_advection(), [ICN], t_final=0.0)
    with pytest.raises(ValueError, match="at least one scheme"):
        advection_sweep(linear_advection(), [])
    with pytest.raises(ValueError, match="multiple of every dt divisor"):
        burgers_sweep([ICN], dt_divisors=(1, 5))
    with pytest.raises(ValueError, match="use burgers_sweep"):
        advection_sweep(burgers(), [ICN])
    with pytest.raises(ValueError, match="nonzero"):
        advection_sweep(linear_advection(0.0), [ICN])


@pytest.mark.parametrize(
    "make",
    [
        # dt = 0.3 dx: 0.5 / dt is not a whole number of steps
        lambda: advection_sweep(
            linear_advection(), [ICN], resolutions=(100, 200), cfl=0.3
        ),
        # reachable at divisor 2 but not at divisor 1
        lambda: burgers_sweep(
            [ICN], dt_divisors=(1, 2), t_final=0.0015, dt_base=0.001
        ),
    ],
)
def test_sweep_spec_rejects_unreachable_t_final(make):
    with pytest.raises(ValueError, match="not reachable"):
        make()


def test_sweep_spec_rejects_bad_grids_and_steps():
    with pytest.raises(ValueError, match="at least 4"):
        advection_sweep(linear_advection(), [ICN], resolutions=(2, 4))
    with pytest.raises(ValueError, match="at least 4"):
        burgers_sweep([ICN], n_cells=3)
    with pytest.raises(ValueError, match="positive"):
        burgers_sweep([ICN], dt_divisors=(0, 1))
    for dt_base in (0.0, -0.001):
        with pytest.raises(ValueError, match="dt_base must be positive"):
            burgers_sweep([ICN], dt_base=dt_base)


def test_sweep_spec_time_average_defaults():
    assert not small_linear_spec().effective_time_averaged
    assert burgers_sweep([ICN]).effective_time_averaged
    forced = SweepSpec(
        problem=linear_advection(),
        schemes=(ICN,),
        resolutions=(100,),
        t_final=0.5,
        time_averaged=True,
    )
    assert forced.effective_time_averaged
