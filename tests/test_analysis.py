import functools
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icnlab import analysis, output
from icnlab.analysis import (
    SweepSpec,
    advection_sweep,
    burgers_reference,
    burgers_sweep,
    observed_order,
    run_sweep,
    steps_for,
)
from icnlab.core import DivergenceError, Grid1D
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
    _run,
    integrate,
)
from scalar_ops import error_norms

ICN = SchemeConfig.icn()


def test_error_norms_hand_example():
    reference = np.array([1.0, 1.0, 1.0, 1.0])
    numerical = np.array([1.3, 1.4, 1.0, 1.0])
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
        error_norms(np.zeros(4), np.zeros(8))


def test_error_norms_scaling():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(32)
    v = rng.standard_normal(32)
    base = error_norms(u, v)
    alpha = -3.7
    scaled = error_norms(alpha * u, alpha * v)
    for key in ("l1", "l2", "linf"):
        assert scaled.get(key) == pytest.approx(
            abs(alpha) * base.get(key), rel=1e-14
        )


def test_error_norms_max_dominates_mean():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(50)
    v = rng.standard_normal(50)
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
    # a step count that overflows, or a step that underflowed to 0
    for t_final, dt in ((1e300, 1e-300), (0.5, 0.0)):
        with pytest.raises(ValueError, match="not reachable"):
            steps_for(t_final, dt)
    for t_final, dt in ((math.inf, 0.1), (math.nan, 0.1), (0.5, math.inf),
                        (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            steps_for(t_final, dt)


def test_burgers_reference_time_zero():
    reference = burgers_reference(30, 1e-3, 0.0)
    assert np.array_equal(reference, initial_condition(Grid1D(30)))


def test_burgers_reference_maximum_principle():
    grid = Grid1D(30)
    delta = 0.5 * grid.dx**2
    reference = burgers_reference(30, delta / 32.0, 0.2)
    assert reference.min() >= 0.0
    assert reference.max() <= 1.0


def test_burgers_reference_self_convergence(burgers_t1_states):
    # measured dt/32 vs dt/64 gap at t = 1 is 1.14e-9 (second order in dt);
    # the session's states are the dt/32 reference (tests/conftest.py)
    grid = Grid1D(30)
    delta = 0.5 * grid.dx**2
    r32 = burgers_t1_states[-1]
    r64 = burgers_reference(30, delta / 64.0, 1.0)
    gap = np.abs(r32 - r64).max()
    assert gap <= 2e-9


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
def test_burgers_reference_recomputes_corrupt_cache(tmp_path, monkeypatch,
                                                   corrupt):
    # the final-state CSV is derived from the trajectory and never read: a
    # rerun that takes its states from the .npy rewrites whatever the CSV
    # holds, byte for byte
    grid = Grid1D(30)
    args = (grid, 0.5 * grid.dx**2 / 4.0, 0.125, 0.01, 100, tmp_path)
    fresh = analysis._reference_trajectory(*args)
    (path,) = tmp_path.glob("burgers-ref-*.csv")
    good = path.read_text()
    lines = corrupt(good.splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    calls = count_integrations(monkeypatch)
    again = analysis._reference_trajectory(*args)
    assert calls == []
    assert again.tobytes() == fresh.tobytes()
    assert path.read_text() == good
    assert not list(tmp_path.glob("*.tmp"))


def test_write_files_nested_writes_keep_their_own_bytes(tmp_path):
    # a trajectory and its digest share a stem; the digest written while
    # the trajectory's temporary file is open, as a second process writing
    # the same cache might, must not take that file
    npy = tmp_path / "burgers-ref-every16.npy"
    digest = npy.with_suffix(".sha256")

    def trajectory():
        yield b"trajectory"
        output.write_files([("cache_dir", digest, "digest")])

    output.write_files([("cache_dir", npy, trajectory())])
    assert npy.read_bytes() == b"trajectory"
    assert digest.read_bytes() == b"digest"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "burgers-ref-every16.npy", "burgers-ref-every16.sha256"]


def count_integrations(monkeypatch):
    """Record the fine step of every reference integration: every batch
    that is not given the reference's states."""
    calls = []
    batch = analysis._burgers_batch

    def counting(grid, dt_fine, steps, viscosity, cadence, states=None,
                 cells=()):
        if states is None:
            calls.append(dt_fine)
        return batch(grid, dt_fine, steps, viscosity, cadence, states, cells)

    monkeypatch.setattr(analysis, "_burgers_batch", counting)
    return calls


def test_trajectory_file_matches_final_csv_and_fresh_run(tmp_path):
    # the persisted trajectory ends on the final state of the CSV written
    # beside it, and both equal what an uncached call integrates, bit for
    # bit
    grid = Grid1D(30)
    dt_fine = 0.5 * grid.dx**2 / 32
    analysis._reference_trajectory(grid, dt_fine, 0.015625, 0.01, 4,
                                   tmp_path)
    (npy,) = tmp_path.glob("burgers-ref-*-every4.npy")
    (csv,) = tmp_path.glob("burgers-ref-*.csv")
    states = np.load(npy, allow_pickle=False)
    assert states.shape == (225, 30)
    final = np.array([float(line.split(",")[1])
                      for line in csv.read_text().splitlines()[1:]])
    assert states[-1].tobytes() == final.tobytes()
    fresh = analysis._reference_trajectory(grid, dt_fine, 0.015625, 0.01, 4)
    assert fresh.shape == states.shape
    assert fresh.tobytes() == states.tobytes()
    alone = burgers_reference(30, dt_fine, 0.015625)
    assert alone.tobytes() == final.tobytes()


def test_trajectory_file_holds_np_saves_bytes(tmp_path):
    # the trajectory is written as its header and then its states' buffer,
    # byte for byte what np.save writes, so a cache that np.save wrote is a
    # hit
    grid = Grid1D(30)
    states = analysis._reference_trajectory(
        grid, 0.5 * grid.dx**2 / 32, 0.015625, 0.01, 4, tmp_path)
    (npy,) = tmp_path.glob("*.npy")
    saved = io.BytesIO()
    np.save(saved, states)
    assert npy.read_bytes() == saved.getvalue()


def test_states_digest_hashes_the_states_without_a_copy():
    # a C-ordered trajectory is hashed from its own buffer: a copy of this
    # one would take 864,000 bytes.  A Fortran-ordered one has the digest
    # of its states in C order.
    states = np.arange(3600 * 30, dtype=np.float64).reshape(3600, 30)
    expected = f"{hashlib.sha256(states.tobytes()).hexdigest()}\n".encode()
    assert analysis._states_digest(np.asfortranarray(states)) == expected
    tracemalloc.start()
    try:
        digest = analysis._states_digest(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == expected
    assert peak < 64 * 1024


def test_uncreatable_cache_dir_fails_before_the_batch(tmp_path, monkeypatch):
    # the cache directory is made before any read or batch, so a library
    # caller whose directory cannot be made integrates nothing
    def batch(*args, **kwargs):
        pytest.fail("the batch ran")
    monkeypatch.setattr(analysis, "_burgers_batch", batch)
    (tmp_path / "file").write_bytes(b"")
    spec = burgers_sweep([ICN], dt_divisors=(1, 2), t_final=0.004,
                         dt_base=0.001, cache_dir=tmp_path / "file" / "c")
    with pytest.raises(NotADirectoryError):
        run_sweep(spec)


def test_burgers_sweeps_without_cache_carry_no_state(monkeypatch):
    # the library keeps no reference between calls: each uncached sweep
    # integrates its own, and the two tables hold the same bits
    calls = count_integrations(monkeypatch)
    spec = burgers_sweep([ICN, SchemeConfig.aa(0.6)], dt_divisors=(1, 2),
                         t_final=0.004, dt_base=0.001)
    tables = []
    for _ in range(2):
        calls.clear()
        result = run_sweep(spec)
        assert calls == [spec.reference_dt]
        tables.append(np.array([
            [row.norms.get(k) for k in analysis.NORM_KEYS]
            for table in result.tables for row in table.rows
        ]).tobytes())
    assert tables[0] == tables[1]


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
def burgers_small_result(burgers_cache):
    return run_sweep(burgers_sweep([ICN, SchemeConfig.aa(0.6)],
                                   dt_divisors=(1, 2),
                                   cache_dir=burgers_cache))


def test_ga_third_burgers_table_is_below_icns(burgers_cache):
    # ga(1/3) is third order in time on linear problems and stays second
    # order on Burgers, with a smaller error constant: every cell of the
    # default table is below icn's (Linf at divisor 4: 1.3e-8, 9.7e-8)
    result = run_sweep(burgers_sweep([ICN, SchemeConfig.ga(1 / 3)],
                                     cache_dir=burgers_cache))
    icn, ga = result.tables
    for icn_row, ga_row in zip(icn.rows, ga.rows):
        for key in analysis.NORM_KEYS:
            assert ga_row.norms.get(key) < icn_row.norms.get(key), (
                icn_row.resolution_label, key)


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
    with pytest.raises(ValueError, match="at least one resolution"):
        advection_sweep(linear_advection(), [ICN], resolutions=())


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


@st.composite
def scheme_batches(draw):
    """A random subset of the five variants in random order, each with a
    random weight parameter."""
    variants = draw(st.lists(st.sampled_from(list(SchemeVariant)),
                             min_size=1, max_size=5, unique=True))
    configs = []
    for variant in variants:
        p = None if PARAMETER[variant] is None else draw(st.floats(0.05, 0.95))
        configs.append(SchemeConfig(variant, p))
    return configs


PROBLEMS = [linear_advection(), semilinear_advection(), burgers(0.01)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    schemes=scheme_batches(),
    problem=st.sampled_from(PROBLEMS),
    n=st.sampled_from([8, 30, 129, 300]),
    n_steps=st.integers(2, 6),
)
def test_batched_rows_match_integrate(schemes, problem, n, n_steps):
    # row k of one (K, N) run is integrate with schemes[k] alone, bit for
    # bit; two or more steps take every aa row through both parities.  At
    # N = 300 a batch of four or five rows copies its neighbours and one
    # row gathers them
    grid = Grid1D(n)
    dt = 0.5 * grid.dx if problem.has_exact else 0.5 * grid.dx**2
    u0 = initial_condition(grid)
    rows = len(schemes)
    final, diverged_at = _run(
        np.tile(u0, (rows, 1)), schemes,
        problem.array_rhs(grid, rows), dt, range(n_steps),
    )
    assert diverged_at.tolist() == [-1] * rows
    for k, scheme in enumerate(schemes):
        alone = integrate(u0, scheme, problem.array_rhs(grid), dt, n_steps)
        assert final[k].tobytes() == alone.tobytes(), scheme.label()


@functools.lru_cache(maxsize=1)
def sweep_reference(spec):
    """The reference states a Burgers sweep samples, and the lcm of its
    dt divisors: integrated once for all of the spec's cells."""
    sample_lcm = math.lcm(*spec.resolutions)
    reference = analysis._reference_trajectory(
        Grid1D(spec.n_cells), spec.reference_dt, spec.t_final,
        spec.problem.viscosity, analysis.REFERENCE_DIVISOR // sample_lcm,
    )
    return reference, sample_lcm


def per_cell(spec, scheme, resolution):
    """One cell run alone through integrate, with the norms reduced over
    one (N,) row at a time: an oracle for the batched sweep.  Returns the
    (l1, l2, linf) norms and None, or None and the step at which integrate
    reports divergence."""
    grid = Grid1D(spec.n_cells if spec.is_burgers else resolution)
    dt = spec.dt(resolution)
    steps = steps_for(spec.t_final, dt)

    def norms(e):
        return np.array([grid.dx * np.sum(np.abs(e)),
                         grid.dx * math.sqrt(np.sum(e * e)),
                         np.max(np.abs(e))])

    sums = np.zeros(3)
    observer = None
    if spec.is_burgers:
        # time-averaged against the reference
        reference, sample_lcm = sweep_reference(spec)
        stride = sample_lcm // resolution

        def observer(i, state):
            sums[:] += norms(state - reference[(i + 1) * stride - 1])
    try:
        final = integrate(initial_condition(grid), scheme,
                          spec.problem.array_rhs(grid), dt, steps, observer)
    except DivergenceError as err:
        return None, err.step_index
    if spec.is_burgers:
        return tuple(float(v / steps) for v in sums), None
    # one snapshot against the exact solution
    exact = spec.problem.exact_solution(grid.nodes(), spec.t_final)
    return tuple(float(v) for v in norms(final - exact)), None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    schemes=scheme_batches(),
    problem=st.sampled_from(PROBLEMS),
    multiple=st.integers(1, 4),
)
def test_run_sweep_matches_per_cell_oracle(schemes, problem, multiple):
    # the advection grids reach N = 200, where the row-wise sums take
    # numpy's pairwise branch (blocks of 128)
    if problem.has_exact:
        spec = SweepSpec(problem, schemes, (100, 200),
                         t_final=multiple * 0.005)
    else:
        spec = SweepSpec(problem, schemes, (1, 2), t_final=multiple * 0.001,
                         dt_base=0.001)
    result = run_sweep(spec)
    for scheme, table in zip(schemes, result.tables):
        for resolution, row in zip(spec.resolutions, table.rows):
            norms, step = per_cell(spec, scheme, resolution)
            got = None if row.norms is None else (
                row.norms.l1, row.norms.l2, row.norms.linf)
            assert (got, row.diverged_at) == (norms, step), scheme.label()


BLOCK = analysis.BLOCK


@pytest.mark.parametrize("dt_base, steps", [
    (0.001, BLOCK - 1),
    (0.001, BLOCK),
    (0.001, BLOCK + 1),
    (0.001, 2 * BLOCK + 1),
    # at divisor 1 theta, swapped and ga diverge after the first block
    (0.055, 2 * BLOCK + 1),
])
def test_run_sweep_burgers_blocks_match_per_cell_oracle(dt_base, steps):
    # the observer reduces its norms a block of BLOCK states at a time; the
    # cells must equal the per-step oracle across and at block edges, at
    # divisor 1 (steps) and 2 (2 steps), with rows that diverge mid-block
    spec = burgers_sweep(default_schemes(), dt_divisors=(1, 2),
                         t_final=steps * dt_base, dt_base=dt_base)
    result = run_sweep(spec)
    diverged = []
    for scheme, table in zip(spec.schemes, result.tables):
        for resolution, row in zip(spec.resolutions, table.rows):
            norms, step = per_cell(spec, scheme, resolution)
            got = None if row.norms is None else (
                row.norms.l1, row.norms.l2, row.norms.linf)
            assert (got, row.diverged_at) == (norms, step), scheme.label()
            if step is not None:
                diverged.append(step)
    if dt_base == 0.055:
        assert len(diverged) == 3 and min(diverged) >= BLOCK
        assert any(step % BLOCK for step in diverged)
    else:
        assert diverged == []


def assert_matches_per_cell(spec, result):
    """Every cell of a sweep's result equals the per-cell oracle, bit for
    bit; returns the (label, resolution) of the cells that diverged."""
    diverged = []
    for scheme, table in zip(spec.schemes, result.tables):
        for resolution, row in zip(spec.resolutions, table.rows):
            norms, step = per_cell(spec, scheme, resolution)
            got = None if row.norms is None else (
                row.norms.l1, row.norms.l2, row.norms.linf)
            assert (got, row.diverged_at) == (norms, step), (
                scheme.label(), resolution)
            if step is not None:
                diverged.append((scheme.label(), resolution))
    return diverged


@pytest.mark.parametrize("dt_divisors", [(1, 4, 32), (2, 8)],
                         ids=["1-4-32", "2-8"])
def test_run_sweep_burgers_batch_matches_per_cell_oracle(
    tmp_path, monkeypatch, dt_divisors
):
    # one batch steps the reference and every divisor's cells on the fine
    # clock, each row only when it is due; with gaps between the divisors
    # the coarsest due divisor's own step may be even while every finer
    # due row is at an odd one, so aa's parity is per row.  Divisor 32
    # steps with the reference at every fine step.  The warm rerun reads
    # the reference from the cache and runs on the finest divisor's clock.
    # Only theta(0.6) diverges, at divisor 1 (as in the golden case)
    spec = burgers_sweep(default_schemes() + [SchemeConfig.aa(0.3)],
                         dt_divisors=dt_divisors, t_final=0.9,
                         dt_base=0.09, cache_dir=tmp_path)
    calls = count_integrations(monkeypatch)
    for run, integrations in (("cold", 1), ("warm", 0)):
        calls.clear()
        result = run_sweep(spec)
        assert calls == [spec.reference_dt] * integrations, run
        diverged = assert_matches_per_cell(spec, result)
        expected = [("theta(0.6)", 1)] if 1 in dt_divisors else []
        assert diverged == expected, run


def default_schemes():
    return [SchemeConfig.icn(), SchemeConfig.theta_icn(0.6),
            SchemeConfig.swapped_theta_icn(0.6), SchemeConfig.ga(0.6),
            SchemeConfig.aa(0.6)]


@pytest.mark.parametrize(
    "spec",
    [
        # the golden mixed-divergence cases: only theta(0.6) diverges, at
        # N = 200 and at dt divisor 1
        advection_sweep(semilinear_advection(), default_schemes(),
                        resolutions=(100, 200), cfl=2.5),
        burgers_sweep(default_schemes(), dt_divisors=(1, 2), t_final=0.9,
                      dt_base=0.09),
    ],
    ids=["semilinear", "burgers"],
)
def test_diverged_at_matches_integrate_alone(spec):
    result = run_sweep(spec)
    failed = []
    for scheme, table in zip(spec.schemes, result.tables):
        for resolution, row in zip(spec.resolutions, table.rows):
            grid = Grid1D(spec.n_cells if spec.is_burgers else resolution)
            dt = spec.dt(resolution)
            try:
                integrate(initial_condition(grid), scheme,
                          spec.problem.array_rhs(grid), dt,
                          steps_for(spec.t_final, dt))
                expected = None
            except DivergenceError as err:
                expected = err.step_index
                failed.append((scheme.label(), resolution))
            assert row.diverged_at == expected
            assert row.failed == (expected is not None)
    assert len(failed) == 1 and failed[0][0] == "theta(0.6)"
