"""Session fixtures shared by more than one test module."""
import pytest

from icnlab import analysis
from icnlab.analysis import burgers_sweep
from icnlab.core import Grid1D
from icnlab.schemes import SchemeConfig

# the default Burgers study's reference: N = 30, dt_base / 32, to t = 1
DEFAULT_BURGERS = burgers_sweep([SchemeConfig.icn()])
REFERENCE_ARGS = (
    Grid1D(DEFAULT_BURGERS.n_cells),
    DEFAULT_BURGERS.reference_dt,
    DEFAULT_BURGERS.t_final,
    DEFAULT_BURGERS.problem.viscosity,
)


@pytest.fixture(scope="session")
def burgers_t1_states():
    """The default Burgers reference every 4th fine step, the cadence of dt
    divisors (1, 2, 4, 8): its 57,600 steps integrated once per session."""
    return analysis._reference_trajectory(*REFERENCE_ARGS, 4)


@pytest.fixture(scope="session")
def burgers_cache(tmp_path_factory, burgers_t1_states):
    """A reference cache directory that the default Burgers sweeps at dt
    divisors (1, 2, 4, 8) and (1, 2) read, written by the library from
    ``burgers_t1_states`` and its every 4th row, in place of the batch that
    would integrate the reference alone.  A fine step's state does not
    depend on the cadence, so the sweeps read the bits they would
    integrate."""
    def strided(grid, dt_fine, steps, viscosity, cadence, states, cells):
        assert states is None and not cells
        return burgers_t1_states[cadence // 4 - 1::cadence // 4]

    cache = tmp_path_factory.mktemp("burgers-reference")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_burgers_batch", strided)
        for cadence in (4, 16):
            analysis._reference_trajectory(*REFERENCE_ARGS, cadence, cache)
    return cache
