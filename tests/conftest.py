import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from pensionlab import (
    MarketParams,
    MortalityTable,
    Preferences,
    gompertz_makeham,
    make_time_grid,
)


# the "gompertz" block of configs/*.json: median death age 87, death certain by 95
BUNDLED_GOMPERTZ = {"a": 0.0, "b": 8.888014533421656e-24, "c": 0.6}


@pytest.fixture(scope="session")
def base_market():
    return MarketParams(mu=0.062, r=0.027, sigma=0.15)


@pytest.fixture(scope="session")
def vnm_prefs():
    return Preferences(alpha=-1.0, rho=-1.0, b=0.0)


@pytest.fixture(scope="session")
def default_table():
    """The bundled configs' synthetic table on its 65..95 annual grid."""
    grid = make_time_grid(65.0, 1.0, 95.0)
    return grid, gompertz_makeham(**BUNDLED_GOMPERTZ, grid=grid)

@pytest.fixture(scope="session")
def mild_table():
    """A wide, realistic-spread table (annual, ages 65..120)."""
    grid = make_time_grid(65.0, 1.0, 121.0)
    table = gompertz_makeham(1e-4, 3e-5, 0.09, grid)
    return grid, table


def random_mortality(rng: np.random.Generator, grid) -> MortalityTable:
    """Random pmf on the grid with positive mass at the final point."""
    p = rng.dirichlet(np.ones(grid.n_steps) * 2.0)
    p[-1] = max(p[-1], 0.05)
    p /= p.sum()
    return MortalityTable(grid, p)



# exponents and discount rates of the properties that check the log-space
# pooled recursions against the linear loops of tests/oracle_pooled.py
EXPONENTS = st.floats(-8.0, -1e-3) | st.floats(1e-3, 0.95, exclude_max=True)
DISCOUNTS = st.sampled_from([0.0, 0.02, 0.1])


def run_child_python(code: str, **env: str) -> str:
    """stdout of ``python -c code`` with this checkout's pensionlab on its
    path.  The child gets no ``*_NUM_THREADS`` variable but those in `env`:
    importing pensionlab.cli in this process sets one here."""
    child = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=child, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout
