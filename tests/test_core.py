import importlib
import pkgutil

import numpy as np
import pytest

import pensionlab
from pensionlab.core import (
    ConfigurationError,
    MarketParams,
    Preferences,
    TimeGrid,
    make_time_grid,
)

from conftest import run_child_python


class TestTimeGrid:
    def test_two_point_grid(self):
        g = make_time_grid(0, 1, 2)
        assert g.n_steps == 2
        assert np.array_equal(g.points, [0.0, 1.0])
        assert g.T == 2.0

    def test_retirement_grid(self):
        g = make_time_grid(65, 1, 121)
        assert g.n_steps == 56
        assert g.points[-1] == 120.0

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            make_time_grid(0, 0.5, 1.2)

    def test_near_integral_ratio_rounded(self):
        g = make_time_grid(0.0, 0.1, 1.0)  # 10 steps despite float fuzz
        assert g.n_steps == 10

    def test_bad_steps(self):
        with pytest.raises(ConfigurationError):
            make_time_grid(0, -1, 2)
        with pytest.raises(ConfigurationError):
            make_time_grid(5, 1, 5)
        with pytest.raises(ConfigurationError):
            TimeGrid(t0=0, dt=1, n_steps=0)


class TestMarketAndPreferences:
    def test_sigma_positive(self):
        with pytest.raises(ConfigurationError):
            MarketParams(mu=0.05, r=0.02, sigma=0.0)

    @pytest.mark.parametrize("alpha,rho", [(0.0, -1.0), (1.0, -1.0), (-1.0, 0.0), (-1.0, 1.5)])
    def test_exponent_ranges(self, alpha, rho):
        with pytest.raises(ConfigurationError):
            Preferences(alpha=alpha, rho=rho)

    def test_negative_discount_rejected(self):
        with pytest.raises(ConfigurationError):
            Preferences(alpha=-1.0, rho=-1.0, b=-0.1)

    def test_beta_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = float(rng.uniform(0.0, 5.0))
            dt = float(rng.uniform(0.01, 3.0))
            beta = Preferences(alpha=-1.0, rho=-1.0, b=b).beta(dt)
            assert 0.0 < beta <= 1.0
        assert Preferences(alpha=-1.0, rho=-1.0, b=0.0).beta(1.0) == 1.0



@pytest.mark.parametrize(
    "name",
    sorted(m.name for m in pkgutil.iter_modules(pensionlab.__path__))
    + [pytest.param("", id="pensionlab")],
)
def test_every_exported_name_resolves(name):
    # a deleted function must not leave its name behind in __all__
    module = importlib.import_module(f"pensionlab.{name}" if name else "pensionlab")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_import_loads_no_numpy_and_keeps_the_environment():
    # numpy reads its BLAS thread settings once, when it loads, so a program
    # that imports pensionlab first must still get to choose them
    out = run_child_python(
        "import os, sys, pensionlab; "
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert out.split() == ["False", "False"]
