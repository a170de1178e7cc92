import ast
import dataclasses
import importlib
import io
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import pensionlab
from pensionlab.analytics import consumption_drift, wealth_schedule
from pensionlab.core import (
    ConfigurationError,
    MarketParams,
    Preferences,
    TimeGrid,
    make_time_grid,
)
from pensionlab.montecarlo import SimulationConfig
from pensionlab.mortality import (
    MortalityTable,
    annuity_factor,
    gompertz_makeham,
    load_mortality_csv,
)
from pensionlab.solver import CollectiveMode, Strategy, optimal_proportion, solve
from pensionlab.studies import run_scenarios

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


# each value is rejected where it is built, with an error naming it; a
# NaN or infinity let through fails later as divergence or NaN results
_GRID = make_time_grid(0, 1, 3)
_MARKET = MarketParams(mu=0.05, r=0.02, sigma=0.15)
_PREFS = Preferences(alpha=-1.0, rho=-1.0)
_STRATEGY = Strategy(CollectiveMode.infinite(), a=np.zeros(3), c=np.full((1, 3), 0.5))
NON_FINITE = {
    "grid-dt-nan": (lambda: TimeGrid(t0=0.0, dt=math.nan, n_steps=3), "grid dt"),
    "grid-t0-inf": (lambda: TimeGrid(t0=math.inf, dt=1.0, n_steps=3), "grid t0"),
    "grid-steps-fraction": (lambda: TimeGrid(t0=0.0, dt=1.0, n_steps=2.5), "n_steps"),
    "grid-steps-bool": (lambda: TimeGrid(t0=0.0, dt=1.0, n_steps=True), "n_steps"),
    "preferences-b-nan": (lambda: Preferences(-1.0, -1.0, b=math.nan), "discount rate b"),
    "preferences-b-inf": (lambda: Preferences(-1.0, -1.0, b=math.inf), "discount rate b"),
    "preferences-alpha-minus-inf": (lambda: Preferences(-math.inf, -1.0), "alpha"),
    "preferences-rho-minus-inf": (lambda: Preferences(-1.0, -math.inf), "rho"),
    "market-mu-nan": (lambda: MarketParams(mu=math.nan, r=0.02, sigma=0.15), "mu must be a finite"),
    "market-r-inf": (lambda: MarketParams(mu=0.05, r=math.inf, sigma=0.15), "r must be a finite"),
    "market-sigma-inf": (lambda: MarketParams(mu=0.05, r=0.02, sigma=math.inf), "sigma"),
    "simulation-x0-inf": (lambda: SimulationConfig(10, 0, _STRATEGY, x0=math.inf), "x0"),
    "simulation-x0-bool": (lambda: SimulationConfig(10, 0, _STRATEGY, x0=True), "x0"),
    "simulation-x0-string": (lambda: SimulationConfig(10, 0, _STRATEGY, x0="1"), "x0"),
    "simulation-x0-zero": (
        lambda: SimulationConfig(10, 0, _STRATEGY, x0=0), r"^x0 must be finite and positive, got 0\.0$"
    ),
    "simulation-x0-negative": (
        lambda: SimulationConfig(10, 0, _STRATEGY, x0=-1), r"^x0 must be finite and positive, got -1\.0$"
    ),
    "simulation-paths-fraction": (lambda: SimulationConfig(10.5, 0, _STRATEGY), "paths"),
    "simulation-paths-bool": (lambda: SimulationConfig(True, 0, _STRATEGY), "paths"),
    "simulation-seed-bool": (lambda: SimulationConfig(10, False, _STRATEGY), "seed"),
    "mode-unknown-kind": (lambda: CollectiveMode("bogus"), "an integer, got 'bogus'"),
    "mode-finite-zero": (lambda: CollectiveMode(0), "integer >= 1"),
    "mode-finite-nan": (lambda: CollectiveMode.finite(math.nan), "an integer, got nan"),
    "mode-finite-bool": (lambda: CollectiveMode.finite(True), "an integer, got True"),
    # the infinite fund is n = None, not a size of inf
    "mode-infinite-with-size": (lambda: CollectiveMode(math.inf), "an integer, got inf"),
    # a policy is checked where it is built, and so is a config's policy and
    # record; dataclasses.replace builds a new one, so it checks too
    "strategy-mode-string": (
        lambda: dataclasses.replace(_STRATEGY, mode="infinite"),
        r"^strategy\.mode must be a CollectiveMode, got 'infinite'",
    ),
    "strategy-mode-int": (
        lambda: dataclasses.replace(_STRATEGY, mode=3), r"^strategy\.mode must be a CollectiveMode, got 3"
    ),
    "strategy-a-nan": (
        lambda: dataclasses.replace(_STRATEGY, a=[0.0, math.nan, 0.0]), "stock proportions must be finite"
    ),
    "strategy-a-inf": (
        lambda: dataclasses.replace(_STRATEGY, a=[0.0, math.inf, 0.0]), "stock proportions must be finite"
    ),
    "strategy-a-minus-inf": (
        lambda: dataclasses.replace(_STRATEGY, a=[0.0, 0.0, -math.inf]), "stock proportions must be finite"
    ),
    "strategy-a-two-dimensional": (
        lambda: dataclasses.replace(_STRATEGY, a=np.zeros((1, 3))),
        r"strategy\.a must be one-dimensional, got shape \(1, 3\)",
    ),
    "strategy-c-nan": (
        lambda: dataclasses.replace(_STRATEGY, c=[[0.5, math.nan, 1.0]]), r"must lie in \[0, 1\]"
    ),
    "strategy-c-above-one": (
        lambda: dataclasses.replace(_STRATEGY, c=[[0.5, 2.0, 1.0]]), r"must lie in \[0, 1\]"
    ),
    "strategy-c-negative": (
        lambda: dataclasses.replace(_STRATEGY, c=[[0.5, -0.1, 1.0]]), r"must lie in \[0, 1\]"
    ),
    "strategy-c-one-dimensional": (
        lambda: dataclasses.replace(_STRATEGY, c=np.full(3, 0.5)),
        r"strategy\.c must have shape \(1, 3\), got \(3,\)",
    ),
    "strategy-c-rows-of-another-mode": (
        lambda: dataclasses.replace(_STRATEGY, mode=CollectiveMode.finite(3)),
        r"strategy\.c must have shape \(3, 3\), got \(1, 3\)",
    ),
    "strategy-a-string": (
        lambda: dataclasses.replace(_STRATEGY, a=["x", 0, 0]),
        r"^strategy\.a must be an array of numbers, got \['x', 0, 0\]$",
    ),
    "strategy-c-string": (
        lambda: dataclasses.replace(_STRATEGY, c=[["0.5", 0.5, 0.5]]),
        r"^strategy\.c must be an array of numbers, got \[\['0\.5', 0\.5, 0\.5\]\]$",
    ),
    "strategy-c-ragged": (
        lambda: dataclasses.replace(_STRATEGY, c=[[0.5, 0.5], [0.5]]),
        r"^strategy\.c must be an array of numbers, got \[\[0\.5, 0\.5\], \[0\.5\]\]$",
    ),
    "strategy-c-bool": (
        lambda: dataclasses.replace(_STRATEGY, c=np.ones((1, 3), dtype=bool)),
        r"^strategy\.c must be an array of numbers, got array\(",
    ),
    "simulation-policy-string": (
        lambda: SimulationConfig(10, 0, "table"), "policy must be a ValueTable or a Strategy, got str"
    ),
    "simulation-record-unknown-name": (
        lambda: SimulationConfig(10, 0, _STRATEGY, record=("wealth", "bogus")),
        r"^unknown record series \['bogus'\]$",
    ),
    "simulation-record-consumption": (
        lambda: SimulationConfig(10, 0, _STRATEGY, record=("survivors", "consumption")),
        r"^unknown record series \['consumption'\]$",
    ),
    "simulation-record-string": (
        lambda: SimulationConfig(10, 0, _STRATEGY, record="wealth"),
        "record must be a sequence of names, got 'wealth'",
    ),
    "simulation-record-int": (
        lambda: SimulationConfig(10, 0, _STRATEGY, record=5), r"^record must be a sequence of names, got 5$"
    ),
    "simulation-record-none": (
        lambda: SimulationConfig(10, 0, _STRATEGY, record=None),
        r"^record must be a sequence of names, got None$",
    ),
    "simulation-record-nested": (
        lambda: SimulationConfig(10, 0, _STRATEGY, record=[["wealth"]]),
        r"^record must be a sequence of names, got \[\['wealth'\]\]$",
    ),
    "solve-mode-string": (
        lambda: solve("infinite", _MARKET, _PREFS, gompertz_makeham(0, 0, 0, _GRID)),
        "^mode must be a CollectiveMode, got 'infinite'",
    ),
    "consumption-drift-mode-int": (
        lambda: consumption_drift(_PREFS, _MARKET, 0.9, 0), "^mode must be a CollectiveMode, got 0"
    ),
    "gompertz-nan": (lambda: gompertz_makeham(math.nan, 0.0, 0.0, _GRID), "finite"),
    "pmf-nan": (lambda: MortalityTable(_GRID, [math.nan, 0.5, 0.5]), "sum to 1"),
    "pmf-string": (
        lambda: MortalityTable(_GRID, ["a", "b"]), r"^pmf must be an array of numbers, got \['a', 'b'\]$"
    ),
    "pmf-ragged": (
        lambda: MortalityTable(_GRID, [[0.5], [0.25, 0.25]]), "^pmf must be an array of numbers, got "
    ),
    "mortality-grid-string": (
        lambda: MortalityTable("grid", [1.0]), "^mortality grid must be a TimeGrid, got 'grid'$"
    ),
    # values whose square, product or exponential leaves the normal float
    # range once ended in an OverflowError, a ZeroDivisionError or a math
    # domain error
    "market-sigma-square-overflows": (
        lambda: MarketParams(mu=0.05, r=0.02, sigma=1e160),
        r"^sigma\^2 must be a normal float, got sigma = 1e\+160$",
    ),
    "market-sigma-square-underflows": (
        lambda: MarketParams(mu=0.05, r=0.02, sigma=1e-300),
        r"^sigma\^2 must be a normal float, got sigma = 1e-300$",
    ),
    "preferences-beta-underflows": (
        lambda: Preferences(-1.0, -1.0, b=800).beta(1.0),
        r"^discount rate b = 800\.0 underflows the discount factor exp\(-b dt\) to 0\.0 at dt = 1\.0$",
    ),
    "risk-term-underflows": (
        lambda: optimal_proportion(MarketParams(mu=0.05, r=0.02, sigma=1e-150), 0.9999999999999999),
        r"^the risk term \(1 - alpha\) sigma\^2 underflows to 1\.1\d*e-316 at alpha = "
        r"0\.9999999999999999 and sigma = 1e-150$",
    ),
    "wealth-schedule-x0-inf": (
        lambda: wealth_schedule(
            solve(CollectiveMode.infinite(), _MARKET, _PREFS, gompertz_makeham(0, 0, 0, _GRID)),
            math.inf,
        ),
        "initial wealth",
    ),
    "wealth-schedule-x0-bool": (
        lambda: wealth_schedule(
            solve(CollectiveMode.infinite(), _MARKET, _PREFS, gompertz_makeham(0, 0, 0, _GRID)),
            True,
        ),
        "initial wealth",
    ),
    "wealth-schedule-x0-string": (
        lambda: wealth_schedule(
            solve(CollectiveMode.infinite(), _MARKET, _PREFS, gompertz_makeham(0, 0, 0, _GRID)),
            "1",
        ),
        "initial wealth",
    ),
}


@pytest.mark.parametrize("build, fragment", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_constructors_reject_non_finite_input(build, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        build()


def _table():
    return solve(CollectiveMode.infinite(), _MARKET, _PREFS, gompertz_makeham(0, 0, 0, _GRID))


def _age_at_t0(age):
    csv = io.StringIO("age,qx\n65,0.1\n66,0.1\n67,0.1\n")
    return load_mortality_csv(csv, make_time_grid(65, 1, 68), age_at_t0=age)


# every scalar parameter as (builder of one value, the name its error gives);
# each is checked by core._real or, below, core._integer
REAL_PARAMETERS = {
    "TimeGrid-t0": (lambda v: TimeGrid(t0=v, dt=1.0, n_steps=3), "grid t0"),
    "TimeGrid-dt": (lambda v: TimeGrid(t0=0.0, dt=v, n_steps=3), "grid dt"),
    "make_time_grid-t0": (lambda v: make_time_grid(v, 1, 3), "grid t0"),
    "make_time_grid-dt": (lambda v: make_time_grid(0, v, 3), "grid dt"),
    "make_time_grid-T": (lambda v: make_time_grid(0, 1, v), "grid T"),
    "MarketParams-mu": (lambda v: MarketParams(mu=v, r=0.02, sigma=0.15), "mu"),
    "MarketParams-r": (lambda v: MarketParams(mu=0.05, r=v, sigma=0.15), "r"),
    "MarketParams-sigma": (lambda v: MarketParams(mu=0.05, r=0.02, sigma=v), "sigma"),
    "Preferences-alpha": (lambda v: Preferences(v, -1.0), "alpha"),
    "Preferences-rho": (lambda v: Preferences(-1.0, v), "rho"),
    "Preferences-b": (lambda v: Preferences(-1.0, -1.0, b=v), "discount rate b"),
    "SimulationConfig-x0": (lambda v: SimulationConfig(10, 0, _STRATEGY, x0=v), "x0"),
    "wealth_schedule-x0": (lambda v: wealth_schedule(_table(), v), "initial wealth"),
    "consumption_drift-s": (
        lambda v: consumption_drift(_PREFS, _MARKET, v, CollectiveMode.infinite()),
        "survival probability",
    ),
    "consumption_drift-dt": (
        lambda v: consumption_drift(_PREFS, _MARKET, 0.9, CollectiveMode.infinite(), dt=v),
        "dt",
    ),
    "gompertz_makeham-a": (lambda v: gompertz_makeham(v, 0.0, 0.0, _GRID), "Gompertz-Makeham a"),
    "gompertz_makeham-b": (lambda v: gompertz_makeham(0.0, v, 0.0, _GRID), "Gompertz-Makeham b"),
    "gompertz_makeham-c": (lambda v: gompertz_makeham(0.0, 0.0, v, _GRID), "Gompertz-Makeham c"),
    "annuity_factor-r": (lambda v: annuity_factor(gompertz_makeham(0, 0, 0, _GRID), v), "r"),
    "load_mortality_csv-age_at_t0": (_age_at_t0, "age_at_t0"),
    "run_scenarios-mu": (
        lambda v: run_scenarios([(v, 0.02, 1)], 0.15, _PREFS, gompertz_makeham(0, 0, 0, _GRID)),
        "mu",
    ),
    "run_scenarios-r": (
        lambda v: run_scenarios([(0.05, v, 1)], 0.15, _PREFS, gompertz_makeham(0, 0, 0, _GRID)),
        "r",
    ),
}
INTEGER_PARAMETERS = {
    "TimeGrid-n_steps": (lambda v: TimeGrid(t0=0.0, dt=1.0, n_steps=v), "grid n_steps"),
    "SimulationConfig-paths": (lambda v: SimulationConfig(v, 0, _STRATEGY), "paths"),
    "SimulationConfig-seed": (lambda v: SimulationConfig(10, v, _STRATEGY), "seed"),
    "CollectiveMode-n": (CollectiveMode, "finite collective size"),
    "CollectiveMode.finite-n": (CollectiveMode.finite, "finite collective size"),
}
_NOT_REAL = {"bool": True, "string": "65", "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
_SCALAR_CASES = [
    pytest.param(build, value, f"{name} must be a finite number", id=f"{key}-{value_id}")
    for key, (build, name) in REAL_PARAMETERS.items()
    for value_id, value in _NOT_REAL.items()
] + [
    pytest.param(build, value, f"{name} must be an integer", id=f"{key}-{value_id}")
    for key, (build, name) in INTEGER_PARAMETERS.items()
    for value_id, value in {**_NOT_REAL, "fraction": 2.5}.items()
]


@pytest.mark.parametrize("build, value, message", _SCALAR_CASES)
def test_scalar_parameter_rejects_non_number(build, value, message):
    # one rule for every scalar: no bool, string, NaN or infinity (nor a
    # fraction for an integer), and the error names the parameter
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}, got "):
        build(value)


def test_integral_float_stored_as_int():
    built = {
        "n_steps": TimeGrid(t0=0.0, dt=1.0, n_steps=3.0).n_steps,
        "paths": SimulationConfig(3.0, 0, _STRATEGY).paths,
        "seed": SimulationConfig(10, 3.0, _STRATEGY).seed,
        "n": CollectiveMode(3.0).n,
        "finite n": CollectiveMode.finite(np.int64(3)).n,
    }
    assert all(type(v) is int and v == 3 for v in built.values()), built
    # a seed is never converted through float
    assert SimulationConfig(10, 10**400, _STRATEGY).seed == 10**400


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_consumption_drift_step_must_be_positive(dt):
    with pytest.raises(ConfigurationError, match="dt must be > 0"):
        consumption_drift(_PREFS, _MARKET, 0.9, CollectiveMode.infinite(), dt=dt)


def test_number_rule_lives_in_core_only():
    # what counts as a number is decided by core._real and core._integer
    src = Path(pensionlab.__file__).parent
    pattern = re.compile(r"isinstance\([^)]*\bbool\b|numbers\.(Real|Integral)")
    found = sorted(f.name for f in src.glob("*.py") if pattern.search(f.read_text("utf-8")))
    assert found == ["core.py"]


def test_discount_factor_enters_through_log_phi_only():
    # every value recursion, the annuity's included, takes beta inside phi:
    # Preferences.beta is called by solver._log_phi and nowhere else
    callers = []
    for f in sorted(Path(pensionlab.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(f.read_text("utf-8"))))
        defs = [n for n in nodes if isinstance(n, ast.FunctionDef)]
        for call in nodes:
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "beta":
                inside = [d for d in defs if d.lineno <= call.lineno <= d.end_lineno]
                callers.append((f.name, max(inside, key=lambda d: d.lineno).name))
    assert callers == [("solver.py", "_log_phi")]


def test_every_dataclass_is_frozen():
    # each value is checked once, where it is built; a field set afterwards
    # would skip that check
    src = Path(pensionlab.__file__).parent
    decorators = [
        (f.name, line.strip())
        for f in sorted(src.glob("*.py"))
        for line in f.read_text("utf-8").splitlines()
        if re.match(r"\s*@(dataclasses\.)?dataclass\b", line)
    ]
    assert decorators
    assert [d for d in decorators if "frozen=True" not in d[1]] == []


def test_record_is_held_as_a_tuple():
    # any iterable of names, a generator too, is read once and kept
    names = (name for name in ["wealth", "survivors"])
    assert SimulationConfig(10, 0, _STRATEGY, record=names).record == ("wealth", "survivors")
    assert SimulationConfig(10, 0, _STRATEGY, record=["wealth"]).record == ("wealth",)


def test_strategy_holds_read_only_copies():
    # the caller's arrays stay its own and writable; the strategy's cannot change
    a, c = np.zeros(3, dtype=np.float32), np.full((1, 3), 1)
    strategy = Strategy(CollectiveMode.infinite(), a, c)
    assert a.flags.writeable and c.flags.writeable
    assert strategy.a.dtype == strategy.c.dtype == np.float64
    assert not (strategy.a.flags.writeable or strategy.c.flags.writeable)
    a[0], c[0, 0] = 0.5, 0
    assert strategy.a[0] == 0.0 and strategy.c[0, 0] == 1.0


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


@pytest.mark.parametrize("module", sorted(pensionlab._EXPORTS))
def test_package_exports_each_modules_public_names(module):
    # a name a module lists but the package does not map raises AttributeError
    listed = importlib.import_module(f"pensionlab.{module}").__all__
    assert set(pensionlab._EXPORTS[module]) == set(listed)


def test_import_loads_no_numpy_and_keeps_the_environment():
    # numpy reads its BLAS thread settings once, when it loads, so a program
    # that imports pensionlab first must still get to choose them
    out = run_child_python(
        "import os, sys, pensionlab; "
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert out.split() == ["False", "False"]


def test_readme_python_examples_run():
    # every fenced python block of README.md, in order and in one namespace,
    # so that an API change cannot leave the documented calls behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
