import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pensionlab.core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    make_time_grid,
)
from pensionlab.montecarlo import SimulationConfig, simulate
from pensionlab.mortality import MortalityTable, gompertz_makeham
from pensionlab.solver import (
    MAX_FINITE_N,
    CollectiveMode,
    Strategy,
    evaluate_policy,
    extract_strategy,
    growth_exponent,
    optimal_proportion,
    solve,
)

from conftest import BUNDLED_GOMPERTZ, DISCOUNTS, EXPONENTS, MORTALITY, random_mortality
from oracle_dp import best_growth_exponent, golden_max, oracle_values
from oracle_pooled import continuous_consumption_rate, linear_recursion


def random_prefs(rng):
    def draw_exp():
        x = 0.0
        while abs(x) < 0.05:
            x = float(rng.uniform(-3.0, 0.9))
        return x

    return Preferences(alpha=draw_exp(), rho=draw_exp(), b=float(rng.uniform(0.0, 0.1)))


def random_market(rng):
    r = float(rng.uniform(0.0, 0.05))
    return MarketParams(mu=r + float(rng.uniform(0.0, 0.04)), r=r, sigma=float(rng.uniform(0.1, 0.3)))


def assert_pooled_modes_match_linear_recursion(market, prefs, mortality):
    """Pooled ``solve`` agrees with the linear recursion for C = 0 and C = 1.

    Either both diverge with the same message, or neither does and z is
    within 1e-12 and y, c* within 2e-12 relative.  The log-space driver's
    rounding is absolute in log z, so the tolerances hold per 10 units of
    the largest |log z|.
    """
    for pooling, mode in ((0, CollectiveMode.individual()), (1, CollectiveMode.infinite())):
        try:
            reference = linear_recursion(pooling, market, prefs, mortality)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as got:
                solve(mode, market, prefs, mortality)
            assert str(got.value) == str(err)
            continue
        table = solve(mode, market, prefs, mortality)
        scale = max(1.0, float(np.max(np.abs(np.log(reference[0])))) / 10.0)
        for got, want, rel in zip((table.z, table.y, table.cstar), reference, (1e-12, 2e-12, 2e-12)):
            np.testing.assert_allclose(got[0], want, rtol=rel * scale, atol=0.0)


class TestOptimalProportion:
    def test_no_premium_means_no_stock(self):
        assert optimal_proportion(MarketParams(mu=0.03, r=0.03, sigma=0.2), -1.0) == 0.0

    def test_matches_numeric_maximum(self):
        market = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        a = optimal_proportion(market, -1.0)
        assert a == pytest.approx(0.77778, abs=5e-6)
        a_num, _ = best_growth_exponent(market, -1.0)
        assert a == pytest.approx(a_num, abs=1e-6)

    def test_doubling_sigma_quarters_it(self):
        m1 = MarketParams(mu=0.06, r=0.02, sigma=0.1)
        m2 = MarketParams(mu=0.06, r=0.02, sigma=0.2)
        assert optimal_proportion(m1, -2.0) == pytest.approx(
            4.0 * optimal_proportion(m2, -2.0), rel=1e-14
        )


class TestGrowthExponent:
    def test_no_premium_gives_riskfree(self):
        market = MarketParams(mu=0.03, r=0.03, sigma=0.2)
        assert growth_exponent(market, -1.0) == 0.03

    def test_equity_premium_value(self):
        market = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        xi = growth_exponent(market, -1.0)
        assert xi == pytest.approx(0.040611, abs=1e-6)
        _, xi_num = best_growth_exponent(market, -1.0)
        assert xi == pytest.approx(xi_num, rel=1e-12)

    def test_zero_rates(self):
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        assert growth_exponent(market, -3.0) == 0.0

    def test_fixed_proportion_is_dominated(self):
        market = MarketParams(mu=0.05, r=0.01, sigma=0.2)
        xi = growth_exponent(market, -1.5)
        for a in (-0.5, 0.0, 0.3, 1.0):
            assert growth_exponent(market, -1.5, a=a) <= xi + 1e-15


class TestSolve:
    def test_two_period_equal_split(self):
        grid = make_time_grid(0, 1, 2)
        mt = MortalityTable(grid, [0.0, 1.0])
        market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
        for alpha in (-3.0, -1.0, 0.5):
            t = solve(CollectiveMode.individual(), market,
                      Preferences(alpha=alpha, rho=-1.0, b=0.0), mt)
            assert abs(t.z[0, 0] - 0.25) <= 1e-12
            assert abs(t.cstar[0, 0] - 0.5) <= 1e-12
            assert t.z[0, 1] == 1.0 and t.cstar[0, 1] == 1.0

    def test_ten_periods_of_certain_survival(self):
        grid = make_time_grid(0, 1, 10)
        p = np.zeros(10)
        p[-1] = 1.0
        table = solve(
            CollectiveMode.individual(),
            MarketParams(mu=0.0, r=0.0, sigma=0.2),
            Preferences(alpha=-1.0, rho=-1.0, b=0.0),
            MortalityTable(grid, p),
        )
        assert table.cstar[0, 0] == pytest.approx(0.1, abs=1e-15)
        # c* = z^(rho/(rho-1)), here z^(1/2)
        assert table.z[0, 0] ** 0.5 == pytest.approx(0.1, rel=1e-12)

    def test_terminal_consumes_everything_every_mode(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        for mode in (CollectiveMode.individual(), CollectiveMode.infinite(), CollectiveMode.finite(4)):
            t = solve(mode, base_market, vnm_prefs, mt)
            last = t.cstar[..., -1]
            assert np.all(last == 1.0)
            assert np.all(t.cstar > 0.0) and np.all(t.cstar <= 1.0)

    def test_single_member_fund_is_the_individual(self, mild_table, base_market, vnm_prefs):
        # the closed form against the kernel's row of one survivor, which
        # does not depend on the fund's size
        grid, mt = mild_table
        ind = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
        fund = solve(CollectiveMode.finite(2), base_market, vnm_prefs, mt)
        assert ind.z.shape == ind.cstar.shape == (1, grid.n_steps)
        assert np.max(np.abs(fund.z[0] - ind.z[0])) <= 1e-12
        assert np.max(np.abs(fund.cstar[0] - ind.cstar[0])) <= 1e-12

    def test_individual_is_the_one_member_fund(self):
        ind = CollectiveMode.individual()
        assert ind == CollectiveMode.finite(1) == CollectiveMode(1)
        assert ind.is_finite and str(ind) == "finite:1"
        assert [CollectiveMode(n).pooling for n in (None, 1, 2)] == [1, 0, None]

    def test_two_member_fund_matches_brute_force(self, base_market):
        grid = make_time_grid(0, 1, 3)
        mt = MortalityTable(grid, [0.2, 0.4, 0.4])  # s = (0.8, 0.5, 0)
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        t = solve(CollectiveMode.finite(2), base_market, prefs, mt)
        w = oracle_values(2, grid, base_market, prefs, mt)
        assert t.z[1, 0] == pytest.approx(w[1, 0], rel=1e-8)

    def test_pooled_modes_match_linear_recursion(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        assert_pooled_modes_match_linear_recursion(base_market, vnm_prefs, mt)
        for mode in (CollectiveMode.individual(), CollectiveMode.infinite()):
            t = solve(mode, base_market, vnm_prefs, mt)
            assert np.array_equal(t.cstar, 1.0 / t.y)
            assert np.all(t.y >= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(-3.0, 0.9).filter(lambda x: abs(x) >= 0.05),
        rho=st.floats(-3.0, 0.9).filter(lambda x: abs(x) >= 0.05),
        b=st.floats(0.0, 0.1),
        # calibrated rates, or rates at which about one solve in seven diverges
        r=st.floats(0.0, 0.05) | st.floats(-12.0, 12.0),
        premium=st.floats(0.0, 0.04),
        sigma=st.floats(0.1, 0.3),
        steps=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1) | st.none(),
    )
    def test_pooled_modes_match_linear_recursion_on_random_inputs(
        self, mild_table, alpha, rho, b, r, premium, sigma, steps, seed
    ):
        # seed None takes the mild Gompertz table in place of a random one
        if seed is None:
            mt = mild_table[1]
        else:
            mt = random_mortality(np.random.default_rng(seed), make_time_grid(0, 1, steps))
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        market = MarketParams(mu=r + premium, r=r, sigma=sigma)
        assert_pooled_modes_match_linear_recursion(market, prefs, mt)

    def test_astar_is_a_single_scalar_independent_of_rho(self, mild_table, base_market):
        grid, mt = mild_table
        t1 = solve(CollectiveMode.infinite(), base_market,
                   Preferences(alpha=-1.0, rho=-1.0), mt)
        t2 = solve(CollectiveMode.infinite(), base_market,
                   Preferences(alpha=-1.0, rho=0.5), mt)
        assert isinstance(t1.astar, float) and isinstance(t1.xi, float)
        assert t1.astar == t2.astar and t1.xi == t2.xi

    @pytest.mark.parametrize("mode", [None, 1, 3], ids=lambda n: str(CollectiveMode(n)))
    def test_every_fund_has_one_table_shape(self, mild_table, base_market, vnm_prefs, mode):
        # one row per survivor count, and one for the infinite fund
        grid, mt = mild_table
        mode = CollectiveMode(mode)
        table = solve(mode, base_market, vnm_prefs, mt)
        shape = (mode.n or 1, grid.n_steps)
        assert table.z.shape == table.y.shape == table.cstar.shape == shape
        assert extract_strategy(table).c.shape == shape
        assert table.z_at_start() == table.z[-1, 0]

    def test_finite_value_between_individual_and_infinite(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        z1 = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt).z[0]
        z8 = solve(CollectiveMode.finite(8), base_market, vnm_prefs, mt).z[7]
        zinf = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt).z[0]
        ok = np.all(z1[:-1] <= z8[:-1] + 1e-14) and np.all(z8[:-1] <= zinf[:-1] + 1e-14)
        assert ok, "finite-collective value left the [individual, infinite] band"

    def test_divergence_reported_with_location(self):
        grid = make_time_grid(0, 1, 200)
        p = np.zeros(200)
        p[-1] = 1.0
        mt = MortalityTable(grid, p)
        market = MarketParams(mu=10.0, r=10.0, sigma=0.2)
        prefs = Preferences(alpha=0.5, rho=0.5, b=0.0)
        with pytest.raises(DivergenceError, match="t="):
            solve(CollectiveMode.individual(), market, prefs, mt)
        with pytest.raises(DivergenceError, match=r"diverged at t=128\.0"):
            solve(CollectiveMode.infinite(), market, prefs, mt)
        with pytest.raises(DivergenceError, match="survivor count"):
            solve(CollectiveMode.finite(2), market, prefs, mt)

    def test_divergence_with_negative_q_reported_where_it_overflows(self):
        # rho < 0: y overflows to inf and z = y^(1/q) would read 0, not diverge
        grid = make_time_grid(0, 1, 200)
        p = np.zeros(200)
        p[-1] = 1.0
        mt = MortalityTable(grid, p)
        market = MarketParams(mu=-10.0, r=-10.0, sigma=0.2)
        prefs = Preferences(alpha=-1.0, rho=-3.0, b=0.0)
        with pytest.raises(DivergenceError, match=r"survivor count 1 at t=104\.0"):
            solve(CollectiveMode.individual(), market, prefs, mt)
        with pytest.raises(DivergenceError, match=r"diverged at t=104\.0"):
            solve(CollectiveMode.infinite(), market, prefs, mt)
        with pytest.raises(DivergenceError, match=r"survivor count 1 at t=104\.0"):
            solve(CollectiveMode.finite(2), market, prefs, mt)

    @pytest.mark.parametrize("mode", [CollectiveMode.infinite(), CollectiveMode.individual()], ids=str)
    @pytest.mark.parametrize(
        "market",
        [MarketParams(mu=1e300, r=0.027, sigma=0.15), MarketParams(mu=0.062, r=0.027, sigma=1e-100)],
        ids=["mu-1e300", "sigma-1e-100"],
    )
    def test_non_finite_growth_diverges(
        self, default_table, vnm_prefs, mode, market
    ):
        # xi is NaN or -inf: the closed form once summed it, with numpy's warnings
        _, mt = default_table
        with pytest.raises(DivergenceError, match=r"^growth exponent xi = (nan|-inf) is not finite"):
            solve(mode, market, vnm_prefs, mt)
        one_date = gompertz_makeham(0.0, 0.0, 0.0, make_time_grid(65, 1, 66))
        with pytest.raises(DivergenceError, match=r"^growth exponent xi"):  # once xi = nan, exit 0
            solve(mode, market, vnm_prefs, one_date)

    def test_overflowing_discount_term_diverges_before_the_closed_form(self, default_table):
        # log(beta)/rho overflows to -inf at so small a rho
        _, mt = default_table
        prefs = Preferences(alpha=-1.0, rho=-1e-310, b=0.02)
        with pytest.raises(DivergenceError, match=r"^value recursion diverged at t=65\.0$"):
            solve(CollectiveMode.infinite(), MarketParams(0.062, 0.027, 0.15), prefs, mt)

    def test_finite_size_cap(self):
        with pytest.raises(ConfigurationError):
            CollectiveMode.finite(10_001)
        with pytest.raises(ConfigurationError):
            CollectiveMode.finite(0)

    def test_largest_fund_solves_in_bounded_memory(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        tracemalloc.start()
        try:
            table = solve(CollectiveMode.finite(MAX_FINITE_N), base_market, vnm_prefs, mt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.z.shape == (MAX_FINITE_N, grid.n_steps)
        assert np.all(np.isfinite(table.z)) and np.all(np.isfinite(table.cstar))
        assert peak < 64 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"


class TestEvaluatePolicy:
    def test_matches_solver_on_optimal_strategy(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        for mode in (CollectiveMode.individual(), CollectiveMode.infinite(), CollectiveMode.finite(3)):
            table = solve(mode, base_market, vnm_prefs, mt)
            v = evaluate_policy(extract_strategy(table), base_market, vnm_prefs, mt)
            assert v == pytest.approx(table.z_at_start(), rel=1e-10)

    def test_matches_solver_on_random_draws(self):
        rng = np.random.default_rng(31)
        grid = make_time_grid(0, 1, 6)
        for _ in range(12):
            prefs = random_prefs(rng)
            if rng.random() < 0.4:  # include alpha == rho draws
                prefs = Preferences(alpha=prefs.rho, rho=prefs.rho, b=prefs.b)
            market = random_market(rng)
            mt = random_mortality(rng, grid)
            for mode in (CollectiveMode.individual(), CollectiveMode.infinite(), CollectiveMode.finite(2)):
                table = solve(mode, market, prefs, mt)
                v = evaluate_policy(extract_strategy(table), market, prefs, mt)
                assert v == pytest.approx(table.z_at_start(), rel=1e-10)

    def test_two_point_hand_value(self):
        grid = make_time_grid(0, 1, 2)
        mt = MortalityTable(grid, [0.0, 1.0])
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        strat = Strategy(CollectiveMode.individual(), a=np.zeros(2), c=np.array([[0.3, 1.0]]))
        v = evaluate_policy(strat, market, prefs, mt)
        assert v == pytest.approx(0.21, abs=1e-12)  # (1/0.3 + 1/0.7)^-1

    def test_perturbing_initial_consumption_hurts(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        mode = CollectiveMode.infinite()
        table = solve(mode, base_market, vnm_prefs, mt)
        base = extract_strategy(table)
        v0 = evaluate_policy(base, base_market, vnm_prefs, mt)
        for dc in (0.01, -0.01):
            c = base.c.copy()
            c[0, 0] += dc
            pert = dataclasses.replace(base, c=c)
            assert evaluate_policy(pert, base_market, vnm_prefs, mt) < v0

    def test_second_order_flatness_at_optimum(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        mode = CollectiveMode.individual()
        table = solve(mode, base_market, vnm_prefs, mt)
        base = extract_strategy(table)
        v0 = evaluate_policy(base, base_market, vnm_prefs, mt)
        drops = {}
        for h in (1e-2, 1e-3, 1e-4):
            c = base.c.copy()
            c[0, 0] *= 1.0 + h
            pert = dataclasses.replace(base, c=c)
            drops[h] = v0 - evaluate_policy(pert, base_market, vnm_prefs, mt)
        k_fit = drops[1e-2] / 1e-4
        for h in (1e-3, 1e-4):
            assert drops[h] <= 2.0 * k_fit * h * h

    def test_shape_validation(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        individual = CollectiveMode.individual()
        with pytest.raises(ConfigurationError):
            evaluate_policy(
                Strategy(individual, a=np.zeros(3), c=np.full(grid.n_steps, 0.1)),
                base_market, vnm_prefs, mt,
            )
        with pytest.raises(ConfigurationError, match=r"lie in \[0, 1\]"):
            evaluate_policy(
                Strategy(individual, a=np.zeros(grid.n_steps), c=np.full((1, grid.n_steps), 1.2)),
                base_market, vnm_prefs, mt,
            )
        # a finite fund needs one rate per survivor count and date
        with pytest.raises(ConfigurationError, match=r"strategy\.c must have shape \(3, "):
            evaluate_policy(
                Strategy(CollectiveMode.finite(3), a=np.zeros(grid.n_steps),
                         c=np.full(grid.n_steps, 0.1)),
                base_market, vnm_prefs, mt,
            )
        # a strategy is built without a grid: both callers check its dates
        short = Strategy(individual, a=np.zeros(3), c=np.full((1, 3), 0.1))
        message = rf"^strategy\.a must have shape \({grid.n_steps},\), got \(3,\)$"
        with pytest.raises(ConfigurationError, match=message):
            evaluate_policy(short, base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match=message):
            simulate(SimulationConfig(paths=10, seed=1, policy=short), grid, base_market, mt)

    @pytest.mark.parametrize("series, value", [
        ("c", math.nan), ("a", math.nan), ("a", math.inf),
        pytest.param("mode", None, id="mode-swapped"),
        pytest.param("flat-c", None, id="c-one-dimensional"),
    ])
    @pytest.mark.parametrize("mode", [CollectiveMode.infinite(), CollectiveMode.finite(3)], ids=str)
    def test_non_finite_policy_rejected_by_both_callers(
        self, default_table, base_market, vnm_prefs, mode, series, value
    ):
        # NaN passes a range check written as (c < 0) | (c > 1); unchecked,
        # it turns every statistic from its date on into NaN.  A swapped mode
        # leaves c in the solved fund's shape: one row with finite:3, three
        # with infinite.  One rate per date, with no row axis, fits no fund.
        # Each is rejected where the strategy is built, and a built one cannot
        # be changed, so neither evaluate_policy nor simulate is handed one
        grid, mt = default_table
        table = solve(mode, base_market, vnm_prefs, mt)
        strategy = extract_strategy(table)
        fragment = r"strategy\.c must have shape"
        if series == "mode":
            field = "mode"
            bad = CollectiveMode.infinite() if mode.is_finite else CollectiveMode.finite(3)
        elif series == "flat-c":
            field, bad = "c", np.full(grid.n_steps, 0.5)
        else:
            field, bad = series, getattr(strategy, series).copy()
            bad[..., 3] = value
            fragment = r"lie in \[0, 1\]" if series == "c" else "stock proportions must be finite"
        with pytest.raises(ConfigurationError, match=fragment):
            dataclasses.replace(strategy, **{field: bad})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(strategy, field, bad)
        for name in ("a", "c"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(strategy, name)[..., 3] = 0.5
        assert np.all(strategy.a == table.astar) and np.array_equal(strategy.c, table.cstar)

    @pytest.mark.parametrize(
        "mode", [CollectiveMode.infinite(), CollectiveMode.finite(1), CollectiveMode.finite(3)], ids=str
    )
    def test_overflowing_proportion_diverges_in_both_callers(
        self, default_table, base_market, vnm_prefs, mode
    ):
        # a * a overflows at a = 1e200: numpy once warned and the run went on
        _, mt = default_table
        table = solve(mode, base_market, vnm_prefs, mt)
        strategy = Strategy(mode, np.full(mt.grid.n_steps, 1e200), table.cstar)
        message = r"^growth exponent kappa = -inf is not finite at t=65\.0, a = 1e\+200$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=message):
                evaluate_policy(strategy, base_market, vnm_prefs, mt)
            with pytest.raises(DivergenceError, match=message):
                simulate(SimulationConfig(paths=16, seed=1, policy=strategy), mt.grid, base_market, mt)

    def test_subnormal_value_raises(self, default_table, base_market):
        # about 1.96e-315, a subnormal with too few significant bits, where
        # solve raises for the same preferences
        _, mt = default_table
        c = np.full((1, mt.grid.n_steps), 0.05)
        c[0, -1] = 1.0
        prefs = Preferences(alpha=0.06001, rho=-5.748, b=0.02)
        with pytest.raises(DivergenceError, match="policy value"):
            evaluate_policy(
                Strategy(CollectiveMode.infinite(), a=np.zeros(mt.grid.n_steps), c=c),
                base_market, prefs, mt,
            )

    def test_zero_consumption_at_a_date(self):
        # a policy that consumes nothing at t=1 has v = 0 there when rho < 0,
        # and v = 0 propagates back to t0 as log v = -inf, not as divergence.
        # Consuming everything at t=1 or t=0 leaves nothing for later dates:
        # in v^rho its continuation factor is 0 (rho > 0) or inf (rho < 0)
        grid = make_time_grid(0, 1, 6)
        mt = MortalityTable(grid, [0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
        market = MarketParams(mu=0.06, r=0.03, sigma=0.15)
        modes = (CollectiveMode.individual(), CollectiveMode.infinite(), CollectiveMode.finite(3))
        # (rho, consumption rate, date): value per mode
        expected = {
            (-1.0, 0.0, 1): (0.0, 0.0, 0.0),
            (0.5, 0.0, 1): (10.300855153090351, 23.064952046523132, 15.62701358472201),
            (-1.0, 1.0, 1): (0.0, 0.0, 0.0),
            (0.5, 1.0, 1): (1.6794217828508042, 1.574251215171747, 1.6297048305135011),
            (-1.0, 1.0, 0): (0.0, 0.0, 0.0),
            (0.5, 1.0, 0): (1.0, 1.0, 1.0),
        }
        for (rho, rate, k), values in expected.items():
            prefs = Preferences(alpha=-1.0, rho=rho)
            for mode, value in zip(modes, values):
                strat = extract_strategy(solve(mode, market, prefs, mt))
                c = strat.c.copy()
                c[..., k] = rate
                strat = dataclasses.replace(strat, c=c)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    v = evaluate_policy(strat, market, prefs, mt)
                if value == 0.0:
                    assert v == 0.0
                else:
                    assert v == pytest.approx(value, rel=1e-12)


class TestFiniteTableStructure:
    """The kernel's table of a fund of n >= 2, cell by cell, against the
    closed forms of the one-member and the infinite fund."""

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        r=st.floats(0.0, 0.05),
        premium=st.floats(0.0, 0.04),
        sigma=st.floats(0.1, 0.3),
        n=st.integers(2, 32),
        mt=MORTALITY,
    )
    def test_values_rise_with_survivors_within_the_pooled_bracket(
        self, alpha, rho, b, r, premium, sigma, n, mt
    ):
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        market = MarketParams(mu=r + premium, r=r, sigma=sigma)
        modes = (CollectiveMode.finite(n), CollectiveMode.individual(), CollectiveMode.infinite())
        try:
            fund, one, inf = [solve(mode, market, prefs, mt) for mode in modes]
        except DivergenceError:
            assume(False)
        assert np.all(np.diff(np.log(fund.z), axis=0) >= 0.0), "log z falls with survivors"
        lo = np.minimum(one.cstar, inf.cstar) * (1.0 - 1e-9)
        hi = np.maximum(one.cstar, inf.cstar) * (1.0 + 1e-9)
        assert np.all((lo <= fund.cstar) & (fund.cstar <= hi)), "c* left the pooled bracket"
        # as alpha nears 0 the two agree to rounding: 1.6e-15 over, in 24,000 draws
        assert fund.z_at_start() <= inf.z_at_start() * (1.0 + 1e-12)


class TestFixedPolicyNearOptimum:
    @settings(max_examples=150, deadline=None)
    @given(
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        n=st.sampled_from([None, 1, 2, 3, 5, 8]),
        mt=MORTALITY,
        eps=st.sampled_from([1e-1, 1e-3, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_beats_solve(self, base_market, alpha, rho, b, n, mt, eps, seed):
        # solve's z is the supremum over policies, so a random policy near
        # the optimum, c* and a* with lognormal and normal noise of scale
        # eps, is worth at most z (to rounding, where eps^2 is below it)
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        mode = CollectiveMode(n)
        noise = np.random.default_rng(seed).standard_normal
        try:
            table = solve(mode, base_market, prefs, mt)
            c = np.clip(table.cstar * np.exp(eps * noise(table.cstar.shape)), 0.0, 1.0)
            a = table.astar + eps * noise(mt.grid.n_steps)
            v = evaluate_policy(Strategy(mode, a, c), base_market, prefs, mt)
        except DivergenceError:
            assume(False)
        assert v <= table.z_at_start() * (1.0 + 1e-12)


class TestInfinitePolicyInFiniteFund:
    """The homogeneous form of the abstract's effective strategies: the
    infinite fund's optimal policy, broadcast to every survivor count of a
    fund of n, loses 1 - v/z_n of certainty-equivalent wealth, and the loss
    vanishes as n grows.  On the bundled table with the grid ending at
    T = 90 it is 5.3e-6 to 4.5e-5 at n = 128."""

    @pytest.fixture(scope="class")
    def mt(self):
        return gompertz_makeham(**BUNDLED_GOMPERTZ, grid=make_time_grid(65, 1, 90))

    @pytest.mark.parametrize("alpha, rho", [(-1.0, -1.0), (-3.0, -1.0), (-5.0, -0.5), (-0.5, 0.5)])
    def test_loss_falls_with_fund_size(self, mt, base_market, alpha, rho):
        prefs = Preferences(alpha=alpha, rho=rho, b=0.0)
        limit = extract_strategy(solve(CollectiveMode.infinite(), base_market, prefs, mt))
        losses = []
        for n in (2, 16, 128):
            mode = CollectiveMode.finite(n)
            c = np.broadcast_to(limit.c, (n, mt.grid.n_steps))
            v = evaluate_policy(Strategy(mode, limit.a, c), base_market, prefs, mt)
            losses.append(1.0 - v / solve(mode, base_market, prefs, mt).z_at_start())
        # a fixed policy never beats solve's optimum: _backward's two rules agree
        assert min(losses) >= -1e-12, losses
        assert losses[0] > losses[1] > losses[2], losses
        assert losses[2] <= 1e-4, losses

    def test_broadcast_policy_simulates(self, mt, base_market, vnm_prefs):
        # simulate takes the read-only broadcast view, and every path with a
        # survivor consumes the infinite fund's rate of its date
        limit = extract_strategy(solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt))
        c = np.broadcast_to(limit.c, (16, mt.grid.n_steps))
        assert not c.flags.writeable
        policy = Strategy(CollectiveMode.finite(16), limit.a, c)
        res = simulate(
            SimulationConfig(paths=50, seed=5, policy=policy,
                             record=("survivors", "wealth", "consumption")),
            mt.grid, base_market, mt,
        )
        alive = res.survivors > 0
        assert alive[:, 0].all() and not alive[:, -1].all()  # some funds die out
        rates = np.broadcast_to(limit.c, res.wealth.shape)
        assert np.array_equal(res.consumption[alive], rates[alive] * res.wealth[alive])
        assert np.all(res.consumption[~alive] == 0.0)


class TestContinuousConsumptionLimit:
    """c*_0 / dt tends to the continuous-time rate c(t0) as dt -> 0.  y_0 dt
    is a left Riemann sum, so c*_0 / dt = c(t0) + A dt + B dt^2 + O(dt^3),
    and a Richardson extrapolation over dt = 1/16, 1/32 and 1/64 removes the
    first two terms.  The limit is a quadrature of the exact Gompertz-Makeham
    hazard (``oracle_pooled.continuous_consumption_rate``), which shares no
    code with ``gompertz_makeham``, ``_log_phi`` or ``_pooled``.  On the
    bundled table the infinite fund's c*_0 is 0.05559 at dt = 1, against a
    limit of 0.05719."""

    @pytest.mark.parametrize("mode", [CollectiveMode.infinite(), CollectiveMode.finite(1)], ids=str)
    @pytest.mark.parametrize("alpha, rho, b", [(-1.0, -1.0, 0.0), (-3.0, -1.0, 0.02), (-5.0, -0.5, 0.0)])
    def test_richardson_limit_matches_the_integral(self, base_market, mode, alpha, rho, b):
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        rates = []
        for dt in (1 / 16, 1 / 32, 1 / 64):
            grid = make_time_grid(65, dt, 95)
            mt = gompertz_makeham(**BUNDLED_GOMPERTZ, grid=grid)
            rates.append(solve(mode, base_market, prefs, mt).cstar[0, 0] / dt)
        extrapolated = (rates[0] - 6.0 * rates[1] + 8.0 * rates[2]) / 3.0
        gompertz = tuple(BUNDLED_GOMPERTZ[k] for k in "abc")
        limit = continuous_consumption_rate(gompertz, base_market, prefs, mode.pooling, 65.0, 95.0)
        assert abs(extrapolated / limit - 1.0) <= 1e-8  # measured: 3.2e-10 to 5.7e-10


class TestBackwardDriver:
    def test_single_member_matches_scalar_recursion(self):
        # two dates: the kernel's row of one survivor is the individual recursion
        # z_0 = (1 + theta^q)^(1/q), theta = beta^(1/rho) exp(xi dt) s^(1/alpha) z_1
        grid = make_time_grid(0, 1, 2)
        s, alpha, rho, b = 0.8, -1.5, -0.5, 0.01
        mt = MortalityTable(grid, [1.0 - s, s])
        market = MarketParams(mu=0.06, r=0.03, sigma=0.15)
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        q = rho / (1.0 - rho)
        table = solve(CollectiveMode.finite(2), market, prefs, mt)
        theta = math.exp(-b / rho) * math.exp(growth_exponent(market, alpha)) * s ** (1.0 / alpha)
        assert table.z[0, 1] == 1.0
        assert table.z[0, 0] == pytest.approx((1.0 + theta**q) ** (1.0 / q), rel=1e-13)
