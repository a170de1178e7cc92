import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pensionlab.core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    make_time_grid,
)
from pensionlab.montecarlo import SimulationConfig, simulate
from pensionlab.mortality import MortalityTable
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

from conftest import random_mortality
from oracle_dp import best_growth_exponent, golden_max, oracle_values
from oracle_pooled import linear_recursion


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
            np.testing.assert_allclose(got, want, rtol=rel * scale, atol=0.0)


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
        mt = MortalityTable.from_pmf(grid, [0.0, 1.0])
        market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
        for alpha in (-3.0, -1.0, 0.5):
            t = solve(CollectiveMode.individual(), market,
                      Preferences(alpha=alpha, rho=-1.0, b=0.0), mt)
            assert abs(t.z[0] - 0.25) <= 1e-12
            assert abs(t.cstar[0] - 0.5) <= 1e-12
            assert t.z[1] == 1.0 and t.cstar[1] == 1.0

    def test_ten_periods_of_certain_survival(self):
        grid = make_time_grid(0, 1, 10)
        p = np.zeros(10)
        p[-1] = 1.0
        table = solve(
            CollectiveMode.individual(),
            MarketParams(mu=0.0, r=0.0, sigma=0.2),
            Preferences(alpha=-1.0, rho=-1.0, b=0.0),
            MortalityTable.from_pmf(grid, p),
        )
        assert table.cstar[0] == pytest.approx(0.1, abs=1e-15)
        # c* = z^(rho/(rho-1)), here z^(1/2)
        assert table.z[0] ** 0.5 == pytest.approx(0.1, rel=1e-12)

    def test_terminal_consumes_everything_every_mode(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        for mode in (CollectiveMode.individual(), CollectiveMode.infinite(), CollectiveMode.finite(4)):
            t = solve(mode, base_market, vnm_prefs, mt)
            last = t.cstar[..., -1]
            assert np.all(last == 1.0)
            assert np.all(t.cstar > 0.0) and np.all(t.cstar <= 1.0)

    def test_single_member_fund_is_the_individual(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        ind = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
        one = solve(CollectiveMode.finite(1), base_market, vnm_prefs, mt)
        assert np.max(np.abs(one.z[0] - ind.z)) <= 1e-12
        assert np.max(np.abs(one.cstar[0] - ind.cstar)) <= 1e-12

    def test_two_member_fund_matches_brute_force(self, base_market):
        grid = make_time_grid(0, 1, 3)
        mt = MortalityTable.from_pmf(grid, [0.2, 0.4, 0.4])  # s = (0.8, 0.5, 0)
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

    def test_finite_value_between_individual_and_infinite(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        z1 = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt).z
        z8 = solve(CollectiveMode.finite(8), base_market, vnm_prefs, mt).z[7]
        zinf = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt).z
        ok = np.all(z1[:-1] <= z8[:-1] + 1e-14) and np.all(z8[:-1] <= zinf[:-1] + 1e-14)
        assert ok, "finite-collective value left the [individual, infinite] band"

    def test_divergence_reported_with_location(self):
        grid = make_time_grid(0, 1, 200)
        p = np.zeros(200)
        p[-1] = 1.0
        mt = MortalityTable.from_pmf(grid, p)
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
        mt = MortalityTable.from_pmf(grid, p)
        market = MarketParams(mu=-10.0, r=-10.0, sigma=0.2)
        prefs = Preferences(alpha=-1.0, rho=-3.0, b=0.0)
        with pytest.raises(DivergenceError, match=r"diverged at t=104\.0"):
            solve(CollectiveMode.individual(), market, prefs, mt)
        with pytest.raises(DivergenceError, match=r"diverged at t=104\.0"):
            solve(CollectiveMode.infinite(), market, prefs, mt)
        with pytest.raises(DivergenceError, match=r"survivor count 1 at t=104\.0"):
            solve(CollectiveMode.finite(2), market, prefs, mt)

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
            v = evaluate_policy(extract_strategy(table), mode, base_market, vnm_prefs, mt)
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
                v = evaluate_policy(extract_strategy(table), mode, market, prefs, mt)
                assert v == pytest.approx(table.z_at_start(), rel=1e-10)

    def test_two_point_hand_value(self):
        grid = make_time_grid(0, 1, 2)
        mt = MortalityTable.from_pmf(grid, [0.0, 1.0])
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        strat = Strategy(a=np.zeros(2), c=np.array([0.3, 1.0]))
        v = evaluate_policy(strat, CollectiveMode.individual(), market, prefs, mt)
        assert v == pytest.approx(0.21, abs=1e-12)  # (1/0.3 + 1/0.7)^-1

    def test_perturbing_initial_consumption_hurts(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        mode = CollectiveMode.infinite()
        table = solve(mode, base_market, vnm_prefs, mt)
        base = extract_strategy(table)
        v0 = evaluate_policy(base, mode, base_market, vnm_prefs, mt)
        for dc in (0.01, -0.01):
            pert = extract_strategy(table)
            pert.c[0] += dc
            assert evaluate_policy(pert, mode, base_market, vnm_prefs, mt) < v0

    def test_second_order_flatness_at_optimum(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        mode = CollectiveMode.individual()
        table = solve(mode, base_market, vnm_prefs, mt)
        v0 = evaluate_policy(extract_strategy(table), mode, base_market, vnm_prefs, mt)
        drops = {}
        for h in (1e-2, 1e-3, 1e-4):
            pert = extract_strategy(table)
            pert.c[0] *= 1.0 + h
            drops[h] = v0 - evaluate_policy(pert, mode, base_market, vnm_prefs, mt)
        k_fit = drops[1e-2] / 1e-4
        for h in (1e-3, 1e-4):
            assert drops[h] <= 2.0 * k_fit * h * h

    def test_shape_validation(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        with pytest.raises(ConfigurationError):
            evaluate_policy(
                Strategy(a=np.zeros(3), c=np.full(grid.n_steps, 0.1)),
                CollectiveMode.individual(), base_market, vnm_prefs, mt,
            )
        with pytest.raises(ConfigurationError):
            evaluate_policy(
                Strategy(a=np.zeros(grid.n_steps), c=np.full(grid.n_steps, 1.2)),
                CollectiveMode.individual(), base_market, vnm_prefs, mt,
            )
        # a finite fund needs one rate per survivor count and date
        with pytest.raises(ConfigurationError, match=r"strategy\.c must have shape \(3, "):
            evaluate_policy(
                Strategy(a=np.zeros(grid.n_steps), c=np.full(grid.n_steps, 0.1)),
                CollectiveMode.finite(3), base_market, vnm_prefs, mt,
            )

    @pytest.mark.parametrize("series, value", [("c", math.nan), ("a", math.nan), ("a", math.inf)])
    @pytest.mark.parametrize("mode", [CollectiveMode.infinite(), CollectiveMode.finite(3)], ids=str)
    def test_non_finite_policy_rejected_by_both_callers(
        self, default_table, base_market, vnm_prefs, mode, series, value
    ):
        # NaN passes a range check written as (c < 0) | (c > 1); unchecked,
        # it turns every statistic from its date on into NaN
        grid, mt = default_table
        strategy = extract_strategy(solve(mode, base_market, vnm_prefs, mt))
        getattr(strategy, series)[..., 3] = value
        with pytest.raises(ConfigurationError):
            evaluate_policy(strategy, mode, base_market, vnm_prefs, mt)
        config = SimulationConfig(paths=100, seed=1, mode=mode, policy=strategy)
        with pytest.raises(ConfigurationError):
            simulate(config, grid, base_market, mt)

    def test_subnormal_value_raises(self, default_table, base_market):
        # about 1.96e-315, a subnormal with too few significant bits, where
        # solve raises for the same preferences
        _, mt = default_table
        c = np.full(mt.grid.n_steps, 0.05)
        c[-1] = 1.0
        prefs = Preferences(alpha=0.06001, rho=-5.748, b=0.02)
        with pytest.raises(DivergenceError, match="policy value"):
            evaluate_policy(
                Strategy(a=np.zeros(mt.grid.n_steps), c=c),
                CollectiveMode.infinite(), base_market, prefs, mt,
            )

    def test_zero_consumption_at_a_date(self):
        # a policy that consumes nothing at t=1 has v = 0 there when rho < 0,
        # and v = 0 propagates back to t0 as log v = -inf, not as divergence.
        # Consuming everything at t=1 or t=0 leaves nothing for later dates:
        # in v^rho its continuation factor is 0 (rho > 0) or inf (rho < 0)
        grid = make_time_grid(0, 1, 6)
        mt = MortalityTable.from_pmf(grid, [0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
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
                strat.c[..., k] = rate
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    v = evaluate_policy(strat, mode, market, prefs, mt)
                if value == 0.0:
                    assert v == 0.0
                else:
                    assert v == pytest.approx(value, rel=1e-12)


class TestBackwardDriver:
    def test_single_member_matches_scalar_recursion(self):
        # two dates: the one-member fund is the individual recursion
        # z_0 = (1 + theta^q)^(1/q), theta = beta^(1/rho) exp(xi dt) s^(1/alpha) z_1
        grid = make_time_grid(0, 1, 2)
        s, alpha, rho, b = 0.8, -1.5, -0.5, 0.01
        mt = MortalityTable.from_pmf(grid, [1.0 - s, s])
        market = MarketParams(mu=0.06, r=0.03, sigma=0.15)
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        q = rho / (1.0 - rho)
        table = solve(CollectiveMode.finite(1), market, prefs, mt)
        theta = math.exp(-b / rho) * math.exp(growth_exponent(market, alpha)) * s ** (1.0 / alpha)
        assert table.z[0, 1] == 1.0
        assert table.z[0, 0] == pytest.approx((1.0 + theta**q) ** (1.0 / q), rel=1e-13)
