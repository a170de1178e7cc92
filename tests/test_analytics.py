import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pensionlab.analytics import (
    Direction,
    consumption_direction,
    consumption_drift,
    eis,
    wealth_schedule,
)
from pensionlab.core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    make_time_grid,
)
from pensionlab.mortality import MortalityTable, gompertz_makeham
from pensionlab.solver import CollectiveMode, growth_exponent, optimal_proportion, solve

from conftest import BUNDLED_GOMPERTZ, DISCOUNTS, EXPONENTS, random_mortality
from oracle_pooled import finite_consumption_drift, wealth_mean_loop
from test_solver import random_market, random_prefs

INFINITE = CollectiveMode.infinite()
INDIVIDUAL = CollectiveMode.individual()


class TestWealthSchedule:
    def test_riskless_market_gives_zero_spread(self, mild_table, vnm_prefs):
        grid, mt = mild_table
        market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
        table = solve(CollectiveMode.infinite(), market, vnm_prefs, mt)
        sched = wealth_schedule(table, 1.0)
        assert np.all(sched.sigma_x == 0.0)

    def test_spread_closed_form(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
        sched = wealth_schedule(table, 1.0)
        # four years out: sigma a* sqrt(4), with a* = 7/9
        assert sched.sigma_x[4] == pytest.approx(0.15 * (7.0 / 9.0) * 2.0, rel=1e-12)
        expect = base_market.sigma * abs(table.astar) * np.sqrt(grid.dt * np.arange(grid.n_steps))
        assert np.allclose(sched.sigma_x, expect, rtol=1e-12, atol=1e-15)

    def test_two_periods_certain_survival_halves_wealth(self):
        grid = make_time_grid(0, 1, 2)
        mt = MortalityTable(grid, [0.0, 1.0])
        market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        for mode in (CollectiveMode.individual(), CollectiveMode.infinite()):
            table = solve(mode, market, prefs, mt)
            sched = wealth_schedule(table, 1.0)
            assert sched.mu_x[0] == 0.0
            assert sched.mu_x[1] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_consumption_mean_offset_recomposes_bitwise(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
        sched = wealth_schedule(table, 2.5)
        rho = vnm_prefs.rho
        expect = sched.mu_x + (rho / (rho - 1.0)) * np.log(table.z[0])
        assert np.array_equal(sched.mu_gamma, expect)

    def test_telescoping_against_literal_increments(self, mild_table, base_market):
        grid, mt = mild_table
        prefs = Preferences(alpha=-0.7, rho=-2.0, b=0.02)
        table = solve(CollectiveMode.infinite(), base_market, prefs, mt)
        sched = wealth_schedule(table, 1.0)
        xi_drift = growth_exponent(base_market, 0.0, optimal_proportion(base_market, prefs.alpha))
        mu = math.log(1.0)
        for k in range(grid.n_steps - 1):
            mu += -math.log(mt.s[k]) + math.log1p(-table.cstar[0, k]) + xi_drift * grid.dt
        assert sched.mu_x[-1] == pytest.approx(mu, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        r=st.floats(0.0, 0.05),
        premium=st.floats(0.0, 0.04),
        sigma=st.floats(0.1, 0.3),
        steps=st.integers(2, 120),
        seed=st.integers(0, 2**32 - 1) | st.none(),
        pooling=st.sampled_from([0, 1]),
    )
    def test_matches_date_by_date_loop(
        self, mild_table, alpha, rho, b, r, premium, sigma, steps, seed, pooling
    ):
        # seed None takes the mild Gompertz table in place of a random one
        if seed is None:
            mt = mild_table[1]
        else:
            mt = random_mortality(np.random.default_rng(seed), make_time_grid(0, 1, steps))
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        market = MarketParams(mu=r + premium, r=r, sigma=sigma)
        mode = CollectiveMode.infinite() if pooling else CollectiveMode.individual()
        try:
            table = solve(mode, market, prefs, mt)
        except DivergenceError:
            assume(False)
        want = wealth_mean_loop(table, 3.0)
        assume(np.all(np.isfinite(want)))
        got = wealth_schedule(table, 3.0).mu_x
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("alpha, rho", [(1e-3, 0.5), (-1e-3, -1.0)])
    def test_finite_where_phi_leaves_float_range(self, mild_table, base_market, alpha, rho):
        # phi = beta^(1/rho) exp(xi dt) s^(1/alpha) is 0 or inf in floating
        # point at these exponents, but its logarithm is not
        grid, mt = mild_table
        prefs = Preferences(alpha=alpha, rho=rho, b=0.0)
        for mode in (CollectiveMode.individual(), CollectiveMode.infinite()):
            table = solve(mode, base_market, prefs, mt)
            assert np.isnan(wealth_mean_loop(table, 1.0)[-1])
            sched = wealth_schedule(table, 1.0)
            assert np.all(np.isfinite(sched.mu_x)) and np.all(np.isfinite(sched.mu_gamma))
            assert np.all(np.diff(sched.mu_x) < 0.0)

    def test_finite_mode_rejected(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        table = solve(CollectiveMode.finite(2), base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match="individual and infinite"):
            wealth_schedule(table, 1.0)

    def test_overflowing_wealth_variance_diverges(self):
        # (a* sigma)^2 = 1e310 with Python's float power once raised
        # OverflowError: 34, 'Numerical result out of range'
        mt = MortalityTable(make_time_grid(65, 1, 66), [1.0])
        market = MarketParams(mu=1e154, r=0.0, sigma=10.0)
        table = solve(CollectiveMode.infinite(), market, Preferences(alpha=0.99, rho=-1.0), mt)
        with pytest.raises(DivergenceError, match=r"^log wealth per step has drift -inf and variance inf"):
            wealth_schedule(table, 1.0)

    def test_bad_x0(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError):
            wealth_schedule(table, 0.0)


class TestConsumptionDrift:
    def test_vnm_collectivised_is_flat(self):
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        assert consumption_drift(prefs, market, 0.87, INFINITE) == pytest.approx(0.0, abs=1e-15)

    def test_neutral_parameters(self):
        # mu = r = 0, beta = 1 and certain survival: phi = 1, no drift
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        assert consumption_drift(prefs, market, 1.0, INDIVIDUAL) == 0.0
        assert consumption_drift(prefs, market, 1.0, INFINITE) == 0.0

    def test_continuation_factor_value(self):
        # drift = -C log s + q log phi with q = rho/(1-rho) = -1/2, and
        # phi = s^(1/alpha - C) = 0.9^-2 for the collective at alpha = -1
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        log_phi = (consumption_drift(prefs, market, 0.9, INFINITE) + math.log(0.9)) / -0.5
        assert log_phi == pytest.approx(math.log(0.9**-2), rel=1e-14)

    def test_pooling_shifts_drift_by_survival(self):
        # phi_1 = phi_0 / s, so pooling adds -log(s) (1 + q) = -log(s)/(1-rho)
        rng = np.random.default_rng(21)
        for _ in range(50):
            prefs = random_prefs(rng)
            market = random_market(rng)
            s = float(rng.uniform(0.01, 1.0))
            pooled = consumption_drift(prefs, market, s, INFINITE)
            shift = pooled - consumption_drift(prefs, market, s, INDIVIDUAL)
            assert shift == pytest.approx(-math.log(s) / (1.0 - prefs.rho), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("s", [0.0, -0.1, 1.5, float("nan")])
    def test_survival_outside_unit_interval_rejected(self, s):
        prefs = Preferences(alpha=-1.0, rho=-1.0)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        with pytest.raises(ConfigurationError, match="survival probability"):
            consumption_drift(prefs, market, s, INFINITE)

    def test_fund_of_two_rejected(self, base_market, vnm_prefs):
        # C is 0 or 1: a fund of n >= 2 has no closed form
        with pytest.raises(ConfigurationError, match="^consumption_drift supports individual"):
            consumption_drift(vnm_prefs, base_market, 0.9, CollectiveMode.finite(2))

    def test_satisfaction_averse_collective_increases(self):
        prefs = Preferences(alpha=-2.0, rho=-1.0, b=0.0)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        assert consumption_drift(prefs, market, 0.9, INFINITE) > 0.0

    def test_satisfaction_averse_individual_decreases(self):
        prefs = Preferences(alpha=-2.0, rho=-1.0, b=0.0)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.2)
        assert consumption_drift(prefs, market, 0.9, INDIVIDUAL) < 0.0

    def test_vnm_reduction(self):
        # with alpha = rho, mu = r = 0, beta = 1 the collectivised drift is
        # zero for any survival probability; the individual drift is
        # log(s)/(1-rho), i.e. decreasing whenever s < 1
        rng = np.random.default_rng(2)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.25)
        for _ in range(20):
            rho = float(rng.uniform(-3.0, 0.9))
            if abs(rho) < 0.05:
                rho = -0.5
            prefs = Preferences(alpha=rho, rho=rho, b=0.0)
            s = float(rng.uniform(0.05, 1.0))
            assert consumption_drift(prefs, market, s, INFINITE) == pytest.approx(0.0, abs=1e-13)
            expect = math.log(s) / (1.0 - rho)
            assert consumption_drift(prefs, market, s, INDIVIDUAL) == pytest.approx(expect, rel=1e-12)


ZERO_RETURN = MarketParams(mu=0.0, r=0.0, sigma=0.15)


def _fund_of_200(T, alpha):
    """(table, dates): a fund of 200 at mu = r = 0 and alpha = rho, b = 0, on
    configs/studies.json's table with its grid ending at T, and the dates
    k < n_steps - 1 with survival S_k >= 1e-2 from t0."""
    mt = gompertz_makeham(**BUNDLED_GOMPERTZ, grid=make_time_grid(65, 1, T))
    table = solve(CollectiveMode.finite(200), ZERO_RETURN, Preferences(alpha, alpha, 0.0), mt)
    dates = [k for k in range(mt.grid.n_steps - 1) if mt.tail[k] >= 1e-2]
    assert len(dates) == {90: 24, 95: 26}[T]
    return table, dates


class TestFiniteFundDrift:
    """The abstract's constant-consumption claim in a fund of n.  At mu = r
    = 0 and alpha = rho the infinite fund keeps consumption constant; the
    expected change of log consumption per survivor in a fund of n, d_{m,k}
    (``oracle_pooled.finite_consumption_drift``), is negative at every row
    and date for alpha = rho >= -1, and positive at t0 below it.  The sign
    flips at alpha = rho = -1, where |d| is largest (-6.2e-12 at T = 90,
    m = 200, t0)."""

    @pytest.mark.parametrize("alpha", [-8.0, -3.0, -1.5, -1.05, -1.0, -0.9, -0.5, 0.25, 0.5])
    def test_one_member_row_is_the_individual(self, alpha):
        # measured: at most 1.0e-15; alpha = 0.9 gives 1.1e-13 at the last dates
        table, dates = _fund_of_200(90, alpha)
        for k in dates:
            want = consumption_drift(table.prefs, ZERO_RETURN, float(table.mortality.s[k]), INDIVIDUAL)
            assert abs(finite_consumption_drift(table, 1, k) - want) <= 2e-15

    @pytest.mark.parametrize("T", [90, 95])
    @pytest.mark.parametrize("alpha", [-1.0, -0.9, -0.5, 0.25, 0.5, 0.9])
    def test_falls_from_alpha_rho_minus_one_up(self, T, alpha):
        table, dates = _fund_of_200(T, alpha)
        for m in (2, 5, 20, 200):
            assert all(finite_consumption_drift(table, m, k) < 0.0 for k in dates)

    @pytest.mark.parametrize("T", [90, 95])
    @pytest.mark.parametrize("alpha", [-1.05, -1.5, -3.0, -8.0])
    def test_rises_at_t0_below_alpha_rho_minus_one(self, T, alpha):
        # measured: 1.2e-10 to 1.8e-8
        table, _ = _fund_of_200(T, alpha)
        assert finite_consumption_drift(table, 200, 0) > 0.0

    def test_vanishes_like_the_inverse_square_of_the_survivors(self):
        # alpha = rho = -1 at age 75 on the grid ending at 90: -1.25e-8 at
        # m = 100 and -1.25e-10 at m = 1000, a local exponent of -2.00
        mt = gompertz_makeham(**BUNDLED_GOMPERTZ, grid=make_time_grid(65, 1, 90))
        table = solve(CollectiveMode.finite(1000), ZERO_RETURN, Preferences(-1.0, -1.0, 0.0), mt)
        k = int(np.flatnonzero(mt.grid.points == 75.0)[0])
        d100, d1000 = (finite_consumption_drift(table, m, k) for m in (100, 1000))
        assert -2.05 <= math.log(d1000 / d100) / math.log(10.0) <= -1.95


class TestConsumptionDirection:
    # (alpha, rho) representatives for each parameter row, with the expected
    # (collectivised, individual) behaviour
    CASES = [
        ((-2.0, -1.0), Direction.INCREASING, Direction.DECREASING),   # alpha < rho < 0
        ((-1.0, 0.5), Direction.INCREASING, Direction.INCREASING),    # alpha < 0 < rho
        ((0.25, 0.5), Direction.DECREASING, Direction.DECREASING),    # 0 < alpha < rho
        ((-1.0, -1.0), Direction.CONSTANT, Direction.DECREASING),     # alpha = rho < 0
        ((0.5, 0.5), Direction.CONSTANT, Direction.DECREASING),       # 0 < alpha = rho
    ]

    @pytest.mark.parametrize("params,collective,individual", CASES)
    def test_direction_table(self, params, collective, individual):
        prefs = Preferences(alpha=params[0], rho=params[1], b=0.0)
        assert consumption_direction(prefs, INFINITE) is collective
        assert consumption_direction(prefs, INDIVIDUAL) is individual

    def test_fund_of_two_rejected(self, vnm_prefs):
        with pytest.raises(ConfigurationError, match="^consumption_direction supports individual"):
            consumption_direction(vnm_prefs, CollectiveMode.finite(2))


class TestEIS:
    def test_no_premium_simplification(self):
        prefs = Preferences(alpha=-2.5, rho=-1.0)
        market = MarketParams(mu=0.03, r=0.03, sigma=0.2)
        assert eis(prefs, market) == 0.5

    def test_vnm_closed_form(self):
        prefs = Preferences(alpha=-1.0, rho=-1.0)
        market = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        expect = 0.5 * (1.0 - 0.035 / 0.0225)
        assert eis(prefs, market) == pytest.approx(expect, rel=1e-12)
        assert eis(prefs, market) == pytest.approx(-0.27778, abs=5e-6)

    def test_signature_admits_no_time_or_mortality(self):
        import inspect

        params = list(inspect.signature(eis).parameters)
        assert params == ["prefs", "market"]

    def test_matches_finite_difference_of_drift(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 10:
            prefs = random_prefs(rng)
            market = random_market(rng)
            analytic = eis(prefs, market)
            if abs(analytic) < 0.05:
                continue
            fd = _fd_eis(prefs, market, s=0.9, mode=INFINITE)
            assert fd == pytest.approx(analytic, rel=1e-6)
            # the elasticity does not depend on survival or pooling
            fd = _fd_eis(prefs, market, s=0.4, mode=INDIVIDUAL)
            assert fd == pytest.approx(analytic, rel=1e-6)
            done += 1


def _fd_eis(prefs, market, s, mode, h=1e-5, dt=1.0):
    up = MarketParams(mu=market.mu, r=market.r + h, sigma=market.sigma)
    dn = MarketParams(mu=market.mu, r=market.r - h, sigma=market.sigma)
    return (
        consumption_drift(prefs, up, s, mode, dt) - consumption_drift(prefs, dn, s, mode, dt)
    ) / (2.0 * h * dt)
