import json
import math
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pensionlab import studies
from pensionlab.cli import parse_config
from pensionlab.core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    make_time_grid,
)
from pensionlab.mortality import MortalityTable, annuity_factor, gompertz_makeham
from pensionlab.solver import CollectiveMode, Strategy, evaluate_policy, solve
from pensionlab.studies import (
    annuity_outperformance,
    annuity_utility,
    convergence_study,
    improvement,
    run_scenarios,
)

from conftest import DISCOUNTS, EXPONENTS, random_mortality
from oracle_pooled import annuity_loop, decimal_start_value, zero_return_outperformance


class TestAnnuityUtility:
    def test_certain_survival_k_periods(self):
        grid = make_time_grid(0, 1, 4)
        p = [0.0, 0.0, 0.0, 1.0]
        mt = MortalityTable(grid, p)
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        # k periods of certain consumption: U = k^(1/rho) = 1/4
        assert annuity_utility(mt, prefs) == pytest.approx(0.25, abs=1e-14)

    def test_single_period(self):
        grid = make_time_grid(0, 1, 1)
        mt = MortalityTable(grid, [1.0])
        prefs = Preferences(alpha=-2.0, rho=-0.5, b=0.1)
        assert annuity_utility(mt, prefs) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        steps=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1) | st.none(),
    )
    def test_matches_linear_loop(self, mild_table, alpha, rho, b, steps, seed):
        # seed None takes the mild Gompertz table in place of a random one
        if seed is None:
            mt = mild_table[1]
        else:
            mt = random_mortality(np.random.default_rng(seed), make_time_grid(0, 1, steps))
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        want = annuity_loop(mt, prefs)
        assume(0.0 < want < math.inf)
        if want < np.finfo(float).tiny:  # subnormal: too few bits to divide by
            with pytest.raises(DivergenceError, match="annuity utility"):
                annuity_utility(mt, prefs)
        else:
            assert annuity_utility(mt, prefs) == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_log_space_survives_where_the_loop_overflows(self, studies_config):
        # U^rho overflows in the loop, and inf^(1/rho) is exactly 0
        prefs = Preferences(alpha=0.3, rho=-7.0, b=0.0)
        mt = studies_config.mortality
        assert annuity_loop(mt, prefs) == 0.0
        u = annuity_utility(mt, prefs)
        assert 0.0 < u < 1e-60
        scenarios = [sc[1:] for sc in studies_config.scenarios]  # (mu, r, n) without the id
        o = run_scenarios(scenarios, studies_config.market.sigma, prefs, mt)
        assert np.all(np.isfinite(o))

    def test_zero_utility_raises(self, studies_config):
        # log U is about -770: U underflows, so every equivalent would divide
        # by 0; the infinite fund's z (about 2e-314) is subnormal, too few
        # significant bits to print, and diverges as well
        prefs = Preferences(alpha=0.06001, rho=-5.748, b=0.02)
        mt = studies_config.mortality
        with pytest.raises(DivergenceError, match="diverged at t="):
            solve(CollectiveMode.infinite(), studies_config.market, prefs, mt)
        with pytest.raises(DivergenceError, match="annuity utility"):
            annuity_utility(mt, prefs)

    def test_subnormal_utility_raises(self):
        # log U is about -713: U = 1.57e-310 is positive but carries too few
        # significant bits for the outperformance that divides by it
        mt = MortalityTable(make_time_grid(0, 1, 2), [0.51, 0.49])
        with pytest.raises(DivergenceError, match="annuity utility"):
            annuity_utility(mt, Preferences(alpha=0.001, rho=-1.0, b=0.0))


class TestAnnuityOutperformance:
    def test_vnm_flat_market_collective_replicates_annuity(self):
        # mu = r = 0, alpha = rho, infinite pooling: zero for any mortality
        rng = np.random.default_rng(51)
        market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
        for steps in (5, 17, 40):
            grid = make_time_grid(0, 1, steps)
            mt = random_mortality(rng, grid)
            for rho in (-1.0, -2.5, 0.5):
                prefs = Preferences(alpha=rho, rho=rho, b=0.0)
                table = solve(CollectiveMode.infinite(), market, prefs, mt)
                out = annuity_outperformance(table)
                assert abs(out) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.floats(-0.05, 0.15),
        r=st.floats(-0.05, 0.1),
        sigma=st.floats(0.05, 0.4),
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        n=st.sampled_from([None, 1, 4]),
        budget=st.floats(1e-3, 1e7),
    )
    def test_unit_pricing_matches_budget_scaled(
        self, default_table, mu, r, sigma, alpha, rho, b, n, budget
    ):
        # the annuity equivalent at a budget, budget z0 / U(1) * ä, over the
        # budget: within 4 ulp of 1 + o at every budget.  z0 / U(1) comes
        # first, as budget z0 overflows where z0 and U(1) are near 1e304.
        _, mt = default_table
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        try:
            (o,) = run_scenarios([(mu, r, n)], sigma, prefs, mt)
        except DivergenceError:
            assume(False)
        table = solve(CollectiveMode(n), MarketParams(mu=mu, r=r, sigma=sigma), prefs, mt)
        gamma_star = budget * (table.z_at_start() / annuity_utility(mt, prefs))
        scaled = gamma_star * annuity_factor(mt, r) / budget - 1.0
        assert abs(o - scaled) <= 4 * np.spacing(1.0 + scaled)

    def test_pooling_beats_individual(self, default_table, mild_table, base_market, vnm_prefs):
        for grid, mt in (default_table, mild_table):
            inf_t = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
            ind_t = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
            o_inf = annuity_outperformance(inf_t)
            o_ind = annuity_outperformance(ind_t)
            assert o_inf > o_ind

    def test_equity_premium_helps(self, default_table, vnm_prefs):
        grid, mt = default_table
        with_premium = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        without = MarketParams(mu=0.027, r=0.027, sigma=0.15)
        mode = CollectiveMode.infinite()
        o_with = annuity_outperformance(solve(mode, with_premium, vnm_prefs, mt))
        o_without = annuity_outperformance(solve(mode, without, vnm_prefs, mt))
        assert o_with > o_without


class TestZeroReturnClosedForm:
    """At mu = r = 0 the infinite fund's outperformance has a closed form
    (``oracle_pooled.zero_return_outperformance``) that shares no recursion
    with ``solve`` or ``annuity_utility``."""

    FLAT = MarketParams(mu=0.0, r=0.0, sigma=0.15)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.integers(-100, 18).filter(bool),
        r=st.integers(-100, 18).filter(bool),
        same=st.booleans(),
        b=st.just(0.0) | st.floats(0.01, 0.05),
        steps=st.integers(2, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_closed_form(self, a, r, same, b, steps, seed):
        # alpha and rho on the 0.05 lattice of [-5, 0.9], often equal
        alpha, rho = a / 20, (a if same else r) / 20
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        mt = random_mortality(np.random.default_rng(seed), make_time_grid(0, 1, steps))
        o = annuity_outperformance(solve(CollectiveMode.infinite(), self.FLAT, prefs, mt))
        closed = zero_return_outperformance(prefs, mt)
        assert abs(o - closed) <= 1e-10 * (1.0 + closed)
        # without discounting the annuity's level income is optimal only at
        # alpha = rho; with it (b > 0) not even there
        if b == 0.0 and alpha == rho:
            assert abs(o) <= 1e-12
        elif b == 0.0:
            assert o > 0.0 and closed > 0.0

    @pytest.mark.parametrize(
        "alpha, rho, b",
        [(-1.0, -1.0, 0.0), (-2.0, -1.0, 0.0), (-1.0, -2.0, 0.0), (0.5, -1.0, 0.0),
         (-3.0, 0.5, 0.0), (-1.0, -1.0, 0.01), (-2.0, -0.5, 0.02), (-5.0, -1.0, 0.03),
         (0.5, 0.5, 0.04), (-1.0, -3.0, 0.05)],
    )
    def test_bundled_table(self, default_table, alpha, rho, b):
        _, mt = default_table
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        o = annuity_outperformance(solve(CollectiveMode.infinite(), self.FLAT, prefs, mt))
        closed = zero_return_outperformance(prefs, mt)
        assert abs(o - closed) <= 1e-13 * (1.0 + closed)


def _annuity_strategy(mt, r):
    """Infinite-fund strategy that buys the level annuity: no stock, and
    consumption rate 1 / a_k at date k, a_k being the annuity factor of the
    survivors at k, so that consumption per survivor stays constant."""
    n = mt.grid.n_steps
    disc = np.exp(-r * mt.grid.dt * np.arange(n))
    due = np.array([np.dot(disc[: n - k], mt.tail[k:]) for k in range(n)])  # a_k tail_k
    return Strategy(CollectiveMode.infinite(), a=np.zeros(n), c=(mt.tail / due)[np.newaxis])


class TestAnnuityStrategy:
    """The abstract's claim that annuities are suboptimal, checked with
    ``evaluate_policy`` on the annuity-buying strategy.  alpha > 0 is left
    out: there the last grid dates dominate both values, and the two
    recursions agree only to about 1e-7."""

    FLAT = MarketParams(mu=0.0, r=0.0, sigma=0.15)
    EXPONENTS = (-5.0, -2.0, -1.0, -0.5)

    @pytest.mark.parametrize("alpha", EXPONENTS)
    @pytest.mark.parametrize("rho", EXPONENTS)
    def test_policy_value_is_annuity_utility(self, default_table, alpha, rho):
        # evaluate_policy's fixed-rate rule against annuity_utility's level rule
        _, mt = default_table
        prefs = Preferences(alpha=alpha, rho=rho, b=0.0)
        for market in (self.FLAT, MarketParams(mu=0.04, r=0.01, sigma=0.15)):
            v = evaluate_policy(_annuity_strategy(mt, market.r), market, prefs, mt)
            u = annuity_utility(mt, prefs) / annuity_factor(mt, market.r)  # gamma U(1)
            assert v == pytest.approx(u, rel=1e-9)

    @pytest.mark.parametrize("alpha", EXPONENTS)
    @pytest.mark.parametrize("rho", EXPONENTS)
    def test_annuity_suboptimal_unless_alpha_equals_rho(self, default_table, alpha, rho):
        _, mt = default_table
        prefs = Preferences(alpha=alpha, rho=rho, b=0.0)
        mode = CollectiveMode.infinite()
        v = evaluate_policy(_annuity_strategy(mt, 0.0), self.FLAT, prefs, mt)
        z = solve(mode, self.FLAT, prefs, mt).z_at_start()
        if alpha == rho:
            assert z == pytest.approx(v, rel=1e-12)
        else:
            assert z >= v * (1.0 + 1e-3)


class TestImprovement:
    def test_reference_pairs(self):
        # frozen outperformance pairs and their improvement ratios
        assert improvement(0.591, 0.205) == pytest.approx(0.32, abs=0.005)
        assert improvement(0.591, 0.013) == pytest.approx(0.57, abs=0.005)

    def test_identity(self):
        assert improvement(0.37, 0.37) == 0.0

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            ra, rb = rng.uniform(-0.5, 2.0, size=2)
            prod = (1.0 + improvement(ra, rb)) * (1.0 + improvement(rb, ra))
            assert prod == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            improvement(0.1, -1.0)
        with pytest.raises(ConfigurationError):
            improvement(0.1, math.nan)

    def test_elementwise_matches_scalar(self):
        ra, rb = np.random.default_rng(11).uniform(-0.9, 2.0, size=(2, 200))
        got = improvement(ra, rb)
        assert got.dtype == np.float64
        assert got.tolist() == [improvement(x, y) for x, y in zip(ra.tolist(), rb.tolist())]

    def test_array_domain_names_the_baseline(self):
        rb = np.full(1000, 0.25)
        rb[617] = -1.375
        with pytest.raises(ConfigurationError, match=r"got -1\.375$") as err:
            improvement(np.zeros(1000), rb)
        assert "0.25" not in str(err.value)


class TestScenarios:
    def test_scenario_ordering(self, default_table, vnm_prefs):
        grid, mt = default_table
        o = run_scenarios(
            [(0.062, 0.027, None), (0.062, 0.027, 1), (0.027, 0.027, None), (0.0, 0.0, None)],
            0.15, vnm_prefs, mt,
        )
        assert o.dtype == np.float64 and o.shape == (4,)
        assert o[0] > o[1] > o[2] > abs(o[3]) - 1e-10
        assert abs(o[3]) <= 1e-10

    def test_each_size_solves_its_mode(self, default_table):
        # a market's smaller sizes are read from the table of its largest,
        # whose row blocks can be wider than their own solve's, and n = 1 alone
        # is a closed form: equal to rounding; the largest size and the
        # infinite fund are their own solve to the bit
        _, mt = default_table
        sizes = (None, 1, 2, 10, 127, 128, 129, 300)
        markets = [(0.062, 0.027), (0.027, 0.027), (0.09, 0.01)]
        scenarios = [(mu, r, n) for mu, r in markets for n in sizes]
        for alpha, rho, b in [(-1.0, -1.0, 0.0), (-3.0, -1.0, 0.02), (-5.0, -0.5, 0.0),
                              (-0.5, 0.5, 0.0)]:
            prefs = Preferences(alpha=alpha, rho=rho, b=b)
            o = run_scenarios(scenarios, 0.15, prefs, mt)
            for (mu, r, n), got in zip(scenarios, o.tolist()):
                market = MarketParams(mu=mu, r=r, sigma=0.15)
                own = annuity_outperformance(solve(CollectiveMode(n), market, prefs, mt))
                if n in (None, 300):
                    assert got == own, (alpha, rho, mu, r, n)
                else:
                    assert abs((1.0 + got) / (1.0 + own) - 1.0) <= 1e-12, (alpha, rho, mu, r, n)

    def test_one_finite_solve_per_market(self, default_table, vnm_prefs, monkeypatch):
        # each market is solved at its largest size, and at most once infinite
        _, mt = default_table
        calls = []
        own = studies.solve
        monkeypatch.setattr(studies, "solve", lambda mode, market, *args: (
            calls.append((market.mu, market.r, mode.n)) or own(mode, market, *args)
        ))
        run_scenarios(
            [(0.062, 0.027, n) for n in [None, 1, 3, None, 1]]
            + [(0.027, 0.027, n) for n in [2, 1, 2]],
            0.15, vnm_prefs, mt,
        )
        assert Counter(calls) == Counter(
            [(0.062, 0.027, 3), (0.062, 0.027, None), (0.027, 0.027, 2)]
        )

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(-8.0, -0.05),
        rho=st.floats(-8.0, -0.05) | st.floats(0.05, 0.9),
        b=st.sampled_from([0.0, 0.02]),
        r=st.floats(-0.02, 0.06),
        premium=st.floats(0.0, 0.08, exclude_min=True),
        sigma=st.floats(0.05, 0.4),
    )
    def test_infinite_fund_beats_the_annuity(
        self, default_table, alpha, rho, b, r, premium, sigma
    ):
        # the abstract's claim, across markets: an annuity is never better
        _, mt = default_table
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        try:
            (o,) = run_scenarios([(r + premium, r, None)], sigma, prefs, mt)
        except DivergenceError:
            assume(False)
        assert o >= -1e-12

    def test_annuity_priced_once_per_call(self, default_table, vnm_prefs, monkeypatch):
        grid, mt = default_table
        calls = []
        price = studies.annuity_utility
        monkeypatch.setattr(
            studies, "annuity_utility", lambda *args: calls.append(args) or price(*args)
        )
        run_scenarios(
            [(0.062, 0.027, n) for n in [None, 1, 3, None, 1]],
            0.15, vnm_prefs, mt,
        )
        assert len(calls) == 1

    def test_empty_rejected(self, default_table, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError):
            run_scenarios([], 0.15, vnm_prefs, mt)
        for n in (2.7, 1.5):  # not solved as finite:2 or as the individual
            with pytest.raises(ConfigurationError, match=f"must be an integer, got {n}"):
                run_scenarios([(0.062, 0.027, n)], 0.15, vnm_prefs, mt)

    def test_scenarios_and_converge_price_alike(self, studies_config):
        # the two CLI commands report the infinite fund's outperformance to
        # the bit, and the one-member fund's when both read it from a table
        # of the same size
        cfg = studies_config
        _, mu, r, _ = cfg.scenarios[0]
        market = MarketParams(mu=float(mu), r=float(r), sigma=cfg.market.sigma)
        assert cfg.n_list[0] == 1 and cfg.n_list[-1] == 1024
        o_inf, o_1, o_1024 = run_scenarios(
            [(market.mu, market.r, n) for n in (None, 1, 1024)],
            market.sigma, cfg.prefs, cfg.mortality,
        )
        study = convergence_study(cfg.n_list, market, cfg.prefs, cfg.mortality)
        assert o_inf == study.infinite_outperformance
        assert (o_1, o_1024) == (study.outperformance[0], study.outperformance[-1])


class TestFundSizeStudy:
    def test_small_fund_ladder(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        ns = [1, 2, 4, 8, 16, 32, 64]
        rep = convergence_study(ns, base_market, vnm_prefs, mt)
        # n = 1 coincides with the individual problem
        ind = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
        o_ind = annuity_outperformance(ind)
        assert rep.outperformance[0] == pytest.approx(o_ind, abs=1e-12)
        values = rep.outperformance
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:])), (
            "outperformance failed to grow with fund size"
        )
        assert values[-1] < rep.infinite_outperformance
        assert rep.n_at_90pct is not None and rep.n_at_90pct <= 64

    def test_outperformance_prices_each_size(self, default_table, base_market, vnm_prefs):
        # the study's unit-budget pricing is annuity_outperformance of each solve
        grid, mt = default_table
        ns = [1, 3, 12]
        rep = convergence_study(ns, base_market, vnm_prefs, mt)
        for n, o in zip(ns, rep.outperformance):
            table = solve(CollectiveMode.finite(n), base_market, vnm_prefs, mt)
            assert o == pytest.approx(annuity_outperformance(table), abs=1e-12)
        table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
        assert rep.infinite_outperformance == pytest.approx(
            annuity_outperformance(table), abs=1e-12
        )

    def test_n_at_90pct_on_bundled_market(self, studies_config):
        cfg = studies_config
        rep = convergence_study(cfg.n_list, cfg.market, cfg.prefs, cfg.mortality)
        assert rep.n_at_90pct == 16

    def test_n_at_90pct_measures_the_pooling_benefit(self, studies_config):
        # o_inf is within rounding of 0 here, so o_n >= 0.9 o_inf never held
        market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
        ns = [2**k for k in range(13)]
        rep = convergence_study(ns, market, studies_config.prefs, studies_config.mortality)
        o_1 = rep.outperformance[0]
        assert o_1 == pytest.approx(-0.0967, abs=1e-4)
        assert abs(rep.infinite_outperformance) < 1e-12
        gains = {
            n: (o - o_1) / (rep.infinite_outperformance - o_1)
            for n, o in zip(ns, rep.outperformance)
        }
        assert gains[16] < 0.9 <= gains[32]
        assert rep.n_at_90pct == 32

    def test_size_order_validated(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError):
            convergence_study([4, 2], base_market, vnm_prefs, mt)


@pytest.fixture(scope="module")
def report(default_table, base_market, vnm_prefs):
    grid, mt = default_table
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    return convergence_study(ns, base_market, vnm_prefs, mt), ns


class TestConvergenceStudy:
    def test_differences_strictly_decreasing(self, report):
        rep, _ = report
        diffs = np.abs(rep.z_n - rep.z_infinity)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_local_exponents(self, report):
        rep, ns = report
        diffs = np.abs(rep.z_n - rep.z_infinity)
        assert len(rep.z_n) == len(ns) and math.isnan(rep.local_exponent[0])
        for j in range(1, len(ns)):
            expected = math.log(diffs[j] / diffs[j - 1]) / math.log(ns[j] / ns[j - 1])
            assert rep.local_exponent[j] == pytest.approx(expected, rel=1e-12)

    def test_root_n_bound_from_anchor(self, report):
        rep, ns = report
        assert rep.bound_anchor == 4
        for n, zn in zip(ns, rep.z_n):
            if n >= rep.bound_anchor:
                assert abs(zn - rep.z_infinity) <= rep.bound_constant * n**-0.5 * (1 + 1e-12)

    def test_fitted_exponent_at_least_root_n(self, report):
        rep, _ = report
        assert rep.fit_exponent <= -0.4

    def test_bound_shape_on_other_mortality(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        ns = [1, 2, 4, 8, 16, 32, 64]
        rep = convergence_study(ns, base_market, vnm_prefs, mt)
        for n, zn in zip(ns, rep.z_n):
            if n >= rep.bound_anchor:
                assert abs(zn - rep.z_infinity) <= rep.bound_constant * n**-0.5 * (1 + 1e-12)

    def test_validation(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError, match="decade"):
            convergence_study([2, 4, 8], base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match="increasing"):
            convergence_study([8, 4, 2, 64], base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match="at least one fund size"):
            convergence_study([], base_market, vnm_prefs, mt)
        for sizes, first in (
            ([1, 2.9, 10.5, 100.2], "2.9"), ([1, math.nan, 100], "nan"),
            ([True, 20], "True"), (["3"], "'3'"),  # True is not n = 1; a string is no size
            ([None, 20], "None"),  # None is the infinite fund, not a size
        ):
            with pytest.raises(ConfigurationError, match=f"must be an integer, got {first}"):
                convergence_study(sizes, base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match="exceeds the supported cap 10000"):
            convergence_study([1, 10, 10001], base_market, vnm_prefs, mt)

    @pytest.mark.parametrize("T, hazard", [(66, (0.0, 1e-3, 0.1)), (68, (0.0, 0.0, 0.0))],
                             ids=["one-grid-point", "zero-hazard"])
    def test_no_rate_to_fit_when_z_n_equals_z_inf(self, vnm_prefs, T, hazard):
        # every fund is worth the infinite fund's to the bit here: log 0 once
        # made the fit NaN, which the CLI printed with exit 0
        market = MarketParams(mu=0.05, r=0.02, sigma=0.15)
        mt = gompertz_makeham(*hazard, make_time_grid(65, 1, T))
        with pytest.raises(ConfigurationError, match="at n = 1: there is no rate to fit"):
            convergence_study([1, 10, 100], market, vnm_prefs, mt)


class TestPooledPrecision:
    def test_start_value_matches_40_digit_reference(self, studies_config):
        # a few ulps of z_0: the closed-form sum is within 9.1e-16 here
        cfg = studies_config
        for _, mu, r, _ in cfg.scenarios:
            market = MarketParams(mu=float(mu), r=float(r), sigma=cfg.market.sigma)
            for pooling, mode in ((0, CollectiveMode.individual()), (1, CollectiveMode.infinite())):
                z0 = solve(mode, market, cfg.prefs, cfg.mortality).z_at_start()
                want = decimal_start_value(pooling, market, cfg.prefs, cfg.mortality)
                assert abs(Decimal(z0) / want - 1) <= Decimal("2e-15"), (mu, r, mode)


@pytest.fixture(scope="module")
def studies_config():
    configs = Path(__file__).resolve().parents[1] / "configs"
    return parse_config(json.loads((configs / "studies.json").read_text()), configs)


def _study(cfg, prefs, n_list):
    return convergence_study(n_list, cfg.market, prefs, cfg.mortality)


class TestConvergenceRegimes:
    """The large-n rate depends on the preferences, so n^(-1/2) is no law."""

    @pytest.mark.parametrize(
        "alpha, rho, lo, hi",
        [(None, None, -1.0, -0.9), (-5.0, -0.5, -0.6, -0.4)],
        ids=["config-preferences", "alpha-5-rho-0.5"],
    )
    def test_exponent_from_2048_to_8192(self, studies_config, alpha, rho, lo, hi):
        prefs = studies_config.prefs
        if alpha is not None:
            prefs = Preferences(alpha=alpha, rho=rho, b=prefs.b)
        rep = _study(studies_config, prefs, [1, 2048, 8192])
        assert lo <= rep.local_exponent[-1] <= hi

    def test_linear_in_n_without_convergence(self, studies_config):
        prefs = Preferences(alpha=0.5, rho=-1.0, b=studies_config.prefs.b)
        ns = np.arange(1, 4097)
        rep = _study(studies_config, prefs, ns)
        assert np.max(np.abs(rep.z_n / (ns * rep.z_n[0]) - 1.0)) <= 1e-9
        # z_n is negligible against z_inf, so the gap does not shrink
        assert rep.local_exponent[-1] > -0.25
