import ast
import json
import math
import re
import tracemalloc
from collections import Counter
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pensionlab import solver, studies
from pensionlab._kernels import _row_windows, _windows
from pensionlab.cli import parse_config
from pensionlab.core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    make_time_grid,
)
from pensionlab.mortality import MortalityTable, annuity_factor, gompertz_makeham
from pensionlab.solver import CollectiveMode, Strategy, annuity_utility, evaluate_policy, solve
from pensionlab.studies import (
    annuity_outperformance,
    convergence_study,
    improvement,
    run_scenarios,
)

from conftest import DISCOUNTS, EXPONENTS, MORTALITY, random_mortality
from oracle_pooled import (
    annuity_loop,
    decimal_start_value,
    first_order_coefficient,
    zero_return_outperformance,
)


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

    @settings(max_examples=200, deadline=None)
    @given(
        dt=st.sampled_from([1.0, 0.5, 0.25]),
        steps=st.integers(2, 59),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([-5.0, -3.0, -1.0, -0.5, 0.3, 0.5, 0.9]),
        r=st.floats(0.0, 0.08),
    )
    def test_replicates_annuity_exactly_when_discount_equals_rate(self, dt, steps, seed, alpha, r):
        # at alpha = rho and mu = r the infinite fund holds no stock and
        # consumes level income, the annuity's, exactly when b = r (so b = 0
        # only at r = 0); a discount or an equity premium off that case
        # makes it strictly better
        mt = random_mortality(np.random.default_rng(seed), make_time_grid(0, dt, steps * dt))

        def outperformance(mu, b):
            prefs = Preferences(alpha=alpha, rho=alpha, b=b)
            table = solve(CollectiveMode.infinite(), MarketParams(mu=mu, r=r, sigma=0.15), prefs, mt)
            return annuity_outperformance(table)

        assert abs(outperformance(r, r)) <= 1e-13
        assert outperformance(r, r + 0.01) > 1e-12
        assert outperformance(r + 0.01, r) > 1e-12

    @settings(max_examples=1000, deadline=None)
    @given(
        r=st.floats(0.0, 0.08),
        sigma=st.floats(0.05, 0.4),
        rho=EXPONENTS,
        premium=st.just(0.0) | st.floats(1e-3, 0.1),
        discount=st.just(0.0) | st.floats(1e-3, 0.1) | st.floats(-0.1, -1e-3),
        spread=st.just(0.0) | st.floats(1e-2, 1.0) | st.floats(-1.0, -1e-2),
    )
    def test_beats_the_annuity_strictly_off_the_replicating_case(
        self, studies_config, r, sigma, rho, premium, discount, spread
    ):
        # the abstract's claim on the bundled studies table: the infinite
        # fund beats a fair annuity by o > 1e-10 once mu - r >= 1e-3,
        # |b - r| >= 1e-3 or |alpha - rho| >= 1e-2, and ties it at mu = r,
        # b = r and alpha = rho.  Measured over about 30,000 random draws
        # off the tie, the smallest o was 2.6e-6, 2.0e-6 and 2.0e-9 at each
        # smallest offset alone, of either sign, near rho = -8 and r = 0.08;
        # over 30,000 draws at the tie, the largest |o| was 2.3e-13
        try:
            prefs = Preferences(alpha=rho + spread, rho=rho, b=r + discount)
            market = MarketParams(mu=r + premium, r=r, sigma=sigma)
            o = annuity_outperformance(
                solve(CollectiveMode.infinite(), market, prefs, studies_config.mortality)
            )
        except (ConfigurationError, DivergenceError):  # alpha >= 1 or 0, b < 0, or no finite value
            assume(False)
        if premium == discount == spread == 0.0:
            assert abs(o) <= 1e-12
        else:
            assert o > 1e-10

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
        # a market's smaller sizes n >= 2 are read from the table of its
        # largest, whose row blocks can be wider than their own solve's: equal
        # to rounding; n = 1, the largest size and the infinite fund are their
        # own solve to the bit
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
                if n in (None, 1, 300):
                    assert got == own, (alpha, rho, mu, r, n)
                else:
                    assert abs((1.0 + got) / (1.0 + own) - 1.0) <= 1e-12, (alpha, rho, mu, r, n)

    def test_one_finite_solve_per_market(self, default_table, vnm_prefs, monkeypatch):
        # each market solves the one-member and the infinite fund once as
        # the bracket of its sizes n >= 2, which it solves in one pruned
        # pass, and then once more each where it lists them
        _, mt = default_table
        calls, plans = [], []
        own_solve, own_plan = solver.solve, solver._row_plan
        monkeypatch.setattr(solver, "solve", lambda mode, market, *args: (
            calls.append((market.mu, market.r, mode.n)) or own_solve(mode, market, *args)
        ))
        monkeypatch.setattr(solver, "_row_plan", lambda counts, *args: (
            plans.append(tuple(counts.tolist())) or own_plan(counts, *args)
        ))
        run_scenarios(
            [(0.062, 0.027, n) for n in [None, 1, 3, None, 1]]
            + [(0.027, 0.027, n) for n in [2, 1, 2]],
            0.15, vnm_prefs, mt,
        )
        assert calls == [(0.062, 0.027, n) for n in (1, None, 1, None)] + [
            (0.027, 0.027, n) for n in (1, None, 1)
        ]
        assert plans == [(3,), (2,)]

    def test_bundled_scenarios_solve_only_what_they_list(self, studies_config, monkeypatch):
        # no size n >= 2 is listed, so nothing needs a bracket: one individual
        # solve where n = 1 is listed, one infinite solve per market
        cfg = studies_config
        calls = []
        own = solver.solve
        monkeypatch.setattr(solver, "solve", lambda mode, market, *args: (
            calls.append((market.mu, market.r, mode.n)) or own(mode, market, *args)
        ))
        run_scenarios([(float(mu), float(r), n) for _, mu, r, n in cfg.scenarios],
                      cfg.market.sigma, cfg.prefs, cfg.mortality)
        assert Counter(calls) == Counter(
            [(0.062, 0.027, 1), (0.062, 0.027, None), (0.027, 0.027, None), (0.0, 0.0, None)]
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
        # the two CLI commands report the infinite and the one-member fund's
        # outperformance to the bit, and a size n >= 2's when both read it
        # from a table of the same size
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
        # n = 1 is the individual problem's own solve, to the bit
        ind = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
        assert rep.z_n[0] == ind.z_at_start()
        assert rep.outperformance[0] == annuity_outperformance(ind)
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

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 10_000), min_size=2, max_size=14, unique=True),
        slope=st.floats(-2.0, 0.0),
        intercept=st.floats(-30.0, 0.0),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=14, max_size=14),
    )
    def test_line_fit_matches_polyfit(self, sizes, slope, intercept, noise):
        # the closed-form fit is np.polyfit's line up to rounding
        log_n = np.log(np.array(sorted(sizes), dtype=float))
        log_diffs = intercept + slope * log_n + np.array(noise[:log_n.size])
        got = studies._line_fit(log_n, log_diffs)
        want = np.polyfit(log_n, log_diffs, 1)
        assert got == pytest.approx(tuple(want), rel=1e-12, abs=1e-12)

    def test_fit_calls_no_lapack(self, default_table, base_market, vnm_prefs, monkeypatch):
        # the rate fit is closed form: the study runs with polyfit and lstsq gone
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK least squares called")

        grid, mt = default_table
        ns = [1, 2, 4, 8, 16, 32, 64, 128]
        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        rep = convergence_study(ns, base_market, vnm_prefs, mt)
        monkeypatch.undo()
        slope, intercept = np.polyfit(np.log(ns), np.log(np.abs(rep.z_n - rep.z_infinity)), 1)
        assert rep.fit_exponent == pytest.approx(slope, rel=1e-12)
        assert rep.fit_constant == pytest.approx(math.exp(intercept), rel=1e-12)

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

    @pytest.mark.parametrize("alpha, rho", [(-1.0, -1.0), (-3.0, -1.0), (-5.0, -0.5), (-0.5, 0.5)])
    def test_first_order_term_on_the_grid_ending_at_90(self, alpha, rho):
        """z_n = z_inf + c_0 / n + O(n^-2), c_0 from the infinite table's
        backward pass (``oracle_pooled.first_order_coefficient``).  Measured
        at n = 8192: residuals 1.5e-9 to 4.4e-7 of z_inf, ratios 0.998 to
        0.9999.  Ending the grid at T = 95 the ratio is 0.65 at (-1, -1) and
        about 0 for the other three: the last ages, where n S_k < 1, set the
        gap there (the terminal regime), so nothing is asserted at T = 95."""
        cfg = _studies_at(90)
        prefs = Preferences(alpha=alpha, rho=rho, b=cfg.prefs.b)
        rep = _study(cfg, prefs, [512, 1024, 2048, 4096, 8192])
        infinite = solve(CollectiveMode.infinite(), cfg.market, prefs, cfg.mortality)
        c0 = first_order_coefficient(infinite)[0]
        gap = rep.z_n[-1] - rep.z_infinity
        assert abs(gap - c0 / 8192) <= 1e-6 * rep.z_infinity
        assert 0.995 <= 8192 * gap / c0 <= 1.005

    def test_linear_in_n_without_convergence(self, studies_config):
        prefs = Preferences(alpha=0.5, rho=-1.0, b=studies_config.prefs.b)
        ns = np.arange(1, 4097)
        rep = _study(studies_config, prefs, ns)
        assert np.max(np.abs(rep.z_n / (ns * rep.z_n[0]) - 1.0)) <= 1e-9
        # z_n is negligible against z_inf, so the gap does not shrink
        assert rep.local_exponent[-1] > -0.25


def _fell_back(solves):
    """Whether ``solves``, a mock wrapping ``solve``, solved a fund of n >= 2."""
    return any(call.args[0].pooling is None for call in solves.call_args_list)


def _pruned(sizes, market, prefs, mt):
    """(z at t0 of ``sizes`` as a study reads them, whether it fell back to solve)."""
    with mock.patch.object(solver, "solve", wraps=solver.solve) as full:
        z0 = solver._start_values(sizes, market, prefs, mt)
    return z0, _fell_back(full)


def _full(sizes, market, prefs, mt):
    """z at t0 of ``sizes``: n = 1 from its own solve, n >= 2 from the full
    table of the largest."""
    table = solve(CollectiveMode(max(sizes)), market, prefs, mt)
    one = solve(CollectiveMode.individual(), market, prefs, mt).z_at_start()
    return np.array([one if n == 1 else table.z[n - 1, 0] for n in sizes])


def _plan_of(n_list, cfg, prefs):
    """The row plan ``convergence_study`` solves ``n_list`` on."""
    plans = []
    own = solver._row_plan
    with mock.patch.object(solver, "_row_plan", lambda *args: plans.append(own(*args)) or plans[0]):
        solver._start_values([*n_list, 1, None], cfg.market, prefs, cfg.mortality)
    return plans[0]


def _plan_rows(plan, k, mortality, alpha):
    """The rows ``plan`` solves at date k and their windows lo, hi."""
    spans, spread = plan
    rows = solver._rows(spans[k])
    return rows, *_windows(rows, spread[k + 1], float(mortality.s[k]), alpha)


def _studies_at(T):
    configs = Path(__file__).resolve().parents[1] / "configs"
    raw = json.loads((configs / "studies.json").read_text())
    return parse_config(dict(raw, grid=dict(raw["grid"], T=T)), configs)


def _diverging_market():
    """(market, prefs, mortality) at which every fund's value diverges, at t = 128."""
    p = np.zeros(200)
    p[-1] = 1.0
    mt = MortalityTable(make_time_grid(0, 1, 200), p)
    return MarketParams(mu=10.0, r=10.0, sigma=0.2), Preferences(alpha=0.5, rho=0.5, b=0.0), mt


POWERS_TO_2048 = [2**k for k in range(12)]
DECADES_TO_10000 = [1, 10, 100, 1000, 10_000]


class TestPrunedRows:
    """z at t0 of the listed sizes from the rows they reach, against the full table."""

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        mt=MORTALITY,
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=6, unique=True)
        .map(sorted).filter(lambda sizes: sizes[-1] >= 2),
    )
    def test_matches_the_full_table(self, alpha, rho, b, mt, sizes):
        market = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        try:
            solve(CollectiveMode.infinite(), market, prefs, mt)  # the bracket's other end
            want = _full(sizes, market, prefs, mt)
        except DivergenceError:
            assume(False)
        got, fell_back = _pruned(sizes, market, prefs, mt)
        assert not fell_back
        # A row groups its terms as in the full table unless its 128-count
        # chunk holds fewer planned rows (a narrower block) or the bracket
        # starts its window lower.  Then one log-sum-exp can round to the
        # other side of an operand's last bit, and z moves by that ulp over
        # |alpha|: 13 of 6000 draws to n = 600 did, by at most one such ulp
        # (log z by 1.2e-12 at n = 544, alpha = 0.39, where log n! = 2,887).
        n = sizes[-1]
        s = mt.s[:-1][mt.s[:-1] < 1.0]
        operand = max([math.lgamma(n + 1.0), *(n * np.abs(np.log(s))), *(n * np.abs(np.log1p(-s)))])
        assert np.all(np.abs(np.log(got) - np.log(want)) <= 4 * np.spacing(operand) / abs(alpha))

    @pytest.mark.parametrize("n_list", [POWERS_TO_2048, DECADES_TO_10000], ids=["2048", "10000"])
    @pytest.mark.parametrize(
        "alpha, rho", [(-1.0, -1.0), (-3.0, -1.0), (-5.0, -0.5), (-0.5, 0.5), (0.5, -1.0)]
    )
    @pytest.mark.parametrize("T", [95, 90])
    def test_studies_config_to_the_bit(self, T, alpha, rho, n_list):
        # (0.5, -1) at T = 95 is the loose bracket: z_inf / z_1 is about 4e17
        cfg = _studies_at(T)
        prefs = Preferences(alpha=alpha, rho=rho, b=cfg.prefs.b)
        got, fell_back = _pruned(n_list, cfg.market, prefs, cfg.mortality)
        assert not fell_back
        assert np.array_equal(got, _full(n_list, cfg.market, prefs, cfg.mortality))

    def test_certain_and_near_certain_death_dates(self, vnm_prefs):
        # s = 1 maps each row to itself; s = 2e-12 reaches down to row 1
        p = np.array([0.0, 1.0 - 3e-12, 0.0, 1e-12, 0.0, 1e-12, 1e-12])
        mt = MortalityTable(make_time_grid(0, 1, p.size), p / p.sum())
        assert np.any(mt.s[:-1] == 1.0) and np.min(mt.s[:-1]) < 1e-11
        market = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        sizes = [1, 7, 50, 300]
        got, fell_back = _pruned(sizes, market, vnm_prefs, mt)
        assert not fell_back
        assert np.array_equal(got, _full(sizes, market, vnm_prefs, mt))

    @pytest.mark.parametrize("alpha", [-1e155, -1e300])
    def test_a_reach_past_the_float_range_is_the_whole_row(self, studies_config, alpha):
        # at |alpha| >= about 1e155 the windows' reach squares past the float
        # range: it is infinite, each window its whole row, and no warning
        # is raised, which this suite would turn into an error
        cfg = studies_config
        prefs = Preferences(alpha=alpha, rho=cfg.prefs.rho, b=cfg.prefs.b)
        rep = _study(cfg, prefs, [1, 10])
        assert np.array_equal(rep.z_n, _full([1, 10], cfg.market, prefs, cfg.mortality))
        scenarios = [(cfg.market.mu, cfg.market.r, n) for n in (2, 40)]
        o = run_scenarios(scenarios, cfg.market.sigma, prefs, cfg.mortality)
        assert np.all(np.isfinite(o))

    def test_a_row_outside_the_bracket_falls_back_to_solve(self, studies_config):
        # z_inf := z_1 is too tight a bracket: the first row above z_1 leaves it
        cfg = studies_config
        own = solver.solve

        def tight(mode, *args):
            return own(CollectiveMode.individual() if mode.n is None else mode, *args)

        sizes = [1, 10, 100]
        with mock.patch.object(solver, "solve", side_effect=tight) as full:
            got = solver._start_values(sizes, cfg.market, cfg.prefs, cfg.mortality)
        assert _fell_back(full)
        assert np.array_equal(got, _full(sizes, cfg.market, cfg.prefs, cfg.mortality))

    def test_a_diverging_row_raises_solves_error(self):
        # solve diverges at this market, and so does the one-member fund.
        # Bracket funds that solve, with an unbounded margin, let the pruned
        # pass run into it, and its error is solve's, with count and date
        market, prefs, mt = _diverging_market()
        grid = mt.grid
        with pytest.raises(DivergenceError) as want:
            solve(CollectiveMode.finite(40), market, prefs, mt)
        assert re.fullmatch(r"value recursion diverged for survivor count \d+ at t=\S+",
                            str(want.value))
        own_solve, own_backward = solver.solve, solver._backward

        def bounded(mode, *args):
            if mode.pooling is None:
                return own_solve(mode, *args)
            xi = solver.growth_exponent(market, prefs.alpha)
            return SimpleNamespace(z=np.ones((1, grid.n_steps)), xi=xi)

        for pooled, margin, plans in ((own_solve, solver.BRACKET_MARGIN, 1), (bounded, math.inf, 2)):
            passes = []
            with mock.patch.multiple(
                solver, solve=mock.Mock(side_effect=pooled), BRACKET_MARGIN=margin,
                _backward=lambda *args: passes.append(len(args) == 7) or own_backward(*args),
            ):
                with pytest.raises(DivergenceError) as got:
                    solver._start_values([5, 40], market, prefs, mt)
            assert str(got.value) == str(want.value)
            # the pruned pass, given a plan, runs only when both bracket funds solve
            assert passes == [True] * (plans - 1) + [False]

    def test_the_one_member_funds_error_comes_first(self):
        # both closed-form funds diverge here, at the same date; the
        # one-member fund is solved first whatever the order of the sizes
        market, prefs, mt = _diverging_market()
        message = "^value recursion diverged for survivor count 1 at t=128.0$"
        with pytest.raises(DivergenceError, match=message):
            solver._start_values([None, 1], market, prefs, mt)
        with pytest.raises(DivergenceError, match=message):
            run_scenarios([(market.mu, market.r, n) for n in (None, 1)], market.sigma, prefs, mt)

    def test_a_diverging_bracket_fund_falls_back_to_solve(self, studies_config):
        # the infinite fund diverges: the sizes n >= 2 are the all-rows solve's,
        # and a listed infinite fund, solved again where it is read, raises its error
        cfg = studies_config
        own = solver.solve

        def diverging(mode, *args):
            if mode.n is None:
                raise DivergenceError("value recursion diverged at t=65.0")
            return own(mode, *args)

        sizes = [1, 10, 100]
        with mock.patch.object(solver, "solve", side_effect=diverging) as full:
            got = solver._start_values(sizes, cfg.market, cfg.prefs, cfg.mortality)
            with pytest.raises(DivergenceError, match="^value recursion diverged at t=65.0$"):
                solver._start_values([None, *sizes], cfg.market, cfg.prefs, cfg.mortality)
        assert [call.args[0].n for call in full.call_args_list] == (
            [1, None, 100, 1] + [1, None, 100, 1, None]
        )
        assert np.array_equal(got, _full(sizes, cfg.market, cfg.prefs, cfg.mortality))

    @pytest.mark.parametrize("n_list, rows, terms", [
        (POWERS_TO_2048, 27_451, 2_913_232),
        (DECADES_TO_10000, 30_718, 9_287_216),
    ], ids=["2048", "10000"])
    def test_rows_and_terms_visited(self, studies_config, n_list, rows, terms):
        # deterministic work counts in place of timings: the full table is
        # n_max * 29 rows, 59,392 and 290,000, and 5,266,574 and 49,578,922
        # window terms
        cfg = studies_config
        plan = _plan_of(n_list, cfg, cfg.prefs)
        dates = range(cfg.mortality.grid.n_steps - 1)
        assert len(plan[0]) == len(dates) + 1
        planned = [_plan_rows(plan, k, cfg.mortality, cfg.prefs.alpha) for k in dates]
        assert sum(rows_k.size for rows_k, _, _ in planned) == rows
        assert sum(int((hi - lo + 1).sum()) for _, lo, hi in planned) == terms

    @pytest.mark.parametrize("n_list", [POWERS_TO_2048, DECADES_TO_10000], ids=["2048", "10000"])
    def test_every_window_lies_in_one_span_of_the_next_date(self, studies_config, n_list):
        # the kernel reads a window as the run of the next date's counts
        # from searchsorted(given, lo): a window across a gap between two
        # spans would read other counts' values, with no error
        cfg = studies_config
        plans, steps = [], []
        own_plan, own_kernel = solver._row_plan, solver.log_survivor_mixture

        def plan(*args):
            plans.append(own_plan(*args))
            return plans[-1]

        def kernel(logw, s, lgam, alpha, step):
            steps.append(step)
            return own_kernel(logw, s, lgam, alpha, step)

        with mock.patch.multiple(solver, _row_plan=plan, log_survivor_mixture=kernel):
            solver._start_values([*n_list, 1, None], cfg.market, cfg.prefs, cfg.mortality)
        n_steps = cfg.mortality.grid.n_steps
        spans, _ = plans[0]
        for k, (rows, lo, hi, given) in zip(range(n_steps - 2, -1, -1), steps):
            assert np.array_equal(rows, solver._rows(spans[k]))
            assert np.array_equal(given, solver._rows(spans[k + 1]))
            first, last = spans[k + 1].T
            at = np.searchsorted(first, lo, side="right") - 1
            assert np.all(at >= 0) and np.all(hi <= last[at]), f"date {k}"
        assert len(plans) == 1 and len(steps) == n_steps - 1  # one pruned pass, no fallback

    def test_plan_starts_from_the_sizes_above_one(self, studies_config):
        # n = 1 and the limit are closed forms; the plan starts from the rest
        cfg = studies_config
        spans, _ = _plan_of(cfg.n_list, cfg, cfg.prefs)
        assert solver._rows(spans[0]).tolist() == cfg.n_list[1:]

    def test_bound_windows_hold_the_exact_ones(self, studies_config):
        # the bracket widens 2,913,178 exact terms of the planned rows by 54;
        # every exact window lies inside its planned one
        cfg = studies_config
        plan = _plan_of(POWERS_TO_2048, cfg, cfg.prefs)
        alpha = cfg.prefs.alpha
        logz = np.log(solve(CollectiveMode(2048), cfg.market, cfg.prefs, cfg.mortality).z)
        exact = total = 0
        for k in range(cfg.mortality.grid.n_steps - 1):
            rows, lo, hi = _plan_rows(plan, k, cfg.mortality, alpha)
            all_lo, all_hi = _row_windows(alpha * logz[:, k + 1], float(cfg.mortality.s[k]), alpha)
            assert np.all((lo <= all_lo[rows - 1]) & (all_hi[rows - 1] <= hi))
            exact += int((all_hi[rows - 1] - all_lo[rows - 1] + 1).sum())
            total += int((all_hi - all_lo + 1).sum())
        assert (exact, total) == (2_913_178, 5_266_574)

    def test_study_memory_is_bounded_by_the_rows_reached(self, studies_config):
        # the full table at n = 10 000 peaked at 9.74 MiB; the rows reached, 0.99 MiB
        cfg = studies_config
        convergence_study(DECADES_TO_10000, cfg.market, cfg.prefs, cfg.mortality)  # warm
        tracemalloc.start()
        try:
            convergence_study(DECADES_TO_10000, cfg.market, cfg.prefs, cfg.mortality)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"


def test_the_study_path_lives_in_solver():
    # which funds bracket a study's sizes, its row plan and its fallbacks are
    # solver._start_values's; every pooled recursion, the annuity's too, is
    # solver's, so studies imports no other private solver name
    tree = ast.parse(Path(studies.__file__).read_text("utf-8"))
    private = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("solver")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == ["_start_values"]
