import json
import math
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
        mt = MortalityTable.from_pmf(grid, p)
        prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
        # k periods of certain consumption: U = k^(1/rho) = 1/4
        assert annuity_utility(1.0, mt, prefs) == pytest.approx(0.25, abs=1e-14)

    def test_single_period(self):
        grid = make_time_grid(0, 1, 1)
        mt = MortalityTable.from_pmf(grid, [1.0])
        prefs = Preferences(alpha=-2.0, rho=-0.5, b=0.1)
        assert annuity_utility(3.7, mt, prefs) == 3.7

    def test_positive_homogeneity(self, mild_table):
        _, mt = mild_table
        prefs = Preferences(alpha=-1.5, rho=-0.8, b=0.02)
        u1 = annuity_utility(1.3, mt, prefs)
        u2 = annuity_utility(2.6, mt, prefs)
        assert u2 == pytest.approx(2.0 * u1, rel=1e-12)

    def test_rejects_nonpositive_income(self, mild_table):
        _, mt = mild_table
        with pytest.raises(ConfigurationError):
            annuity_utility(0.0, mt, Preferences(alpha=-1.0, rho=-1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=EXPONENTS,
        rho=EXPONENTS,
        b=DISCOUNTS,
        gamma=st.floats(0.01, 100.0),
        steps=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1) | st.none(),
    )
    def test_matches_linear_loop(self, mild_table, alpha, rho, b, gamma, steps, seed):
        # seed None takes the mild Gompertz table in place of a random one
        if seed is None:
            mt = mild_table[1]
        else:
            mt = random_mortality(np.random.default_rng(seed), make_time_grid(0, 1, steps))
        prefs = Preferences(alpha=alpha, rho=rho, b=b)
        want = annuity_loop(gamma, mt, prefs)
        assume(0.0 < want < math.inf)
        assert annuity_utility(gamma, mt, prefs) == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_log_space_survives_where_the_loop_overflows(self, studies_config):
        # U^rho overflows in the loop, and inf^(1/rho) is exactly 0
        prefs = Preferences(alpha=0.3, rho=-7.0, b=0.0)
        mt = studies_config.mortality
        assert annuity_loop(1.0, mt, prefs) == 0.0
        u = annuity_utility(1.0, mt, prefs)
        assert 0.0 < u < 1e-60
        reports = run_scenarios(
            studies_config.scenarios, studies_config.market.sigma, prefs, mt, budget=1.0
        )
        assert all(math.isfinite(rep.outperformance) for rep in reports)

    def test_zero_utility_raises(self, studies_config):
        # log U is about -770: U underflows, so every equivalent would divide
        # by 0; the infinite fund's z (about 2e-314) is subnormal, too few
        # significant bits to print, and diverges as well
        prefs = Preferences(alpha=0.06001, rho=-5.748, b=0.02)
        mt = studies_config.mortality
        with pytest.raises(DivergenceError, match="diverged at t="):
            solve(CollectiveMode.infinite(), studies_config.market, prefs, mt)
        with pytest.raises(DivergenceError, match="annuity utility"):
            annuity_utility(1.0, mt, prefs)


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
                out = annuity_outperformance(table, 1.0)
                assert abs(out) <= 1e-10

    def test_budget_invariance(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
        o1 = annuity_outperformance(table, 1.0)
        o2 = annuity_outperformance(table, 2_000_000.0)
        assert o1 == pytest.approx(o2, rel=1e-12)

    def test_pooling_beats_individual(self, default_table, mild_table, base_market, vnm_prefs):
        for grid, mt in (default_table, mild_table):
            inf_t = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
            ind_t = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
            o_inf = annuity_outperformance(inf_t, 1.0)
            o_ind = annuity_outperformance(ind_t, 1.0)
            assert o_inf > o_ind

    def test_equity_premium_helps(self, default_table, vnm_prefs):
        grid, mt = default_table
        with_premium = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        without = MarketParams(mu=0.027, r=0.027, sigma=0.15)
        o_with = annuity_outperformance(
            solve(CollectiveMode.infinite(), with_premium, vnm_prefs, mt), 1.0
        )
        o_without = annuity_outperformance(
            solve(CollectiveMode.infinite(), without, vnm_prefs, mt), 1.0
        )
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
        o = annuity_outperformance(solve(CollectiveMode.infinite(), self.FLAT, prefs, mt), 1.0)
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
        o = annuity_outperformance(solve(CollectiveMode.infinite(), self.FLAT, prefs, mt), 1.0)
        closed = zero_return_outperformance(prefs, mt)
        assert abs(o - closed) <= 1e-13 * (1.0 + closed)


def _annuity_strategy(mt, r):
    """Infinite-fund strategy that buys the level annuity: no stock, and
    consumption rate 1 / a_k at date k, a_k being the annuity factor of the
    survivors at k, so that consumption per survivor stays constant."""
    n = mt.grid.n_steps
    disc = np.exp(-r * mt.grid.dt * np.arange(n))
    due = np.array([np.dot(disc[: n - k], mt.tail[k:]) for k in range(n)])  # a_k tail_k
    return Strategy(a=np.zeros(n), c=mt.tail / due)


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
            v = evaluate_policy(
                _annuity_strategy(mt, market.r), CollectiveMode.infinite(), market, prefs, mt
            )
            u = annuity_utility(1.0 / annuity_factor(mt, market.r), mt, prefs)
            assert v == pytest.approx(u, rel=1e-9)

    @pytest.mark.parametrize("alpha", EXPONENTS)
    @pytest.mark.parametrize("rho", EXPONENTS)
    def test_annuity_suboptimal_unless_alpha_equals_rho(self, default_table, alpha, rho):
        _, mt = default_table
        prefs = Preferences(alpha=alpha, rho=rho, b=0.0)
        mode = CollectiveMode.infinite()
        v = evaluate_policy(_annuity_strategy(mt, 0.0), mode, self.FLAT, prefs, mt)
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


class TestScenarios:
    def test_scenario_ordering(self, default_table, vnm_prefs):
        grid, mt = default_table
        reports = run_scenarios(
            [("1", 0.062, 0.027, None), ("2", 0.062, 0.027, 1),
             ("3", 0.027, 0.027, None), ("4", 0.0, 0.0, None)],
            0.15, vnm_prefs, mt, budget=1.0,
        )
        o = [rep.outperformance for rep in reports]
        assert o[0] > o[1] > o[2] > abs(o[3]) - 1e-10
        assert abs(o[3]) <= 1e-10
        # report invariant: outperformance == equivalent/budget - 1 exactly
        for rep in reports:
            assert rep.outperformance == rep.annuity_equivalent / 1.0 - 1.0

    def test_finite_scenario_size(self, default_table, vnm_prefs):
        grid, mt = default_table
        reports = run_scenarios(
            [("a", 0.062, 0.027, 5)], 0.15, vnm_prefs, mt, budget=2.0
        )
        assert reports[0].n == 5

    def test_annuity_priced_once_per_call(self, default_table, vnm_prefs, monkeypatch):
        grid, mt = default_table
        calls = []
        price = studies.annuity_utility
        monkeypatch.setattr(
            studies, "annuity_utility", lambda *args: calls.append(args) or price(*args)
        )
        run_scenarios(
            [(str(k), 0.062, 0.027, n) for k, n in enumerate([None, 1, 3, None, 1])],
            0.15, vnm_prefs, mt, budget=1.0,
        )
        assert len(calls) == 1

    def test_empty_rejected(self, default_table, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError):
            run_scenarios([], 0.15, vnm_prefs, mt, budget=1.0)


class TestFundSizeStudy:
    def test_small_fund_ladder(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        ns = [1, 2, 4, 8, 16, 32, 64]
        rep = convergence_study(ns, base_market, vnm_prefs, mt)
        # n = 1 coincides with the individual problem
        ind = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
        o_ind = annuity_outperformance(ind, 1.0)
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
        rep = convergence_study([1, 3, 12], base_market, vnm_prefs, mt)
        for n, o in zip(rep.n.tolist(), rep.outperformance):
            table = solve(CollectiveMode.finite(n), base_market, vnm_prefs, mt)
            assert o == pytest.approx(annuity_outperformance(table, 1.0), abs=1e-12)
        table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
        assert rep.infinite_outperformance == pytest.approx(
            annuity_outperformance(table, 1.0), abs=1e-12
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
            for n, o in zip(rep.n.tolist(), rep.outperformance)
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
        assert rep.n.tolist() == ns and math.isnan(rep.local_exponent[0])
        for j in range(1, len(ns)):
            expected = math.log(diffs[j] / diffs[j - 1]) / math.log(ns[j] / ns[j - 1])
            assert rep.local_exponent[j] == pytest.approx(expected, rel=1e-12)

    def test_root_n_bound_from_anchor(self, report):
        rep, _ = report
        assert rep.bound_anchor == 4
        for n, zn in zip(rep.n.tolist(), rep.z_n):
            if n >= rep.bound_anchor:
                assert abs(zn - rep.z_infinity) <= rep.bound_constant * n**-0.5 * (1 + 1e-12)

    def test_fitted_exponent_at_least_root_n(self, report):
        rep, _ = report
        assert rep.fit_exponent <= -0.4

    def test_bound_shape_on_other_mortality(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        rep = convergence_study([1, 2, 4, 8, 16, 32, 64], base_market, vnm_prefs, mt)
        for n, zn in zip(rep.n.tolist(), rep.z_n):
            if n >= rep.bound_anchor:
                assert abs(zn - rep.z_infinity) <= rep.bound_constant * n**-0.5 * (1 + 1e-12)

    def test_validation(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError, match="decade"):
            convergence_study([2, 4, 8], base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match="increasing"):
            convergence_study([8, 4, 2, 64], base_market, vnm_prefs, mt)


class TestPooledPrecision:
    def test_start_value_matches_40_digit_reference(self, studies_config):
        # a few ulps of z_0: the closed-form sum is within 9.1e-16 here
        cfg = studies_config
        for _, mu, r, _ in cfg.scenarios:
            market = MarketParams(mu=float(mu), r=float(r), sigma=cfg.market.sigma)
            for pooling, mode in ((0, CollectiveMode.individual()), (1, CollectiveMode.infinite())):
                z0 = solve(mode, market, cfg.prefs, cfg.mortality).z[0]
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
        rep = _study(studies_config, prefs, range(1, 4097))
        assert np.max(np.abs(rep.z_n / (rep.n * rep.z_n[0]) - 1.0)) <= 1e-9
        # z_n is negligible against z_inf, so the gap does not shrink
        assert rep.local_exponent[-1] > -0.25
