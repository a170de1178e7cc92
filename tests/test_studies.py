import json
import math
from pathlib import Path

import numpy as np
import pytest

from pensionlab.cli import parse_config
from pensionlab.core import ConfigurationError, MarketParams, Preferences, make_time_grid
from pensionlab.mortality import MortalityTable, annuity_factor, gompertz_makeham
from pensionlab.solver import CollectiveMode, solve
from pensionlab.studies import (
    _start_values,
    annuity_outperformance,
    annuity_utility,
    convergence_study,
    fund_size_study,
    improvement,
    run_scenarios,
)

from conftest import random_mortality


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
                table = solve(CollectiveMode.infinite(), grid, market, prefs, mt)
                out = annuity_outperformance(table, 1.0, mt, market, prefs)
                assert abs(out) <= 1e-10

    def test_budget_invariance(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        table = solve(CollectiveMode.infinite(), grid, base_market, vnm_prefs, mt)
        o1 = annuity_outperformance(table, 1.0, mt, base_market, vnm_prefs)
        o2 = annuity_outperformance(table, 2_000_000.0, mt, base_market, vnm_prefs)
        assert o1 == pytest.approx(o2, rel=1e-12)

    def test_pooling_beats_individual(self, default_table, mild_table, base_market, vnm_prefs):
        for grid, mt in (default_table, mild_table):
            inf_t = solve(CollectiveMode.infinite(), grid, base_market, vnm_prefs, mt)
            ind_t = solve(CollectiveMode.individual(), grid, base_market, vnm_prefs, mt)
            o_inf = annuity_outperformance(inf_t, 1.0, mt, base_market, vnm_prefs)
            o_ind = annuity_outperformance(ind_t, 1.0, mt, base_market, vnm_prefs)
            assert o_inf > o_ind

    def test_equity_premium_helps(self, default_table, vnm_prefs):
        grid, mt = default_table
        with_premium = MarketParams(mu=0.062, r=0.027, sigma=0.15)
        without = MarketParams(mu=0.027, r=0.027, sigma=0.15)
        o_with = annuity_outperformance(
            solve(CollectiveMode.infinite(), grid, with_premium, vnm_prefs, mt),
            1.0, mt, with_premium, vnm_prefs,
        )
        o_without = annuity_outperformance(
            solve(CollectiveMode.infinite(), grid, without, vnm_prefs, mt),
            1.0, mt, without, vnm_prefs,
        )
        assert o_with > o_without


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
            grid, 0.15, vnm_prefs, mt, budget=1.0,
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
            [("a", 0.062, 0.027, 5)], grid, 0.15, vnm_prefs, mt, budget=2.0
        )
        assert reports[0].n == 5

    def test_empty_rejected(self, default_table, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError):
            run_scenarios([], grid, 0.15, vnm_prefs, mt, budget=1.0)


class TestFundSizeStudy:
    def test_small_fund_ladder(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        ns = [1, 2, 4, 8, 16, 32, 64]
        rep = fund_size_study(ns, grid, base_market, vnm_prefs, mt, budget=1.0)
        # n = 1 coincides with the individual problem
        ind = solve(CollectiveMode.individual(), grid, base_market, vnm_prefs, mt)
        o_ind = annuity_outperformance(ind, 1.0, mt, base_market, vnm_prefs)
        assert rep.entries[0][1] == pytest.approx(o_ind, abs=1e-12)
        values = [o for _, o in rep.entries]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:])), (
            "outperformance failed to grow with fund size"
        )
        assert values[-1] < rep.infinite_outperformance
        assert rep.n_at_90pct is not None and rep.n_at_90pct <= 64

    def test_size_order_validated(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError):
            fund_size_study([4, 2], grid, base_market, vnm_prefs, mt, budget=1.0)


@pytest.fixture(scope="module")
def report(default_table, base_market, vnm_prefs):
    grid, mt = default_table
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    return convergence_study(ns, grid, base_market, vnm_prefs, mt), ns


class TestConvergenceStudy:
    def test_differences_strictly_decreasing(self, report):
        rep, _ = report
        diffs = [abs(zn - rep.z_infinity) for _, zn in rep.entries]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_root_n_bound_from_anchor(self, report):
        rep, _ = report
        assert rep.bound_anchor == 4
        for n, zn in rep.entries:
            if n >= rep.bound_anchor:
                assert abs(zn - rep.z_infinity) <= rep.bound_constant * n**-0.5 * (1 + 1e-12)

    def test_fitted_exponent_at_least_root_n(self, report):
        rep, _ = report
        assert rep.fit_exponent <= -0.4

    def test_bound_shape_on_other_mortality(self, mild_table, base_market, vnm_prefs):
        grid, mt = mild_table
        rep = convergence_study([1, 2, 4, 8, 16, 32, 64], grid, base_market, vnm_prefs, mt)
        for n, zn in rep.entries:
            if n >= rep.bound_anchor:
                assert abs(zn - rep.z_infinity) <= rep.bound_constant * n**-0.5 * (1 + 1e-12)

    def test_validation(self, default_table, base_market, vnm_prefs):
        grid, mt = default_table
        with pytest.raises(ConfigurationError, match="decade"):
            convergence_study([2, 4, 8], grid, base_market, vnm_prefs, mt)
        with pytest.raises(ConfigurationError, match="increasing"):
            convergence_study([8, 4, 2, 64], grid, base_market, vnm_prefs, mt)


@pytest.fixture(scope="module")
def studies_config():
    configs = Path(__file__).resolve().parents[1] / "configs"
    return parse_config(json.loads((configs / "studies.json").read_text()), configs)


def _z_at_start(cfg, prefs, n):
    """z at t0 for every fund size 1..n, and for the infinite collective."""
    z_n, z_inf = _start_values(list(range(1, n + 1)), cfg.grid, cfg.market, prefs, cfg.mortality)
    return np.array(z_n), z_inf


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
        z, z_inf = _z_at_start(studies_config, prefs, 8192)
        exponent = math.log(abs(z[8191] - z_inf) / abs(z[2047] - z_inf)) / math.log(4.0)
        assert lo <= exponent <= hi

    def test_linear_in_n_without_convergence(self, studies_config):
        prefs = Preferences(alpha=0.5, rho=-1.0, b=studies_config.prefs.b)
        z, _ = _z_at_start(studies_config, prefs, 4096)
        n = np.arange(1, 4097)
        assert np.max(np.abs(z / (n * z[0]) - 1.0)) <= 1e-9
