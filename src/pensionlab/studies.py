"""Annuity-equivalent metrics, market-scenario comparisons, the fund-size
study, and the empirical large-n convergence check.

The annuity equivalent of a strategy is the actuarial price of the constant
lifetime income whose utility matches the strategy's: if the fund's utility
per unit budget is z and a unit income has utility U(1), the matching income
is gamma* = budget z / U(1) and the equivalent is gamma* times the annuity
factor at the market's riskless rate (no loading).  Outperformance is
equivalent / budget - 1; it is invariant to the budget by homogeneity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ConfigurationError, DivergenceError, MarketParams, Preferences, TimeGrid
from .mortality import MortalityTable, annuity_factor
from .solver import CollectiveMode, ValueTable, solve

__all__ = [
    "ScenarioReport",
    "FundSizeReport",
    "ConvergenceReport",
    "annuity_utility",
    "annuity_outperformance",
    "improvement",
    "run_scenarios",
    "fund_size_study",
    "convergence_study",
]


def annuity_utility(gamma: float, mortality: MortalityTable, prefs: Preferences) -> float:
    """Utility of the deterministic income ``gamma`` per grid date until death.

    Specialising the recursive utility to deterministic consumption gives

        U_t = [gamma^rho + beta s_t^(rho/alpha) U_{t+dt}^rho]^(1/rho)

    with U = gamma at the final date.  Positively homogeneous in gamma.
    """
    if not gamma > 0.0:
        raise ConfigurationError(f"annuity income must be positive, got {gamma}")
    beta = prefs.beta(mortality.grid.dt)
    rho, alpha = prefs.rho, prefs.alpha
    u = float(gamma)
    for k in range(mortality.grid.n_steps - 2, -1, -1):
        u = (gamma**rho + beta * mortality.s[k] ** (rho / alpha) * u**rho) ** (1.0 / rho)
        if not math.isfinite(u):
            raise DivergenceError(
                f"annuity utility diverged at t={mortality.grid.points[k]}"
            )
    return u


def annuity_outperformance(
    table: ValueTable,
    budget: float,
    mortality: MortalityTable,
    market: MarketParams,
    prefs: Preferences,
) -> float:
    """Annuity outperformance of the optimal strategy in ``table``."""
    return _outperformance(table.z_at_start(), budget, mortality, market, prefs)[1]


def _outperformance(z0, budget, mortality, market, prefs):
    """(annuity equivalent, outperformance) of a strategy worth budget*z0."""
    if not budget > 0.0:
        raise ConfigurationError(f"budget must be positive, got {budget}")
    unit_utility = annuity_utility(1.0, mortality, prefs)
    gamma_star = budget * z0 / unit_utility
    equivalent = gamma_star * annuity_factor(mortality, market.r)
    return equivalent, equivalent / budget - 1.0


def improvement(ra: float, rb: float) -> float:
    """Relative improvement (1+ra)/(1+rb) - 1 of outperformance ra over rb."""
    if rb <= -1.0:
        raise ConfigurationError(f"baseline outperformance must exceed -1, got {rb}")
    return (1.0 + ra) / (1.0 + rb) - 1.0


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    mu: float
    r: float
    n: Optional[int]  # None means the infinite collective
    annuity_equivalent: float
    outperformance: float


def run_scenarios(
    scenarios: Sequence[tuple],
    grid: TimeGrid,
    sigma: float,
    prefs: Preferences,
    mortality: MortalityTable,
    budget: float,
) -> list[ScenarioReport]:
    """Outperformance per (id, mu, r, n) scenario; mu and r are real rates.

    n is None for the infinite collective; n = 1 is solved as the individual
    problem (same value).
    """
    if not scenarios:
        raise ConfigurationError("need at least one scenario")
    reports = []
    for scenario_id, mu, r, n in scenarios:
        market = MarketParams(mu=float(mu), r=float(r), sigma=sigma)
        if n is None:
            mode = CollectiveMode.infinite()
        elif int(n) == 1:
            mode = CollectiveMode.individual()
        else:
            mode = CollectiveMode.finite(int(n))
        table = solve(mode, grid, market, prefs, mortality)
        equivalent, outperf = _outperformance(
            table.z_at_start(), budget, mortality, market, prefs
        )
        reports.append(
            ScenarioReport(
                scenario=str(scenario_id),
                mu=float(mu),
                r=float(r),
                n=None if n is None else int(n),
                annuity_equivalent=equivalent,
                outperformance=outperf,
            )
        )
    return reports


@dataclass(frozen=True)
class FundSizeReport:
    entries: list  # (n, outperformance), ascending in n
    infinite_outperformance: float
    n_at_90pct: Optional[int]  # smallest n reaching 90% of the asymptote


def fund_size_study(
    n_list: Sequence[int],
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
    budget: float,
) -> FundSizeReport:
    """Annuity outperformance as the fund size grows, with the n = infinity
    asymptote."""
    n_list = _checked_sizes(n_list)
    z_n, z_inf = _start_values(n_list, grid, market, prefs, mortality)
    entries = []
    for n, zn in zip(n_list, z_n):
        _, outperf = _outperformance(zn, budget, mortality, market, prefs)
        entries.append((n, outperf))
    _, inf_outperf = _outperformance(z_inf, budget, mortality, market, prefs)
    n_at_90 = None
    for n, outperf in entries:
        if outperf >= 0.9 * inf_outperf:
            n_at_90 = n
            break
    return FundSizeReport(
        entries=entries, infinite_outperformance=inf_outperf, n_at_90pct=n_at_90
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """How z_{n,t0} approaches the infinite-collective value as n grows.

    The rate depends on the preferences.  On configs/studies.json the
    differences decay like n^(-0.97) for its own preferences and like n^(-0.48)
    for alpha = -5, rho = -0.5, while for alpha = 0.5, rho = -1 z_n is linear in
    n and does not converge.  The bound is an empirical n^(-1/2) majorant
    anchored at the first n >= 4: it majorises only where the differences
    decay at least that fast.
    """

    entries: list  # (n, z_n at t0), ascending in n
    z_infinity: float
    fit_constant: float  # |z_n - z_inf| ~ fit_constant * n^fit_exponent
    fit_exponent: float
    bound_constant: float  # bound_constant * n^(-1/2) majorises from the anchor on
    bound_anchor: int


def convergence_study(
    n_list: Sequence[int],
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> ConvergenceReport:
    n_list = _checked_sizes(n_list)
    if n_list[-1] < 10 * n_list[0]:
        raise ConfigurationError(
            "fund sizes should span at least a decade for a meaningful rate fit"
        )
    anchors = [n for n in n_list if n >= 4]
    if not anchors:
        raise ConfigurationError("need a fund size >= 4 to anchor the root-n bound")

    z_n, z_inf = _start_values(n_list, grid, market, prefs, mortality)
    entries = list(zip(n_list, z_n))
    diffs = np.array([abs(zn - z_inf) for _, zn in entries])
    if not np.all(np.isfinite(diffs)):
        raise DivergenceError("non-finite difference in the convergence study")

    slope, intercept = np.polyfit(np.log(np.asarray(n_list, dtype=float)), np.log(diffs), 1)
    anchor = anchors[0]
    bound_constant = float(diffs[n_list.index(anchor)] * math.sqrt(anchor))
    return ConvergenceReport(
        entries=entries,
        z_infinity=z_inf,
        fit_constant=float(math.exp(intercept)),
        fit_exponent=float(slope),
        bound_constant=bound_constant,
        bound_anchor=anchor,
    )


def _start_values(
    n_list: list[int],
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> tuple[list[float], float]:
    """z at t0 for each fund size in the ascending ``n_list``, and for the
    infinite collective.

    One solve at max(n) yields every smaller fund: the recursion for i
    survivors only references counts <= i, so the triangular table is shared.
    """
    table = solve(CollectiveMode.finite(n_list[-1]), grid, market, prefs, mortality)
    z_inf = solve(CollectiveMode.infinite(), grid, market, prefs, mortality).z_at_start()
    return [float(table.z[n - 1, 0]) for n in n_list], z_inf


def _checked_sizes(n_list: Sequence[int]) -> list[int]:
    sizes = [int(n) for n in n_list]
    if not sizes:
        raise ConfigurationError("need at least one fund size")
    if any(n < 1 for n in sizes):
        raise ConfigurationError("fund sizes must be >= 1")
    if sorted(set(sizes)) != sizes:
        raise ConfigurationError("fund sizes must be strictly increasing")
    return sizes
