"""Annuity outperformance, market-scenario comparisons, and the fund-size
study: how the value and the annuity outperformance of a fund of n members
approach the infinite-pooling limit, with the empirical large-n rate.

A unit income per grid date until death has utility U(1)
(``annuity_utility``); an income gamma has utility gamma U(1) by positive
homogeneity.  A strategy worth z per unit budget therefore matches the
income gamma* = budget z / U(1), whose actuarial price at the market's
riskless rate (no loading) is the annuity equivalent budget (1 + o), with

    o = z ä / U(1) - 1

the outperformance and ä the annuity factor.  o does not depend on the
budget, so every function here prices per unit of budget and income.
Results hold no copy of their inputs: ``run_scenarios`` takes (mu, r, n)
triples and returns one o per triple, and the arrays of a
``ConvergenceReport`` line up with the ``n_list`` it was given.  Both read
z at t0 of every size in a market from ``solver._start_values``: the
one-member and the infinite fund from their closed form, and the sizes
n >= 2 from one fund at their largest size, solved only on the survivor
counts they reach, so a study costs O(rows reached) time and memory, not
O(n_max * n_steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ConfigurationError, DivergenceError, MarketParams, Preferences
from .mortality import MortalityTable, annuity_factor
from .solver import CollectiveMode, ValueTable, _pooled, _start_values

__all__ = [
    "ConvergenceReport",
    "annuity_utility",
    "annuity_outperformance",
    "improvement",
    "run_scenarios",
    "convergence_study",
]


def annuity_utility(mortality: MortalityTable, prefs: Preferences) -> float:
    """Utility U(1) of a unit income per grid date until death.

    Specialising the recursive utility to deterministic consumption gives

        U_t = [1 + beta s_t^(rho/alpha) U_{t+dt}^rho]^(1/rho)

    with U = 1 at the final date, so U(1)^rho = x_0 of the linear recursion
    x_t = 1 + beta s_t^(rho/alpha) x_{t+dt}, x = 1 at the final date, which
    the solver sums in closed form in log space.  An income gamma has
    utility gamma U(1).

    Raises DivergenceError when U(1) is not a normal positive float, e.g.
    when it underflows for a strongly negative rho, since every
    outperformance divides by it.
    """
    grid = mortality.grid
    log_b = math.log(prefs.beta(grid.dt)) + (prefs.rho / prefs.alpha) * np.log(mortality.s[:-1])
    logu = _pooled(np.zeros(grid.n_steps), log_b)[0] / prefs.rho
    with np.errstate(over="ignore"):
        u = float(np.exp(logu))
    if not np.finfo(float).tiny <= u < math.inf:
        raise DivergenceError(
            f"annuity utility {u} is not a normal positive float (log U = {float(logu):.6g})"
        )
    return u


def annuity_outperformance(table: ValueTable) -> float:
    """Annuity outperformance of the optimal strategy in ``table``, priced at
    the mortality, market and preferences it was solved for."""
    unit_utility = annuity_utility(table.mortality, table.prefs)
    return _outperformance(table.z_at_start(), unit_utility, table.mortality, table.market.r)


def _outperformance(z0, unit_utility, mortality, r):
    """Outperformance of a strategy worth z0 per unit budget against an
    annuity at riskless rate ``r`` whose unit income has utility
    ``unit_utility``; elementwise for an array ``z0``."""
    return z0 / unit_utility * annuity_factor(mortality, r) - 1.0


def improvement(ra: float | np.ndarray, rb: float | np.ndarray) -> float | np.ndarray:
    """Relative improvement (1+ra)/(1+rb) - 1 of outperformance ra over rb;
    elementwise for arrays."""
    base = np.asarray(rb)
    bad = base[~(base > -1.0)]  # NaN included
    if bad.size:
        raise ConfigurationError(f"baseline outperformance must exceed -1, got {bad[0]}")
    return (1.0 + ra) / (1.0 + rb) - 1.0


def run_scenarios(
    scenarios: Sequence[tuple],
    sigma: float,
    prefs: Preferences,
    mortality: MortalityTable,
) -> np.ndarray:
    """Outperformance per (mu, r, n) scenario, as a float64 array in the
    order of ``scenarios``; mu and r are real rates.

    n is None for the infinite fund and 1 for the individual, the
    one-member fund.  A market (mu, r) reads all its sizes at once
    (``_start_values``).  n = 1 and the infinite fund are their own solve,
    bit for bit; the sizes n >= 2 are rows of one fund at their largest.
    """
    if not scenarios:
        raise ConfigurationError("need at least one scenario")
    unit_utility = annuity_utility(mortality, prefs)  # the same for every market
    markets: dict[MarketParams, list[int]] = {}
    for k, (mu, r, _) in enumerate(scenarios):
        markets.setdefault(MarketParams(mu=mu, r=r, sigma=sigma), []).append(k)
    outperf = np.empty(len(scenarios))
    for market, ks in markets.items():
        z0 = _start_values([scenarios[k][2] for k in ks], market, prefs, mortality)
        outperf[ks] = _outperformance(z0, unit_utility, mortality, market.r)
    return outperf


@dataclass(frozen=True)
class ConvergenceReport:
    """Fund size study: how z_{n,t0} and the annuity outperformance o_n
    approach their infinite-collective values as n grows.

    Per size in the ``n_list`` studied: ``z_n`` at t0, ``outperformance``
    o_n (invariant to the budget) and ``local_exponent``, the slope of
    log |z_n - z_inf| against log n from the previous listed size (NaN at
    the first).  ``n_at_90pct`` is the smallest listed n whose gain over a
    one-member fund is at least 90% of the infinite fund's,
    o_n - o_1 >= 0.9 (o_inf - o_1), with o_1 the one-member fund's whether
    or not 1 is listed; None if no listed n does.

    On configs/studies.json, whose grid ends at T = 95, the local exponent
    from n = 4096 to 8192 is -0.97 for its own preferences and -0.48 for
    alpha = -5, rho = -0.5, and for alpha = 0.5, rho = -1 z_n is linear in n
    and does not converge.  Ages 92 to 94 set these: fewer than 4 of 8192
    members are expected to reach them.  With the grid ending at T = 90 the
    same exponent is -0.997 to -1.000 for the first two and -1.001 for the
    third, so the rate is n^(-1).  The bound is an empirical n^(-1/2)
    majorant anchored at the first n >= 4: it majorises only where the
    differences decay at least that fast.
    """

    z_n: np.ndarray
    outperformance: np.ndarray
    local_exponent: np.ndarray
    z_infinity: float
    infinite_outperformance: float
    n_at_90pct: Optional[int]
    fit_constant: float  # |z_n - z_inf| ~ fit_constant * n^fit_exponent
    fit_exponent: float
    bound_constant: float  # bound_constant * n^(-1/2) majorises from the anchor on
    bound_anchor: int


def convergence_study(
    n_list: Sequence[int],
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> ConvergenceReport:
    """The fund size study for the sizes in ``n_list`` (each a
    ``CollectiveMode`` size), n = 1 and the limit, all read at once
    (``_start_values``).
    """
    n_list = _checked_sizes(n_list)
    n = np.array(n_list)
    z0 = _start_values([*n_list, 1, None], market, prefs, mortality)
    z_n, z_inf = z0[:-2], float(z0[-1])
    diffs = np.abs(z_n - z_inf)
    # a gap this small is rounding, not a rate: the finite table rounds by
    # at most 1.1e-11, 1.9e-12 and 2.4e-11 relative at n = 2048 for three
    # preference pairs, about 1.2e-10 extrapolated to n = 10 000 (ROADMAP
    # direction 14), and the infinite solve differently
    noise = diffs <= 1e-9 * z_inf
    if noise.any():
        raise ConfigurationError(
            f"|z_n - z_inf| <= 1e-9 z_inf at n = {n[noise][0]}: there is no rate to fit"
        )

    # one pricing of the annuity for the listed sizes, n = 1 and the limit
    outperf = _outperformance(z0, annuity_utility(mortality, prefs), mortality, market.r)
    o_n, one, inf_outperf = outperf[:-2], outperf[-2], float(outperf[-1])
    n_at_90 = next(
        (int(k) for k, o in zip(n, o_n) if o - one >= 0.9 * (inf_outperf - one)), None
    )
    log_n, log_diffs = np.log(n.astype(float)), np.log(diffs)
    slope, intercept = _line_fit(log_n, log_diffs)
    anchor = next(k for k in n_list if k >= 4)  # the decade rule makes n_list[-1] >= 10
    return ConvergenceReport(
        z_n=z_n,
        outperformance=o_n,
        local_exponent=np.concatenate(([np.nan], np.diff(log_diffs) / np.diff(log_n))),
        z_infinity=z_inf,
        infinite_outperformance=inf_outperf,
        n_at_90pct=n_at_90,
        fit_constant=float(math.exp(intercept)),
        fit_exponent=float(slope),
        bound_constant=float(diffs[n_list.index(anchor)] * math.sqrt(anchor)),
        bound_anchor=anchor,
    )


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of the line through (x, y), from
    centred sums: np.polyfit's degree-1 fit without its LAPACK solve."""
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = (dx * (y - y_mean)).sum() / (dx * dx).sum()
    return float(slope), float(y_mean - slope * x_mean)


def _checked_sizes(n_list: Sequence[int]) -> list[int]:
    """The fund sizes of a study: finite, strictly increasing and spanning
    at least a decade."""
    sizes = [CollectiveMode.finite(n).n for n in n_list]
    if not sizes:
        raise ConfigurationError("need at least one fund size")
    if sorted(set(sizes)) != sizes:
        raise ConfigurationError("fund sizes must be strictly increasing")
    if sizes[-1] < 10 * sizes[0]:
        raise ConfigurationError(
            "fund sizes should span at least a decade for a meaningful rate fit"
        )
    return sizes
