"""Backward-induction value recursions and optimal controls.

The value of one unit of fund-per-survivor wealth at grid point t is z_t
(``value per unit wealth``): by positive homogeneity the full value function
is x * z_t.  Writing y = z^(rho/(1-rho)), the one-member fund (the
individual, C=0) and the infinite fund (C=1) satisfy the linear recursion

    y_t = 1 + phi_t^(rho/(1-rho)) * y_{t+dt},     y at the last date = 1,

with phi_t = beta^(1/rho) exp(xi dt) s_t^(1/alpha - C), and the optimal
consumption rate is c*_t = 1/y_t.  The optimal stock proportion a* and the
per-period growth exponent xi are constants of the market and alpha alone.

A fund of n >= 2 members is solved on the triangular table z_{i,t}
(i = 1..n survivors): the continuation mixes next-step values over the
binomial survivor transition, weighted by the wealth concentration
(i/n)^(1-alpha); see ``_kernels.log_survivor_mixture``.  Every table and
policy is (rows, n_steps): a row per survivor count, one for the infinite fund.
A study that reads only some sizes at t0 solves just the rows they reach,
with no table (``_start_values``).

The pooled recursions are linear, x_k = a_k + b_k x_{k+1} with x = a at the
last date: y above (a = 1, b = phi^q), the annuity's U^rho (a = 1, b = phi^rho
of one member at zero growth; ``annuity_utility``) and a fixed policy's
v^rho.  ``_pooled`` sums them in closed form in log space, with no loop over
dates; ``_backward`` runs only the step of a fund of n >= 2.  log phi comes
from ``_log_phi``, the one place beta enters, shared with ``analytics``; the
tests loop over y as an oracle.

The terminal step is c* = 1, z = 1 for every survivor count: with death
certain by T, consuming everything at the last date is forced, which is the
resolved form of the symbolic utility-after-death convention.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError, DivergenceError, MarketParams, Preferences, TimeGrid, _integer,
    _real_array,
)
from .mortality import MortalityTable
from ._kernels import _row_windows, _windows, lgamma_table, log_survivor_mixture

__all__ = [
    "CollectiveMode",
    "ValueTable",
    "Strategy",
    "MAX_FINITE_N",
    "optimal_proportion",
    "growth_exponent",
    "solve",
    "extract_strategy",
    "evaluate_policy",
    "annuity_utility",
]

MAX_FINITE_N = 10_000


@dataclass(frozen=True)
class CollectiveMode:
    """A fund of n members (the individual investor is n = 1), or the infinite fund, n = None."""

    n: int | None

    @classmethod
    def individual(cls) -> "CollectiveMode":
        return cls(1)

    @classmethod
    def infinite(cls) -> "CollectiveMode":
        return cls(None)

    @classmethod
    def finite(cls, n: int) -> "CollectiveMode":
        return cls(_integer(n, "finite collective size"))  # None, the infinite fund, is no size

    def __post_init__(self):
        if self.n is None:
            return
        n = _integer(self.n, "finite collective size")
        if n < 1:
            raise ConfigurationError(f"finite collective size must be an integer >= 1, got {n}")
        if n > MAX_FINITE_N:
            raise ConfigurationError(
                f"finite collective size {n} exceeds the supported cap {MAX_FINITE_N} "
                "(the largest size tested; use mode 'infinite' for larger funds)"
            )
        object.__setattr__(self, "n", n)

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    @property
    def pooling(self) -> int | None:
        """The indicator C of the funds with a closed form: 1 for the
        infinite fund, 0 for one member; None for n >= 2, which the kernel solves."""
        return {None: 1, 1: 0}.get(self.n)

    def __str__(self) -> str:
        return f"finite:{self.n}" if self.is_finite else "infinite"


def optimal_proportion(market: MarketParams, alpha: float) -> float:
    """Optimal constant stock proportion (mu - r) / ((1 - alpha) sigma^2).

    Independent of time, wealth and rho.  The risk term (1 - alpha) sigma^2
    must not underflow the normal float range.
    """
    risk = (1.0 - alpha) * market.sigma**2
    if not risk >= sys.float_info.min:
        raise ConfigurationError(
            f"the risk term (1 - alpha) sigma^2 underflows to {risk!r} at alpha = {alpha} "
            f"and sigma = {market.sigma}"
        )
    return (market.mu - market.r) / risk


def growth_exponent(market: MarketParams, alpha: float, a: float | None = None) -> float:
    """Certainty-equivalent growth rate a(mu-r) + r - a^2 (1-alpha) sigma^2 / 2.

    With ``a`` omitted this is xi, the value at the optimal proportion a*
    (the extremum for every sign of alpha); an array ``a`` gives one rate
    per entry.
    """
    if a is None:
        a = optimal_proportion(market, alpha)
    return a * (market.mu - market.r) + market.r - 0.5 * a * a * (1.0 - alpha) * market.sigma**2


def _policy_growth(market: MarketParams, alpha: float, a: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """growth_exponent per date for the stock proportions ``a``, one per
    date of ``grid``, checked finite at every date a step uses, all but the
    last: a proportion whose square overflows gives -inf or NaN, which
    DivergenceError reports."""
    if a.shape != (grid.n_steps,):
        raise ConfigurationError(f"strategy.a must have shape ({grid.n_steps},), got {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = growth_exponent(market, alpha, a)
    ok = np.isfinite(kappa[:-1])
    if not ok.all():
        k = int(np.argmin(ok))
        raise DivergenceError(
            f"growth exponent kappa = {kappa[k]} is not finite at t={grid.points[k]}, a = {a[k]}"
        )
    return kappa


def _log_phi(prefs: Preferences, dt: float, kappa, s, pooling: int):
    """log phi = log(beta)/rho + kappa dt + (1/alpha - C) log s, phi being the
    factor on next-period value per unit wealth, C = ``pooling``; elementwise
    in ``kappa`` and ``s``.  At s = 1, C = 0 it is the finite fund's drift.
    """
    drift = math.log(prefs.beta(dt)) / prefs.rho + kappa * dt
    return drift + (1.0 / prefs.alpha - pooling) * np.log(s)


def _pooled(log_a, log_b):
    """log x for x_k = a_k + b_k x_{k+1}, x = a at the last date:

        x_k = a_k + exp(-B_k) sum_{j>k} a_j exp(B_j),    B_j = sum_{i<j} log b_i,

    one cumulative sum and one reversed log-sum-exp scan.  a_k is added
    last, exactly: folding it into the scan would leave an absolute error
    of eps |B_k| in log x_k.

    log a and log b may be +-inf.  Where every infinity among them has one
    sign, as in logs of rates in [0, 1] times one power, b = 0 or inf at
    date m ends the recursion there, x_m = a_m + b_m x_{m+1}: x is exact
    up to m and NaN after it, but at the last date, and no caller reads
    those.  Infinities of both signs can make x_0 NaN, which every caller
    reports as divergence.
    """
    with np.errstate(invalid="ignore"):  # inf - inf past b = 0 or inf, or of mixed signs
        big_b = np.concatenate(([0.0], np.cumsum(log_b)))
        tail = np.logaddexp.accumulate((log_a + big_b)[::-1])[::-1]
        return np.append(np.logaddexp(log_a[:-1], tail[1:] - big_b[:-1]), log_a[-1])


def annuity_utility(mortality: MortalityTable, prefs: Preferences) -> float:
    """Utility U(1) of a unit income per grid date until death.

    Specialising the recursive utility to deterministic consumption gives

        U_t = [1 + phi_t^rho U_{t+dt}^rho]^(1/rho),    U = 1 at the final date,

    with phi_t the one-member fund's factor at zero growth, kappa = 0 and
    C = 0, so phi_t^rho = beta s_t^(rho/alpha).  U(1)^rho is x_0 of the
    linear recursion x_t = 1 + phi_t^rho x_{t+dt}, summed by ``_pooled``.
    An income gamma has utility gamma U(1).

    Raises DivergenceError when U(1) is not a normal positive float, e.g.
    when it underflows for a strongly negative rho, since every
    outperformance divides by it.
    """
    grid = mortality.grid
    log_b = prefs.rho * _log_phi(prefs, grid.dt, 0.0, mortality.s[:-1], 0)
    logu = _pooled(np.zeros(grid.n_steps), log_b)[0] / prefs.rho
    with np.errstate(over="ignore"):
        u = float(np.exp(logu))
    if not np.finfo(float).tiny <= u < math.inf:
        raise DivergenceError(
            f"annuity utility {u} is not a normal positive float (log U = {float(logu):.6g})"
        )
    return u


@dataclass(frozen=True)
class ValueTable:
    """Solved values and controls.

    ``z`` and ``cstar`` have shape (rows, n_steps) for every fund:
    n rows for a fund of n members, one included, row i-1 holding the values
    with i survivors, and one row for the infinite fund.  ``astar`` and
    ``xi`` are scalars.  The table keeps the mortality, market and
    preferences it was solved for; its grid is the mortality table's.
    """

    mode: CollectiveMode
    mortality: MortalityTable
    market: MarketParams
    prefs: Preferences
    z: np.ndarray
    cstar: np.ndarray
    astar: float
    xi: float

    @property
    def grid(self) -> TimeGrid:
        return self.mortality.grid

    def z_at_start(self) -> float:
        """z at t0 (for a finite fund: with all n members alive)."""
        return float(self.z[-1, 0])


def _diverged(mode, grid, k, row):
    count = f"for survivor count {row + 1} " if mode.is_finite else ""
    return DivergenceError(f"value recursion diverged {count}at t={grid.points[k]}")


def _rows(spans):
    """The survivor counts of the intervals ``spans``, rows [first, last]."""
    return np.concatenate([np.arange(first, last + 1) for first, last in spans])


def _row_plan(counts, mortality, alpha, spread):
    """The plan of the rows the counts ``counts`` (ascending, distinct) reach
    from t0: per date k, the intervals of counts it solves, rows [first,
    last], ascending, plus ``spread``, whose entry k bounds the range of
    alpha log z over the counts at date k and sizes the windows into it.
    Forward in time, each date's counts are the union of the windows of the
    rows before it, so every window of date k lies in the counts of k + 1."""
    spans = [np.stack((counts, counts), axis=1)]
    n = int(counts[-1])
    for k in range(mortality.grid.n_steps - 1):
        lo, hi = _windows(_rows(spans[k]), spread[k + 1], float(mortality.s[k]), alpha)
        covered = np.cumsum(np.bincount(lo, minlength=n + 2) - np.bincount(hi + 1, minlength=n + 2))
        edges = np.flatnonzero(np.diff(covered > 0))  # count 0 and n + 1 are never covered
        spans.append(edges.reshape(-1, 2) + [1, 0])
    return spans, spread


def _backward(mode, prefs, mortality, kappa, last, rule, plan=None):
    """Log values log v of a fund of n >= 2, backward from their last-date
    values ``last``: yields (k, log v_k) from the last date to t0, one entry
    per row of the date.  log v_k = rule(k, log theta_k), log theta_k =
    drift_k + log lam_k / alpha, with drift_k = log phi_k at s = 1 and lam_k
    the survivor mixture of v_{k+1}.  NaN and +inf are divergence; -inf is
    v = 0, which a policy consuming nothing at some date earns when rho < 0.

    Each date hands the kernel its rows and windows.  ``plan`` (from
    ``_row_plan``) solves only its rows, over the windows its spread gives,
    and holds two dates of them at a time; None solves every row 1..n over
    its exact window (``_row_windows``).
    """
    grid = mortality.grid
    alpha = prefs.alpha
    drift = np.broadcast_to(_log_phi(prefs, grid.dt, kappa, 1.0, 0), grid.n_steps)
    lgam = lgamma_table(mode.n)
    spans, spread = plan or (None, None)
    rows = np.arange(1, mode.n + 1) if spans is None else _rows(spans[-1])
    logv = last
    yield grid.n_steps - 1, logv
    for k in range(grid.n_steps - 2, -1, -1):
        s = float(mortality.s[k])
        with np.errstate(over="ignore"):  # overflow is caught below as NaN or +inf
            if spans is None:
                step = rows, *_row_windows(alpha * logv, s, alpha), rows
            else:
                given, rows = rows, _rows(spans[k])
                step = rows, *_windows(rows, spread[k + 1], s, alpha), given
            lam = log_survivor_mixture(logv, s, lgam, alpha, step)
            logv = rule(k, drift[k] + lam / alpha)
        ok = logv < np.inf  # False for NaN and +inf
        if not ok.all():
            raise _diverged(mode, grid, k, int(rows[np.argmin(ok)]) - 1)
        yield k, logv


def _optimal(q):
    """``solve``'s rule: log z from log theta, with y = 1 + theta^q."""

    def rule(k, logtheta):
        # overflow is divergence; as NaN, a negative q cannot make it log z = -inf
        y = 1.0 + np.exp(q * logtheta)
        return (1.0 / q) * np.log(np.where(y == np.inf, np.nan, y))

    return rule


def solve(
    mode: CollectiveMode,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> ValueTable:
    """Backward induction for the optimal value and consumption tables on the
    grid of ``mortality``."""
    if not isinstance(mode, CollectiveMode):
        raise ConfigurationError(f"mode must be a CollectiveMode, got {mode!r}")
    grid = mortality.grid
    astar = optimal_proportion(market, prefs.alpha)
    xi = growth_exponent(market, prefs.alpha, astar)
    if not math.isfinite(xi):  # mu - r or a* beyond the float range; xi is then NaN or +-inf
        raise DivergenceError(f"growth exponent xi = {xi} is not finite at a* = {astar}")
    q = prefs.rho / (1.0 - prefs.rho)
    if mode.pooling is None:
        logz = np.empty((mode.n, grid.n_steps))
        for k, column in _backward(mode, prefs, mortality, xi, np.zeros(mode.n), _optimal(q)):
            logz[:, k] = column
    else:
        log_b = q * _log_phi(prefs, grid.dt, xi, mortality.s[:-1], mode.pooling)
        ok = np.isfinite(log_b)  # here an infinite log b, phi^q = 0 or inf, is divergence
        if not ok.all():
            raise _diverged(mode, grid, int(np.argmin(ok)), 0)
        logz = (1.0 / q) * _pooled(np.zeros(grid.n_steps), log_b)[np.newaxis]
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        z = np.exp(logz)
        y = np.exp(q * logz)
    cstar = 1.0 / y
    # NaN fails every test; a subnormal z has lost significant bits
    bad = ~((z >= np.finfo(float).tiny) & (z < np.inf) & (y < np.inf) & (cstar <= 1.0))
    if np.any(bad):
        # the last overflow of y, where a backward loop stops; else the first bad k
        where = np.concatenate((np.argwhere(y == np.inf)[-1:], np.argwhere(bad)))[0]
        raise _diverged(mode, grid, where[-1], where[0])
    for arr in (z, cstar):
        arr.flags.writeable = False
    return ValueTable(
        mode=mode, mortality=mortality, market=market, prefs=prefs,
        z=z, cstar=cstar, astar=astar, xi=xi,
    )


# A rounding floor of z, relative (so in nats of log z), above the finite
# table's own rounding: against extended precision on configs/studies.json
# that is at most 1.1e-11, 1.9e-12 and 2.4e-11 relative at n = 2048 for
# three preference pairs, and about 1.2e-10 extrapolated to n = 10 000
# (ROADMAP direction 14).  It widens the study's bracket, and the study
# reads a gap to the limit below it as rounding.
BRACKET_MARGIN = 1e-9


def _bracketed(counts, market, prefs, mortality) -> np.ndarray:
    """z at t0 per fund size in ``counts`` (ascending, distinct, n >= 2).

    The sizes are rows of one fund at their largest size: the recursion
    for i survivors reads only counts <= i, so z at t0 of size i is that
    fund's ``z[i - 1, 0]``.  They are solved only on the rows they reach
    (``_row_plan``), two dates at a time, with no (n, n_steps) table.
    Their windows need a bound on the range of alpha log z at the next
    date, and the one-member and the infinite fund bracket every count,
    z_1 <= z_i <= z_inf: the bound is |alpha| (log z_inf - log z_1),
    widened by BRACKET_MARGIN on each side.  The windows hold the exact
    ones while every row stays in that bracket, which each date checks.
    If a row leaves it, a row diverges or a bracket fund diverges, the
    sizes are the all-rows ``solve``'s result, or its error.
    """
    mode = CollectiveMode.finite(int(counts[-1]))
    try:
        one = solve(CollectiveMode(1), market, prefs, mortality)
        low = np.log(one.z[0]) - BRACKET_MARGIN
        high = np.log(solve(CollectiveMode(None), market, prefs, mortality).z[0]) + BRACKET_MARGIN
        q = prefs.rho / (1.0 - prefs.rho)
        plan = _row_plan(counts, mortality, prefs.alpha, abs(prefs.alpha) * (high - low))
        last = np.zeros(_rows(plan[0][-1]).size)
        for k, logz in _backward(mode, prefs, mortality, one.xi, last, _optimal(q), plan):
            if not np.all((low[k] <= logz) & (logz <= high[k])):  # NaN fails
                break
        else:
            return np.exp(logz)
    except DivergenceError:
        pass  # the all-rows solve raises it, at the row and date it reaches first
    return solve(mode, market, prefs, mortality).z[counts - 1, 0]


def _start_values(sizes, market, prefs, mortality) -> np.ndarray:
    """z at t0 per fund size in ``sizes`` (None: the infinite fund), as a
    study reads them; each size is a ``CollectiveMode`` size.

    The sizes n >= 2 come from ``_bracketed``.  A listed one-member or
    infinite fund is then its own closed-form ``solve``, solved where it
    is read, n = 1 first, so a study raises its errors in that order
    whatever the order of ``sizes``.
    """
    modes = [CollectiveMode(n) for n in sizes]
    counts = np.array(sorted({mode.n for mode in modes if mode.pooling is None}), dtype=np.int64)
    z0 = {}
    if counts.size:
        z0.update(zip(counts.tolist(), _bracketed(counts, market, prefs, mortality)))
    for mode in (CollectiveMode(1), CollectiveMode(None)):
        if mode in modes:
            z0[mode.n] = solve(mode, market, prefs, mortality).z_at_start()
    return np.array([z0[mode.n] for mode in modes])


@dataclass(frozen=True)
class Strategy:
    """A constant-mix-within-period policy for the fund ``mode``.

    ``a`` is the stock proportion per grid point.  ``c`` is the consumption
    rate per survivor count and grid point, shaped as ``ValueTable.cstar``,
    so ``np.broadcast_to(c, (n, n_steps))`` runs the infinite fund's policy
    in a fund of n.  Rates must lie in [0, 1] and proportions be finite.
    Both are checked here and kept as read-only float64 copies; a changed
    policy is a new one, ``dataclasses.replace(strategy, c=c2)``.
    """

    mode: CollectiveMode
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if not isinstance(self.mode, CollectiveMode):
            raise ConfigurationError(f"strategy.mode must be a CollectiveMode, got {self.mode!r}")
        a = _real_array(self.a, "strategy.a")
        c = _real_array(self.c, "strategy.c")
        if a.ndim != 1:
            raise ConfigurationError(f"strategy.a must be one-dimensional, got shape {a.shape}")
        expected = (self.mode.n or 1, a.size)
        if c.shape != expected:
            raise ConfigurationError(f"strategy.c must have shape {expected}, got {c.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigurationError("stock proportions must be finite")
        if not np.all((c >= 0.0) & (c <= 1.0)):  # NaN fails
            raise ConfigurationError("consumption rates must lie in [0, 1]")
        for name, arr in (("a", a), ("c", c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def extract_strategy(table: ValueTable) -> Strategy:
    return Strategy(mode=table.mode, a=np.full(table.grid.n_steps, table.astar), c=table.cstar)


def evaluate_policy(
    strategy: Strategy,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> float:
    """Utility per unit initial wealth of a given strategy on the grid of
    ``mortality``.

    Runs the backward recursion of ``solve`` with the consumption rate fixed,

        v = (c^rho + (theta (1 - c))^rho)^(1/rho),

    and the growth exponent kappa(a) of the given proportion in place of
    the optimum; the supremum is removed, so comparing against ``solve``
    checks optimality.

    Raises DivergenceError when the value is not a normal positive float,
    as ``solve`` does, except that 0 passes: a policy consuming nothing at
    some date earns it when rho < 0, and so does a value that underflows
    to exactly 0.
    """
    mode, a, c, rho = strategy.mode, strategy.a, strategy.c, prefs.rho
    with np.errstate(divide="ignore"):
        logc = np.log(c)
        log1c = np.log1p(-c)
    kappa = _policy_growth(market, prefs.alpha, a, mortality.grid)
    if mode.pooling is None:
        def fixed(k, logtheta):
            return (1.0 / rho) * np.logaddexp(rho * logc[:, k], rho * (logtheta + log1c[:, k]))

        for _, logv in _backward(mode, prefs, mortality, kappa, logc[:, -1], fixed):
            pass
        logv = logv[-1]
    else:
        # in x = v^rho, a = c^rho and b = (phi (1 - c))^rho.  Consuming everything
        # at a date makes b 0 or inf there, which ends the recursion (``_pooled``)
        log_phi = _log_phi(prefs, mortality.grid.dt, kappa[:-1], mortality.s[:-1], mode.pooling)
        logv = _pooled(rho * logc[0], rho * (log_phi + log1c[0, :-1]))[0] / rho
    with np.errstate(over="ignore"):
        v = float(np.exp(logv))
    if not (v == 0.0 or np.finfo(float).tiny <= v < math.inf):
        raise DivergenceError(f"policy value {v} is not a normal float (log v = {logv:.6g})")
    return v
