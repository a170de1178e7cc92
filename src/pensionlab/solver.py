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
(i/n)^(1-alpha); see ``_kernels.log_survivor_mixture``.

The pooled recursions are linear, x_k = a_k + b_k x_{k+1} with x = a at the
last date: y above (a = 1, b = phi^q), the annuity's U^rho and a fixed
policy's v^rho.  ``_pooled`` sums them in closed form in log space, with no
loop over dates; ``_backward`` runs only the step of a fund of n >= 2.  log
phi comes from ``_log_phi``, shared with ``analytics``; the tests loop over y
as an oracle.

The terminal step is c* = 1, z = 1 for every survivor count: with death
certain by T, consuming everything at the last date is forced, which is the
resolved form of the symbolic utility-after-death convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, DivergenceError, MarketParams, Preferences, TimeGrid
from .mortality import MortalityTable
from ._kernels import lgamma_table, log_survivor_mixture

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
        if n is None:  # None is the infinite fund, not a size
            raise ConfigurationError("finite collective size must be an integer >= 1, got None")
        return cls(n)

    def __post_init__(self):
        n = self.n
        if n is None:
            return
        if isinstance(n, bool) or not (
            isinstance(n, numbers.Real) and 1 <= n < math.inf and int(n) == n
        ):
            raise ConfigurationError(f"finite collective size must be an integer >= 1, got {n!r}")
        if n > MAX_FINITE_N:
            raise ConfigurationError(
                f"finite collective size {n} exceeds the supported cap {MAX_FINITE_N} "
                "(the largest size tested; use mode 'infinite' for larger funds)"
            )
        object.__setattr__(self, "n", int(n))

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

    Independent of time, wealth and rho.
    """
    return (market.mu - market.r) / ((1.0 - alpha) * market.sigma**2)


def growth_exponent(market: MarketParams, alpha: float, a: float | None = None) -> float:
    """Certainty-equivalent growth rate a(mu-r) + r - a^2 (1-alpha) sigma^2 / 2.

    With ``a`` omitted this is xi, the value at the optimal proportion a*
    (the extremum for every sign of alpha); an array ``a`` gives one rate
    per entry.
    """
    if a is None:
        a = optimal_proportion(market, alpha)
    return a * (market.mu - market.r) + market.r - 0.5 * a * a * (1.0 - alpha) * market.sigma**2


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
    of eps |B_k| in log x_k.  log b must be finite; log a may be +-inf.
    """
    big_b = np.concatenate(([0.0], np.cumsum(log_b)))
    tail = np.logaddexp.accumulate((log_a + big_b)[::-1])[::-1]
    return np.append(np.logaddexp(log_a[:-1], tail[1:] - big_b[:-1]), log_a[-1])


@dataclass(frozen=True)
class ValueTable:
    """Solved values and controls.

    ``z``, ``y`` and ``cstar`` have shape (n_steps,) for the infinite fund
    and (n, n_steps) for a fund of n members, one included, row i-1 holding
    the values with i survivors.  ``astar`` and ``xi`` are scalars.  The
    table keeps the mortality, market and preferences it was solved for; its
    grid is the mortality table's.
    """

    mode: CollectiveMode
    mortality: MortalityTable
    market: MarketParams
    prefs: Preferences
    z: np.ndarray
    y: np.ndarray
    cstar: np.ndarray
    astar: float
    xi: float

    @property
    def grid(self) -> TimeGrid:
        return self.mortality.grid

    def z_at_start(self) -> float:
        """z at t0 (for a finite fund: with all n members alive)."""
        return float(self.z[-1, 0] if self.mode.is_finite else self.z[0])


def _diverged(mode, grid, k, row):
    count = f"for survivor count {row + 1} " if mode.is_finite else ""
    return DivergenceError(f"value recursion diverged {count}at t={grid.points[k]}")


def _backward(mode, prefs, mortality, kappa, last, rule):
    """Log values log v of a fund of n >= 2, one row per survivor count,
    backward from their last-date values ``last``: log v_k = rule(k, log
    theta_k), log theta_k = drift_k + log lam_k / alpha, with drift_k = log
    phi_k at s = 1 and lam_k the survivor mixture of v_{k+1}.  NaN and +inf
    are divergence; -inf is v = 0, which a policy consuming nothing at some
    date earns when rho < 0.
    """
    grid = mortality.grid
    logv = np.empty((mode.n, grid.n_steps))
    logv[:, -1] = last
    drift = np.broadcast_to(_log_phi(prefs, grid.dt, kappa, 1.0, 0), grid.n_steps)
    lgam = lgamma_table(mode.n)
    with np.errstate(over="ignore"):  # overflow is caught below as NaN or +inf
        for k in range(grid.n_steps - 2, -1, -1):
            lam = log_survivor_mixture(logv[:, k + 1], float(mortality.s[k]), lgam, prefs.alpha)
            logv[:, k] = rule(k, drift[k] + lam / prefs.alpha)
            ok = logv[:, k] < np.inf  # False for NaN and +inf
            if not ok.all():
                raise _diverged(mode, grid, k, int(np.argmin(ok)))
    return logv


def solve(
    mode: CollectiveMode,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> ValueTable:
    """Backward induction for the optimal value and consumption tables on the
    grid of ``mortality``."""
    grid = mortality.grid
    astar = optimal_proportion(market, prefs.alpha)
    xi = growth_exponent(market, prefs.alpha)
    q = prefs.rho / (1.0 - prefs.rho)

    def optimal(k, logtheta):
        # overflow is divergence; as NaN, a negative q cannot make it log z = -inf
        y = 1.0 + np.exp(q * logtheta)
        return (1.0 / q) * np.log(np.where(y == np.inf, np.nan, y))

    if mode.pooling is None:
        logz = _backward(mode, prefs, mortality, xi, np.zeros(mode.n), optimal)
    else:
        log_b = q * _log_phi(prefs, grid.dt, xi, mortality.s[:-1], mode.pooling)
        logz = (1.0 / q) * _pooled(np.zeros(grid.n_steps), log_b)
        if mode.is_finite:  # the one-member table's one row
            logz = logz[np.newaxis]
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
    for arr in (z, y, cstar):
        arr.flags.writeable = False
    return ValueTable(
        mode=mode, mortality=mortality, market=market, prefs=prefs,
        z=z, y=y, cstar=cstar, astar=astar, xi=xi,
    )


@dataclass
class Strategy:
    """A constant-mix-within-period policy for the fund ``mode``.

    ``a`` is the stock proportion per grid point.  ``c`` is the consumption
    rate per grid point, of shape (n_steps,) for the infinite fund and (n,
    n_steps) for a fund of n members, one included (rows i-1 for i
    survivors).  Rates must lie in [0, 1] and proportions be finite.
    """

    mode: CollectiveMode
    a: np.ndarray
    c: np.ndarray


def extract_strategy(table: ValueTable) -> Strategy:
    return Strategy(
        mode=table.mode,
        a=np.full(table.grid.n_steps, table.astar),
        c=np.array(table.cstar, copy=True),
    )


def _strategy_arrays(strategy: Strategy, n_steps: int):
    """(a, c) of a strategy as float arrays, checked against its mode and the grid."""
    a = np.asarray(strategy.a, dtype=np.float64)
    c = np.asarray(strategy.c, dtype=np.float64)
    if a.shape != (n_steps,):
        raise ConfigurationError(f"strategy.a must have shape ({n_steps},), got {a.shape}")
    mode = strategy.mode
    expected = (mode.n, n_steps) if mode.is_finite else (n_steps,)
    if c.shape != expected:
        raise ConfigurationError(f"strategy.c must have shape {expected}, got {c.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigurationError("stock proportions must be finite")
    if not np.all((c >= 0.0) & (c <= 1.0)):  # NaN fails
        raise ConfigurationError("consumption rates must lie in [0, 1]")
    return a, c


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
    a, c = _strategy_arrays(strategy, mortality.grid.n_steps)
    mode, rho = strategy.mode, prefs.rho
    with np.errstate(divide="ignore"):
        logc = np.log(c)
        log1c = np.log1p(-c)
    kappa = growth_exponent(market, prefs.alpha, a=a)
    if mode.pooling is None:
        def fixed(k, logtheta):
            return (1.0 / rho) * np.logaddexp(rho * logc[:, k], rho * (logtheta + log1c[:, k]))

        logv = _backward(mode, prefs, mortality, kappa, logc[:, -1], fixed)[-1, 0]
    else:
        # in x = v^rho, a = c^rho and b = (phi (1 - c))^rho.  Consuming everything
        # at date m makes b_m 0 or inf: x_m = a_m + b_m x_{m+1} ends the recursion
        logc, log1c = logc.ravel(), log1c.ravel()  # one member has one row
        log_phi = _log_phi(prefs, mortality.grid.dt, kappa[:-1], mortality.s[:-1], mode.pooling)
        log_b = np.append(rho * (log_phi + log1c[:-1]), -np.inf)  # nothing follows the last date
        m = int(np.argmax(np.isinf(log_b)))
        log_a = np.append(rho * logc[:m], np.logaddexp(rho * logc[m], log_b[m]))
        logv = _pooled(log_a, log_b[:m])[0] / rho
    with np.errstate(over="ignore"):
        v = float(np.exp(logv))
    if not (v == 0.0 or np.finfo(float).tiny <= v < math.inf):
        raise DivergenceError(f"policy value {v} is not a normal float (log v = {logv:.6g})")
    return v
