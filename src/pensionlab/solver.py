"""Backward-induction value recursions and optimal controls.

The value of one unit of fund-per-survivor wealth at grid point t is z_t
(``value per unit wealth``): by positive homogeneity the full value function
is x * z_t.  Writing y = z^(rho/(1-rho)), the individual (C=0) and infinite
collective (C=1) cases satisfy the linear recursion

    y_t = 1 + phi_t^(rho/(1-rho)) * y_{t+dt},     y at the last date = 1,

with phi_t = beta^(1/rho) exp(xi dt) s_t^(1/alpha - C), and the optimal
consumption rate is c*_t = 1/y_t.  The optimal stock proportion a* and the
per-period growth exponent xi are constants of the market and alpha alone.

A finite collective of n members is solved on the triangular table z_{i,t}
(i = 1..n survivors): the continuation mixes next-step values over the
binomial survivor transition, weighted by the wealth concentration
(i/n)^(1-alpha); see ``_kernels.log_survivor_mixture``.  This solve and
``evaluate_policy`` in every mode share one log-space driver, ``_backward``.

The terminal step is c* = 1, z = 1 for every survivor count: with death
certain by T, consuming everything at the last date is forced, which is the
resolved form of the symbolic utility-after-death convention.
"""

from __future__ import annotations

import math
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
    "MAX_GRID_POINTS",
    "MAX_FINITE_CELLS",
    "MAX_PATHS",
    "optimal_proportion",
    "growth_exponent",
    "continuation_factor",
    "consumption_rate",
    "solve",
    "extract_strategy",
    "evaluate_policy",
]

MAX_FINITE_N = 10_000

# Caps on what one accepted CLI config may ask for, so that a config at all
# three caps keeps its tables and path arrays near 1 GiB on a 7.8 GiB machine.
# Measured tracemalloc peaks per unit: about 200 B per grid point (simulate's
# per-date statistics; solve needs 60 B), 60 B per finite table cell (the
# value.csv columns of solve; simulate and converge need 32 B) and 90 B per
# Monte Carlo path, i.e. at most about 200 + 300 + 450 MiB.
MAX_GRID_POINTS = 1_000_000
MAX_FINITE_CELLS = 5_000_000  # fund size n times grid points
MAX_PATHS = 5_000_000


@dataclass(frozen=True)
class CollectiveMode:
    """Individual (no pooling), infinite collective, or a fund of n members."""

    kind: str
    n: int | None = None

    @classmethod
    def individual(cls) -> "CollectiveMode":
        return cls("individual")

    @classmethod
    def infinite(cls) -> "CollectiveMode":
        return cls("infinite")

    @classmethod
    def finite(cls, n: int) -> "CollectiveMode":
        if int(n) != n or n < 1:
            raise ConfigurationError(f"finite collective size must be an integer >= 1, got {n}")
        if n > MAX_FINITE_N:
            raise ConfigurationError(
                f"finite collective size {n} exceeds the supported cap {MAX_FINITE_N} "
                "(the largest size tested; use mode 'infinite' for larger funds)"
            )
        return cls("finite", int(n))

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def pooling(self) -> int:
        """The indicator C: 0 for individual, 1 for infinite."""
        if self.kind == "individual":
            return 0
        if self.kind == "infinite":
            return 1
        raise ConfigurationError("finite collectives have no pooling indicator")

    def __str__(self) -> str:
        return f"finite:{self.n}" if self.is_finite else self.kind


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


def continuation_factor(
    prefs: Preferences,
    market: MarketParams,
    s: float,
    collective: int,
    dt: float,
) -> float:
    """The per-step factor phi multiplying next-period value per unit wealth:

        beta^(1/rho) exp(xi dt) s^(1/alpha - C)

    with C = ``collective`` (0 individual, 1 infinite).  Only valid at
    non-terminal points, where s > 0.
    """
    if not 0.0 < s <= 1.0:
        raise ConfigurationError(
            f"survival probability must be in (0, 1] at non-terminal points, got {s}"
        )
    xi = growth_exponent(market, prefs.alpha)
    phi = prefs.beta(dt) ** (1.0 / prefs.rho) * math.exp(xi * dt) * s ** (1.0 / prefs.alpha)
    if collective:
        phi /= s
    return phi


def consumption_rate(z: float, rho: float) -> float:
    """Optimal consumption rate z^(rho/(rho-1)) implied by a value z > 0."""
    if not (z > 0.0 and math.isfinite(z)):
        raise ConfigurationError(f"value per unit wealth must be positive finite, got {z}")
    return z ** (rho / (rho - 1.0))


@dataclass(frozen=True)
class ValueTable:
    """Solved values and controls.

    ``z``, ``y`` and ``cstar`` have shape (n_steps,) for individual/infinite
    modes and (n, n_steps) for a finite collective, row i-1 holding the
    values with i survivors.  ``astar`` and ``xi`` are scalars.
    """

    mode: CollectiveMode
    grid: TimeGrid
    market: MarketParams
    prefs: Preferences
    z: np.ndarray
    y: np.ndarray
    cstar: np.ndarray
    astar: float
    xi: float

    def z_at_start(self) -> float:
        """z at t0 (for a finite fund: with all n members alive)."""
        return float(self.z[-1, 0] if self.mode.is_finite else self.z[0])


def _diverged(mode, grid, k, row=0):
    count = f"for survivor count {row + 1} " if mode.is_finite else ""
    return DivergenceError(f"value recursion diverged {count}at t={grid.points[k]}")


def _backward(mode, grid, prefs, mortality, kappa, last, rule):
    """Log values log v on the grid, backward from their last-date values
    ``last`` (one per survivor count for a finite fund).  Step k forms

        finite:  log theta_k = log(beta)/rho + kappa_k dt + log lam_k / alpha,
        pooled:  log theta_k = log(beta)/rho + kappa_k dt + (1/alpha - C) log s_k + log v_{k+1},

    lam_k being the survivor mixture of v_{k+1}, and log v_k = rule(k, log theta_k).
    NaN and +inf are divergence; -inf is v = 0, which a policy consuming
    nothing at some date earns when rho < 0.
    """
    if mortality.grid != grid:
        raise ConfigurationError("mortality table was built on a different grid")
    alpha = prefs.alpha
    logv = np.empty(np.shape(last) + (grid.n_steps,))
    logv[..., -1] = last
    log_beta = math.log(prefs.beta(grid.dt)) / prefs.rho
    lgam = lgamma_table(mode.n) if mode.is_finite else None
    for k in range(grid.n_steps - 2, -1, -1):
        s = float(mortality.s[k])
        if mode.is_finite:
            cont = log_survivor_mixture(logv[:, k + 1], s, lgam, alpha) / alpha
        else:
            cont = (1.0 / alpha - mode.pooling) * math.log(s) + logv[k + 1]
        logv[..., k] = rule(k, log_beta + kappa[k] * grid.dt + cont)
        bad = np.isnan(logv[..., k]) | (logv[..., k] == np.inf)
        if np.any(bad):
            raise _diverged(mode, grid, k, int(np.argmax(bad)))
    return logv


def solve(
    mode: CollectiveMode,
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> ValueTable:
    """Backward induction for the optimal value and consumption tables."""
    astar = optimal_proportion(market, prefs.alpha)
    xi = growth_exponent(market, prefs.alpha)
    q = prefs.rho / (1.0 - prefs.rho)

    if mode.is_finite:

        def optimal(k, logtheta):
            # overflow is divergence; as NaN, a negative q cannot make it log z = -inf
            with np.errstate(over="ignore"):
                y = 1.0 + np.exp(q * logtheta)
            y[y == np.inf] = np.nan
            return (1.0 / q) * np.log(y)

        kappa = np.full(grid.n_steps, xi)
        logz = _backward(mode, grid, prefs, mortality, kappa, np.zeros(mode.n), optimal)
        z = np.exp(logz)
        y = np.exp(q * logz)
    else:
        # the linear recursion in y, whose roundings the log-space driver would change
        if mortality.grid != grid:
            raise ConfigurationError("mortality table was built on a different grid")
        p = mode.pooling
        y = np.ones(grid.n_steps)
        with np.errstate(over="ignore"):  # overflow to inf is how divergence is detected
            for k in range(grid.n_steps - 2, -1, -1):
                phi = continuation_factor(prefs, market, float(mortality.s[k]), p, grid.dt)
                y[k] = 1.0 + phi**q * y[k + 1]
                if not math.isfinite(y[k]):
                    raise _diverged(mode, grid, k)
        z = y ** (1.0 / q)
    cstar = 1.0 / y
    bad = ~(np.isfinite(z) & (z > 0.0) & np.isfinite(y) & (cstar > 0.0) & (cstar <= 1.0))
    if np.any(bad):
        where = np.argwhere(bad)[0]
        raise _diverged(mode, grid, where[-1], where[0])
    for arr in (z, y, cstar):
        arr.flags.writeable = False
    return ValueTable(
        mode=mode, grid=grid, market=market, prefs=prefs,
        z=z, y=y, cstar=cstar, astar=astar, xi=xi,
    )


@dataclass
class Strategy:
    """A constant-mix-within-period policy.

    ``a`` is the stock proportion per grid point.  ``c`` is the consumption
    rate per grid point, additionally indexed by survivor count (rows i-1
    for i survivors) for finite collectives.  Rates must lie in [0, 1].
    """

    a: np.ndarray
    c: np.ndarray


def extract_strategy(table: ValueTable) -> Strategy:
    return Strategy(
        a=np.full(table.grid.n_steps, table.astar),
        c=np.array(table.cstar, copy=True),
    )


def _strategy_arrays(strategy: Strategy, mode: CollectiveMode, n_steps: int):
    """(a, c) of a strategy as float arrays, checked against the mode and grid."""
    a = np.asarray(strategy.a, dtype=np.float64)
    c = np.asarray(strategy.c, dtype=np.float64)
    if a.shape != (n_steps,):
        raise ConfigurationError(f"strategy.a must have shape ({n_steps},), got {a.shape}")
    expected = (mode.n, n_steps) if mode.is_finite else (n_steps,)
    if c.shape != expected:
        raise ConfigurationError(f"strategy.c must have shape {expected}, got {c.shape}")
    if np.any((c < 0.0) | (c > 1.0)):
        raise ConfigurationError("consumption rates must lie in [0, 1]")
    return a, c


def evaluate_policy(
    strategy: Strategy,
    mode: CollectiveMode,
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> float:
    """Utility per unit initial wealth of a given strategy.

    Runs the backward recursion of ``solve`` with the consumption rate fixed,

        v = (c^rho + (theta (1 - c))^rho)^(1/rho),

    and the growth exponent kappa(a) of the given proportion in place of
    the optimum; the supremum is removed, so comparing against ``solve``
    checks optimality.
    """
    a, c = _strategy_arrays(strategy, mode, grid.n_steps)
    rho = prefs.rho
    with np.errstate(divide="ignore"):
        logc = np.log(c)
        log1c = np.log1p(-c)

    def fixed(k, logtheta):
        return (1.0 / rho) * np.logaddexp(rho * logc[..., k], rho * (logtheta + log1c[..., k]))

    kappa = growth_exponent(market, prefs.alpha, a=a)
    logv = _backward(mode, grid, prefs, mortality, kappa, logc[..., -1], fixed)
    return float(np.exp(logv[-1, 0] if mode.is_finite else logv[0]))
