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
(i/n)^(1-alpha); see ``_kernels.finite_value_step``.

The terminal step is c* = 1, z = 1 for every survivor count: with death
certain by T, consuming everything at the last date is forced, which is the
resolved form of the symbolic utility-after-death convention (the extended
positive reals in ``core`` exist to unit-test that algebra, not to run here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, DivergenceError, MarketParams, Preferences, TimeGrid
from .mortality import MortalityTable
from ._kernels import finite_value_step, lgamma_table, log_survivor_mixture

__all__ = [
    "CollectiveMode",
    "ValueTable",
    "Strategy",
    "MAX_FINITE_N",
    "optimal_proportion",
    "growth_exponent",
    "drift_growth_exponent",
    "continuation_factor",
    "consumption_rate",
    "solve",
    "extract_strategy",
    "evaluate_policy",
]

MAX_FINITE_N = 10_000


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
    (the extremum for every sign of alpha).
    """
    if a is None:
        a = optimal_proportion(market, alpha)
    return a * (market.mu - market.r) + market.r - 0.5 * a * a * (1.0 - alpha) * market.sigma**2


def drift_growth_exponent(market: MarketParams, alpha: float) -> float:
    """The log-wealth drift rate: the growth quadratic at a*, with alpha set
    to zero in the quadratic itself."""
    a = optimal_proportion(market, alpha)
    return a * (market.mu - market.r) + market.r - 0.5 * a * a * market.sigma**2


def continuation_factor(
    prefs: Preferences,
    market: MarketParams,
    s: float,
    collective: int,
    dt: float,
    a: float | None = None,
) -> float:
    """The per-step factor phi multiplying next-period value per unit wealth:

        beta^(1/rho) exp(xi dt) s^(1/alpha - C)

    with C = ``collective`` (0 individual, 1 infinite).  With ``a`` given,
    xi is replaced by the growth exponent of that fixed proportion (used for
    evaluating sub-optimal policies).  Only valid at non-terminal points,
    where s > 0.
    """
    if not 0.0 < s <= 1.0:
        raise ConfigurationError(
            f"survival probability must be in (0, 1] at non-terminal points, got {s}"
        )
    kap = growth_exponent(market, prefs.alpha, a=a)
    phi = prefs.beta(dt) ** (1.0 / prefs.rho) * math.exp(kap * dt) * s ** (1.0 / prefs.alpha)
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


def _check_table(mode, grid, z, y, cstar):
    bad = ~(np.isfinite(z) & (z > 0.0) & np.isfinite(y) & (cstar > 0.0) & (cstar <= 1.0))
    if np.any(bad):
        where = np.argwhere(bad)[0]
        if mode.is_finite:
            i, k = int(where[0]) + 1, int(where[1])
            raise DivergenceError(
                f"value recursion diverged for survivor count {i} at t={grid.points[k]}"
            )
        k = int(where[0])
        raise DivergenceError(f"value recursion diverged at t={grid.points[k]}")


def solve(
    mode: CollectiveMode,
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> ValueTable:
    """Backward induction for the optimal value and consumption tables."""
    if mortality.grid != grid:
        raise ConfigurationError("mortality table was built on a different grid")
    astar = optimal_proportion(market, prefs.alpha)
    xi = growth_exponent(market, prefs.alpha)
    n_steps = grid.n_steps
    rho = prefs.rho
    q = rho / (1.0 - rho)

    if mode.is_finite:
        n = mode.n
        lgam = lgamma_table(n)
        log_pref = math.log(prefs.beta(grid.dt)) / rho + xi * grid.dt
        logz = np.zeros((n, n_steps))
        for k in range(n_steps - 2, -1, -1):
            logz[:, k] = finite_value_step(
                np.ascontiguousarray(logz[:, k + 1]),
                float(mortality.s[k]),
                lgam,
                prefs.alpha,
                log_pref,
                q,
                1.0 / q,
            )
            bad = ~np.isfinite(logz[:, k])
            if np.any(bad):
                i = int(np.argmax(bad)) + 1
                raise DivergenceError(
                    f"value recursion diverged for survivor count {i} at t={grid.points[k]}"
                )
        z = np.exp(logz)
        y = np.exp(q * logz)
        cstar = 1.0 / y
    else:
        p = mode.pooling
        y = np.empty(n_steps)
        y[-1] = 1.0
        # overflow to inf is how divergence is detected, not a fault
        with np.errstate(over="ignore"):
            for k in range(n_steps - 2, -1, -1):
                phi = continuation_factor(prefs, market, float(mortality.s[k]), p, grid.dt)
                y[k] = 1.0 + phi**q * y[k + 1]
                if not math.isfinite(y[k]):
                    raise DivergenceError(f"value recursion diverged at t={grid.points[k]}")
        z = y ** (1.0 / q)
        cstar = 1.0 / y

    _check_table(mode, grid, z, y, cstar)
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


def evaluate_policy(
    strategy: Strategy,
    mode: CollectiveMode,
    grid: TimeGrid,
    market: MarketParams,
    prefs: Preferences,
    mortality: MortalityTable,
) -> float:
    """Utility per unit initial wealth of a given strategy.

    Runs the same backward recursion as ``solve`` but with the consumption
    rate fixed and the one-period wealth-power moment exp(alpha kappa(a) dt)
    of the given proportion in place of the optimum; the supremum is removed,
    so comparing against ``solve`` checks optimality.
    """
    if mortality.grid != grid:
        raise ConfigurationError("mortality table was built on a different grid")
    n_steps = grid.n_steps
    a = np.asarray(strategy.a, dtype=np.float64)
    c = np.asarray(strategy.c, dtype=np.float64)
    if a.shape != (n_steps,):
        raise ConfigurationError(f"strategy.a must have shape ({n_steps},), got {a.shape}")
    expected = (mode.n, n_steps) if mode.is_finite else (n_steps,)
    if c.shape != expected:
        raise ConfigurationError(f"strategy.c must have shape {expected}, got {c.shape}")
    if np.any((c < 0.0) | (c > 1.0)):
        raise ConfigurationError("consumption rates must lie in [0, 1]")

    rho = prefs.rho

    if not mode.is_finite:
        p = mode.pooling
        with np.errstate(divide="ignore"):
            v = np.float64(c[-1])
            for k in range(n_steps - 2, -1, -1):
                phi = continuation_factor(
                    prefs, market, float(mortality.s[k]), p, grid.dt, a=float(a[k])
                )
                inner = np.float64(c[k]) ** rho + (phi * (1.0 - c[k]) * v) ** rho
                v = inner ** (1.0 / rho)
        if not np.isfinite(v):
            raise DivergenceError("policy evaluation diverged")
        return float(v)

    n = mode.n
    lgam = lgamma_table(n)
    beta = prefs.beta(grid.dt)
    with np.errstate(divide="ignore"):
        logc = np.log(c)
        log1c = np.log1p(-c)
        logv = logc[:, -1].copy()
        for k in range(n_steps - 2, -1, -1):
            loglam = log_survivor_mixture(logv, float(mortality.s[k]), lgam, prefs.alpha)
            kap = growth_exponent(market, prefs.alpha, a=float(a[k]))
            logtheta = math.log(beta) / rho + kap * grid.dt + loglam / prefs.alpha
            logv = (1.0 / rho) * np.logaddexp(
                rho * logc[:, k], rho * (logtheta + log1c[:, k])
            )
            if np.any(np.isnan(logv) | (logv == np.inf)):
                i = int(np.argmax(np.isnan(logv) | (logv == np.inf))) + 1
                raise DivergenceError(
                    f"policy evaluation diverged for survivor count {i} at t={grid.points[k]}"
                )
    return float(np.exp(logv[n - 1]))
