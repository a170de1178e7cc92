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
(i/n)^(1-alpha); see ``_kernels.log_survivor_mixture``.

``solve`` in every mode, ``evaluate_policy`` and ``studies.annuity_utility``
share one log-space driver, ``_backward``: a pooled fund is the same step as
a finite one with the mixture replaced by (1/alpha - C) log s_t.  Its two
terms of log phi_t come from ``_log_phi``, which ``analytics`` uses too.
The linear recursion above is the math of the pooled case, and the tests
run it as an independent oracle; it is not a second code path.

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
    "MAX_SCENARIOS",
    "optimal_proportion",
    "growth_exponent",
    "solve",
    "extract_strategy",
    "evaluate_policy",
]

MAX_FINITE_N = 10_000

# Caps on what one accepted CLI config may ask for, so that a config at all
# three caps keeps its tables and path arrays under 1 GiB on a 7.8 GiB machine.
# Measured tracemalloc peaks per unit: about 200 B per grid point (simulate's
# per-date statistics; solve needs 60 B), 60 B per finite table cell (the
# value.csv columns of solve; simulate and converge need 32 B) and 42 B per
# Monte Carlo path (a finite fund at 1,000,000 paths with wealth summarised,
# as the CLI runs it; 49 B with consumption too, 25 B for the infinite fund),
# i.e. at most about 200 + 300 + 235 MiB, the last at 49 B per path.
MAX_GRID_POINTS = 1_000_000
MAX_FINITE_CELLS = 5_000_000  # fund size n times grid points
MAX_PATHS = 5_000_000
# The scenarios command writes all k(k-1) ordered pairs to improvements.csv;
# at k = 1000 the command peaks at 191 MiB RSS and writes 27 MiB.
MAX_SCENARIOS = 1000


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


def _log_phi(prefs: Preferences, dt: float, kappa, s, pooling: int):
    """The two terms of log phi, phi = beta^(1/rho) exp(kappa dt) s^(1/alpha - C)
    being the factor on next-period value per unit wealth, C = ``pooling``:

        (log(beta)/rho + kappa dt,  (1/alpha - C) log s),

    elementwise in ``kappa`` and ``s``.  ``_backward`` adds them as
    drift + (surv + log v): summing the two first rounds differently and
    moves the last printed digit of some CLI values.
    """
    return (
        math.log(prefs.beta(dt)) / prefs.rho + kappa * dt,
        (1.0 / prefs.alpha - pooling) * np.log(s),
    )


@dataclass(frozen=True)
class ValueTable:
    """Solved values and controls.

    ``z``, ``y`` and ``cstar`` have shape (n_steps,) for individual/infinite
    modes and (n, n_steps) for a finite collective, row i-1 holding the
    values with i survivors.  ``astar`` and ``xi`` are scalars.  The table
    keeps the mortality, market and preferences it was solved for; its grid
    is the mortality table's.
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


def _diverged(mode, grid, k, row=0):
    count = f"for survivor count {row + 1} " if mode.is_finite else ""
    return DivergenceError(f"value recursion diverged {count}at t={grid.points[k]}")


def _backward(mode, prefs, mortality, kappa, last, rule):
    """Log values log v on the grid, backward from their last-date values
    ``last`` (one per survivor count for a finite fund).  Step k forms

        finite:  log theta_k = drift_k + log lam_k / alpha,
        pooled:  log theta_k = drift_k + (surv_k + log v_{k+1}),

    drift_k and surv_k being the terms of log phi_k (``_log_phi``) and lam_k
    the survivor mixture of v_{k+1}, and log v_k = rule(k, log theta_k).
    NaN and +inf are divergence; -inf is v = 0, which a policy consuming
    nothing at some date earns when rho < 0.
    """
    grid = mortality.grid
    alpha = prefs.alpha
    logv = np.empty(np.shape(last) + (grid.n_steps,))
    logv[..., -1] = last
    # a finite fund's step uses only the drift
    pooling = 0 if mode.is_finite else mode.pooling
    drift, surv = _log_phi(prefs, grid.dt, kappa[:-1], mortality.s[:-1], pooling)
    lgam = lgamma_table(mode.n) if mode.is_finite else None
    with np.errstate(over="ignore"):  # overflow is caught below as NaN or +inf
        for k in range(grid.n_steps - 2, -1, -1):
            if mode.is_finite:
                lam = log_survivor_mixture(logv[:, k + 1], float(mortality.s[k]), lgam, alpha)
                cont = lam / alpha
            else:
                cont = surv[k] + logv[k + 1]
            logv[..., k] = rule(k, drift[k] + cont)
            ok = logv[..., k] < np.inf  # False for NaN and +inf
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

    kappa = np.full(grid.n_steps, xi)
    last = np.zeros(mode.n) if mode.is_finite else 0.0
    logz = _backward(mode, prefs, mortality, kappa, last, optimal)
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        z = np.exp(logz)
        y = np.exp(q * logz)
    cstar = 1.0 / y
    bad = ~(np.isfinite(z) & (z > 0.0) & np.isfinite(y) & (cstar > 0.0) & (cstar <= 1.0))
    if np.any(bad):
        where = np.argwhere(bad)[0]
        raise _diverged(mode, grid, where[-1], where[0])
    for arr in (z, y, cstar):
        arr.flags.writeable = False
    return ValueTable(
        mode=mode, mortality=mortality, market=market, prefs=prefs,
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
    """
    a, c = _strategy_arrays(strategy, mode, mortality.grid.n_steps)
    rho = prefs.rho
    with np.errstate(divide="ignore"):
        logc = np.log(c)
        log1c = np.log1p(-c)

    def fixed(k, logtheta):
        return (1.0 / rho) * np.logaddexp(rho * logc[..., k], rho * (logtheta + log1c[..., k]))

    kappa = growth_exponent(market, prefs.alpha, a=a)
    logv = _backward(mode, prefs, mortality, kappa, logc[..., -1], fixed)
    return float(np.exp(logv[-1, 0] if mode.is_finite else logv[0]))
