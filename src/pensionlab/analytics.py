"""Closed-form distributions of wealth and consumption along the optimal
strategy, the direction of consumption over time, and the elasticity of
intertemporal substitution.

For the infinite fund and the one-member fund (the individual), log wealth
per survivor at each date is normal: the standard deviation is
sigma a* sqrt(t-t0) and the mean obeys

    mu_{t+dt} = mu_t + log(s_t^-C) + log(1 - c*_t) + xi_drift dt,

where xi_drift is the growth quadratic at a* with alpha set to zero (the drift
of log wealth rather than its power-mean growth).  Log consumption is log
wealth shifted by log c*_t with identical spread, so ``LognormalSchedule``
holds that spread once, as ``sigma_x``.  The schedule is formed as
whole arrays from the solved y and the solver's log phi terms, never phi
itself, so it stays finite where phi under- or overflows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, DivergenceError, MarketParams, Preferences, _real
from .solver import CollectiveMode, ValueTable, _log_phi, growth_exponent, optimal_proportion

__all__ = [
    "LognormalSchedule",
    "Direction",
    "wealth_schedule",
    "consumption_drift",
    "consumption_direction",
    "eis",
]


@dataclass(frozen=True)
class LognormalSchedule:
    """Per-grid-point means of log wealth X and log consumption gamma, and
    their standard deviation ``sigma_x``: log gamma is log X shifted by a
    constant per date, so it has the spread of log X."""

    mu_x: np.ndarray
    sigma_x: np.ndarray
    mu_gamma: np.ndarray


def _pooling(mode: CollectiveMode, what: str) -> int:
    """The indicator C of ``mode``, which the closed forms of ``what`` need."""
    if not isinstance(mode, CollectiveMode):
        raise ConfigurationError(f"mode must be a CollectiveMode, got {mode!r}")
    if mode.pooling is None:
        raise ConfigurationError(f"{what} supports individual and infinite funds only; "
                                 "a fund of n >= 2 members needs simulation")
    return mode.pooling


def wealth_schedule(table: ValueTable, x0: float) -> LognormalSchedule:
    """Lognormal parameters of per-survivor wealth and consumption over time,
    starting from wealth ``x0`` under the mortality and market of ``table``.

    Only the infinite and the one-member fund, whose tables are one row: with
    a random survivor count the per-survivor wealth of a fund of n >= 2 is
    not lognormal (use Monte Carlo), and it raises ConfigurationError.
    """
    pool = _pooling(table.mode, "wealth_schedule")
    x0 = _real(x0, "initial wealth")
    if not x0 > 0.0:
        raise ConfigurationError(f"initial wealth must be finite and positive, got {x0}")

    mortality = table.mortality
    grid = mortality.grid
    rho = table.prefs.rho
    s = mortality.s[:-1]
    log_y = np.log(table.y[0])
    # log(1 - c*_k) = log((y_k - 1)/y_k) with y_k - 1 = phi_k^q y_{k+1},
    # which stays accurate when c* is within rounding of 1
    log_phi = _log_phi(table.prefs, grid.dt, table.xi, s, pool)
    log_remaining = (rho / (1.0 - rho)) * log_phi + log_y[1:] - log_y[:-1]
    xi_drift = growth_exponent(table.market, 0.0, table.astar)
    steps = -pool * np.log(s) + log_remaining + xi_drift * grid.dt
    # np.cumsum adds one date at a time, in the order of the recursion
    mu_x = np.cumsum(np.concatenate(([math.log(x0)], steps)))
    try:
        step_var = (table.astar * table.market.sigma) ** 2 * grid.dt
    except OverflowError:  # Python's float power raises where numpy's gives inf
        step_var = math.inf
    if not (math.isfinite(xi_drift) and math.isfinite(step_var)):
        raise DivergenceError(
            f"log wealth per step has drift {xi_drift} and variance {step_var} "
            f"at a* = {table.astar}; both must be finite"
        )
    sigma_x = np.sqrt(np.cumsum(np.concatenate(([0.0], np.full(s.size, step_var)))))
    mu_gamma = mu_x + (rho / (rho - 1.0)) * np.log(table.z[0])
    for arr in (mu_x, sigma_x, mu_gamma):
        arr.flags.writeable = False
    return LognormalSchedule(mu_x=mu_x, sigma_x=sigma_x, mu_gamma=mu_gamma)


def consumption_drift(
    prefs: Preferences,
    market: MarketParams,
    s: float,
    mode: CollectiveMode,
    dt: float = 1.0,
) -> float:
    """Expected one-step change of log consumption per survivor in ``mode``,
    the infinite or the one-member fund, with C = ``mode.pooling``:

        E(log gamma_{t+dt} | gamma_t) - log gamma_t
            = log(s^-C) + rho/(1-rho) log(phi) + xi_drift dt.
    """
    pool = _pooling(mode, "consumption_drift")
    s, dt = _real(s, "survival probability"), _real(dt, "dt")
    if not 0.0 < s <= 1.0:
        raise ConfigurationError(f"survival probability must be in (0, 1], got {s}")
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    rho = prefs.rho
    log_phi = _log_phi(prefs, dt, growth_exponent(market, prefs.alpha), s, pool)
    return float(
        -pool * math.log(s)
        + (rho / (1.0 - rho)) * log_phi
        + growth_exponent(market, 0.0, optimal_proportion(market, prefs.alpha)) * dt
    )


class Direction(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"


def consumption_direction(prefs: Preferences, mode: CollectiveMode) -> Direction:
    """How optimal consumption in ``mode``, the infinite or the one-member
    fund, moves over time when mu = r = 0 and beta = 1.

    Consumption then follows gamma_{t+dt} = s^e gamma_t with e = (1/alpha -
    C/rho) rho/(1-rho), C = ``mode.pooling``; for survival probabilities in
    (0, 1) the sign of e classifies the direction (s^e < 1 iff e > 0).
    """
    pool = _pooling(mode, "consumption_direction")
    e = (1.0 / prefs.alpha - pool / prefs.rho) * prefs.rho / (1.0 - prefs.rho)
    if e > 0.0:
        return Direction.DECREASING
    if e < 0.0:
        return Direction.INCREASING
    return Direction.CONSTANT


def eis(prefs: Preferences, market: MarketParams) -> float:
    """Elasticity of intertemporal substitution of the optimal strategy:

        1/(1-rho) * (1 - (mu - r)(1 + alpha (rho - 2)) / ((alpha - 1)^2 sigma^2))

    Independent of time, mortality and the discount rate.
    """
    alpha, rho = prefs.alpha, prefs.rho
    frac = (market.mu - market.r) * (1.0 + alpha * (rho - 2.0)) / (
        (alpha - 1.0) ** 2 * market.sigma**2
    )
    return (1.0 - frac) / (1.0 - rho)
