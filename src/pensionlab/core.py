"""Domain types shared by every module: the consumption-date grid, market and
preference parameters, and the errors the library raises.

Times are held internally as step indices on the grid; real-valued times only
appear at construction and output boundaries, so the grid never accumulates
floating-point drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "DivergenceError",
    "TimeGrid",
    "make_time_grid",
    "MarketParams",
    "Preferences",
]


class ConfigurationError(ValueError):
    """Invalid parameters, grids, tables or config files."""


class DivergenceError(RuntimeError):
    """A value recursion produced a non-finite or out-of-range quantity."""


@dataclass(frozen=True)
class TimeGrid:
    """Consumption dates t0, t0+dt, ..., T-dt.

    T is the horizon by which death is certain; it is not itself a
    consumption date.  ``n_steps`` is the number of grid points.
    """

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigurationError(f"grid dt must be > 0, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigurationError("grid needs at least one point")

    @property
    def T(self) -> float:
        return self.t0 + self.dt * self.n_steps

    @property
    def points(self) -> np.ndarray:
        """Grid times as floats, for I/O only."""
        return self.t0 + self.dt * np.arange(self.n_steps)

    def __len__(self) -> int:
        return self.n_steps


def make_time_grid(t0: float, dt: float, T: float) -> TimeGrid:
    """Build the grid t0, t0+dt, ..., T-dt.

    (T - t0) must be a positive integer multiple of dt (tolerance 1e-9 on
    the step count, then rounded).
    """
    if dt <= 0.0:
        raise ConfigurationError(f"grid dt must be > 0, got {dt}")
    ratio = (T - t0) / dt
    if not math.isfinite(ratio):
        raise ConfigurationError(f"grid step count (T - t0)/dt = {ratio!r} is not finite")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigurationError(
            f"horizon is not an integer number of steps: (T - t0)/dt = {ratio!r}"
        )
    return TimeGrid(t0=float(t0), dt=float(dt), n_steps=int(n))


@dataclass(frozen=True)
class MarketParams:
    """Black-Scholes market: one risky asset with drift mu and volatility
    sigma, and a riskless rate r.  Rates are per year."""

    mu: float
    r: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ConfigurationError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Preferences:
    """Recursive-preference parameters.

    alpha  monetary risk aversion exponent, in (-inf, 1) excluding 0
    rho    intertemporal substitution exponent, same range
    b      subjective discount rate >= 0; the per-step discount factor is
           beta = exp(-b * dt), applied to exactly one step of
           continuation utility
    """

    alpha: float
    rho: float
    b: float = 0.0

    def __post_init__(self):
        if not (self.alpha < 1.0) or self.alpha == 0.0:
            raise ConfigurationError(f"alpha must be in (-inf,1) \\ {{0}}, got {self.alpha}")
        if not (self.rho < 1.0) or self.rho == 0.0:
            raise ConfigurationError(f"rho must be in (-inf,1) \\ {{0}}, got {self.rho}")
        if self.b < 0.0:
            raise ConfigurationError(f"discount rate b must be >= 0, got {self.b}")

    def beta(self, dt: float) -> float:
        """Per-step discount factor exp(-b * dt), in (0, 1]."""
        return math.exp(-self.b * dt)

