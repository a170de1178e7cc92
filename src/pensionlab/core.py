"""Domain types shared by every module: the consumption-date grid, market and
preference parameters, and the errors the library raises.

Times are held internally as step indices on the grid; real-valued times only
appear at construction and output boundaries, so the grid never accumulates
floating-point drift.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import reprlib
import sys
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


# _real and _integer are the one test of a scalar input, and _real_array of an
# array of numbers; callers add their range.
def _real(value, what: str) -> float:
    """``value`` as a float: a real number that is not a bool, NaN or +-inf."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(value):
                return float(value)
    raise ConfigurationError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    """``value`` as an int: an integral real (3, 3.0 or np.int64(3)) that is not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):  # NaN, +-inf
            if int(value) == value:  # exact: an int of any size never passes through float
                return int(value)
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


def _real_array(value, what: str) -> np.ndarray:
    """``value`` as a new float64 array: a rectangular array of ints or floats,
    with no bool, string or other object in it.  Callers add shape and range."""
    with contextlib.suppress(ValueError):  # a ragged sequence
        array = np.asarray(value)
        if array.dtype.kind in "iuf":
            return np.array(array, dtype=np.float64)
    raise ConfigurationError(f"{what} must be an array of numbers, got {reprlib.repr(value)}")


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
        for field, check in (("t0", _real), ("dt", _real), ("n_steps", _integer)):
            object.__setattr__(self, field, check(getattr(self, field), f"grid {field}"))
        if not self.dt > 0.0:
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


def make_time_grid(t0: float, dt: float, T: float) -> TimeGrid:
    """Build the grid t0, t0+dt, ..., T-dt.

    (T - t0) must be a positive integer multiple of dt (tolerance 1e-9 on
    the step count, then rounded).
    """
    first = TimeGrid(t0, dt, 1)  # checks t0 and dt
    ratio = (_real(T, "grid T") - first.t0) / first.dt
    if not math.isfinite(ratio):
        raise ConfigurationError(f"grid step count (T - t0)/dt = {ratio!r} is not finite")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigurationError(
            f"horizon is not an integer number of steps: (T - t0)/dt = {ratio!r}"
        )
    return TimeGrid(t0=first.t0, dt=first.dt, n_steps=n)


@dataclass(frozen=True)
class MarketParams:
    """Black-Scholes market: one risky asset with drift mu and volatility
    sigma, and a riskless rate r.  Rates are per year."""

    mu: float
    r: float
    sigma: float

    def __post_init__(self):
        for name in ("mu", "r", "sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not self.sigma > 0.0:
            raise ConfigurationError(f"sigma must be finite and > 0, got {self.sigma}")
        if not sys.float_info.min <= self.sigma * self.sigma < math.inf:
            raise ConfigurationError(f"sigma^2 must be a normal float, got sigma = {self.sigma}")


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
        for name, what in (("alpha", "alpha"), ("rho", "rho"), ("b", "discount rate b")):
            object.__setattr__(self, name, _real(getattr(self, name), what))
        if not self.alpha < 1.0 or self.alpha == 0.0:
            raise ConfigurationError(f"alpha must be in (-inf,1) \\ {{0}}, got {self.alpha}")
        if not self.rho < 1.0 or self.rho == 0.0:
            raise ConfigurationError(f"rho must be in (-inf,1) \\ {{0}}, got {self.rho}")
        if not self.b >= 0.0:
            raise ConfigurationError(f"discount rate b must be finite and >= 0, got {self.b}")

    def beta(self, dt: float) -> float:
        """Per-step discount factor exp(-b * dt), in (0, 1]; a normal float,
        as every recursion takes its log."""
        beta = math.exp(-self.b * dt)
        if not beta >= sys.float_info.min:
            raise ConfigurationError(
                f"discount rate b = {self.b} underflows the discount factor exp(-b dt) "
                f"to {beta!r} at dt = {dt}"
            )
        return beta

