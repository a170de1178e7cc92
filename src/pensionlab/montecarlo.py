"""Path simulation of the collectivised fund under a given policy.

Within a period the constant-mix fund value is geometric Brownian motion, so
each period is sampled exactly: multiply by exp((abar - a^2 sigma^2/2) dt +
a sigma sqrt(dt) Z) with abar = a(mu-r) + r; there is no discretisation
error.  Survivors follow one of two models, both stepped by the same loop:
a deterministic fraction prod s_k for the infinite fund, or per-path
binomial survivor counts for a finite fund (the individual problem is a
one-member fund).  The dead's wealth is redistributed through the budget
identity

    Xbar_t = (n_t / n_{t+dt}) (X_t - gamma_t)        finite fund,
    Xbar_t = (X_t - gamma_t) / s_t                   infinite fund.

The summary (moments of log wealth and log consumption, empirical
quantiles of wealth and consumption, survivor means) is computed inside the
step loop over the paths still alive (no gather while every path is), so a
run needs O(paths) memory.  Quantiles are taken on a sorted copy, which
gives np.quantile's result at less cost; moments use the unsorted values,
as summation order matters.  Full ``paths x n_steps`` series are kept only
for the names in ``SimulationConfig.record``.

All randomness is drawn from counter-based streams keyed by
(seed, path, step, stream): stream 0 drives market growth, stream 1 the
survivor transition.  The per-path keys are hashed once per run and each
step's hash once, shared by both streams.  Results are therefore bitwise
reproducible for a given seed, independent of evaluation order or thread
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import math
import numpy as np

from .core import ConfigurationError, MarketParams, TimeGrid
from .mortality import MortalityTable
from .solver import CollectiveMode, Strategy, ValueTable
from ._kernels import binomial_inverse, lgamma_table
from ._rng import inverse_normal_cdf, path_keys, step_hash, stream_uniforms

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "SummaryStats",
    "simulate",
]

_RECORD_CHOICES = ("survivors", "wealth", "consumption")
_STREAM_GROWTH = 0
_STREAM_SURVIVAL = 1
_ALL = slice(None)  # the alive selector while no path has died out


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation run.

    ``record`` names the full ``paths x n_steps`` series to keep (none by
    default); ``quantiles`` are the probabilities of the per-step wealth and
    consumption quantiles in the summary.
    """

    paths: int
    seed: int
    mode: CollectiveMode
    policy: Union[ValueTable, Strategy]
    x0: float = 1.0
    record: Sequence[str] = ()
    quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95)

    def __post_init__(self):
        if self.paths < 1:
            raise ConfigurationError(f"paths must be >= 1, got {self.paths}")
        if not self.x0 > 0.0:
            raise ConfigurationError(f"x0 must be positive, got {self.x0}")
        unknown = set(self.record) - set(_RECORD_CHOICES)
        if unknown:
            raise ConfigurationError(f"unknown record series {sorted(unknown)}")
        probs = np.asarray(list(self.quantiles), dtype=np.float64)
        if probs.size == 0:
            raise ConfigurationError("need at least one probability")
        if np.any((probs <= 0.0) | (probs >= 1.0)):
            raise ConfigurationError("probabilities must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class SummaryStats:
    """Per-grid-point statistics over paths still alive (n_t > 0).

    ``x_quantiles`` and ``gamma_quantiles`` have one row per entry of
    ``probs`` and are NaN where no path is alive.  Quantiles use numpy's
    linear interpolation convention, so the 0.5 quantile of a two-value
    sample is their midpoint.
    """

    mean_log_x: np.ndarray
    var_log_x: np.ndarray
    mean_log_gamma: np.ndarray
    var_log_gamma: np.ndarray
    mean_survivors: np.ndarray
    alive_paths: np.ndarray
    probs: np.ndarray
    x_quantiles: np.ndarray
    gamma_quantiles: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    grid: TimeGrid
    mode: CollectiveMode
    x0: float
    summary: SummaryStats
    survivors: Optional[np.ndarray] = None
    wealth: Optional[np.ndarray] = None
    consumption: Optional[np.ndarray] = None


def _policy_arrays(config: SimulationConfig, grid: TimeGrid):
    """(a per step, c lookup) from a ValueTable or explicit Strategy."""
    n_steps = grid.n_steps
    pol = config.policy
    if isinstance(pol, ValueTable):
        if pol.mode != config.mode:
            raise ConfigurationError(
                f"value table solved for mode {pol.mode}, simulation asked for {config.mode}"
            )
        if pol.grid != grid:
            raise ConfigurationError("value table was solved on a different grid")
        a = np.full(n_steps, pol.astar)
        c = np.array(pol.cstar, copy=True)
    else:
        a = np.asarray(pol.a, dtype=np.float64)
        c = np.asarray(pol.c, dtype=np.float64)
    if a.shape != (n_steps,):
        raise ConfigurationError(f"policy a must have shape ({n_steps},), got {a.shape}")
    expected = (config.mode.n, n_steps) if config.mode.is_finite else (n_steps,)
    if c.shape != expected:
        raise ConfigurationError(f"policy c must have shape {expected}, got {c.shape}")
    if np.any((c < 0.0) | (c > 1.0)):
        raise ConfigurationError("consumption rates must lie in [0, 1]")
    return a, c


class _SurvivorFraction:
    """Infinite fund: the fraction prod s_k survives on every path."""

    alive = _ALL

    def __init__(self, c: np.ndarray):
        self.c = c
        self.survivors = 1.0

    def rate(self, k: int):
        return self.c[k]

    def redistribute(self, k: int, s_k: float, spare: np.ndarray, h: np.ndarray) -> np.ndarray:
        self.survivors *= s_k
        return spare / s_k


class _BinomialSurvivors:
    """Finite fund: each path's survivor count is a Binomial(n_t, s_t) draw.

    ``alive`` is ``_ALL`` until the first path dies out, then a boolean
    mask.  ``redistribute`` finishes the survival stream from the step hash
    ``h`` the growth stream shares.
    """

    def __init__(self, c: np.ndarray, n0: int, paths: int):
        self.c = c
        self.lgam = lgamma_table(n0)
        self.survivors = np.full(paths, n0, dtype=np.int64)
        self.alive = _ALL

    def rate(self, k: int) -> np.ndarray:
        rates = self.c[np.maximum(self.survivors, 1) - 1, k]
        if self.alive is not _ALL:
            rates[~self.alive] = 0.0
        return rates

    def redistribute(self, k: int, s_k: float, spare: np.ndarray, h: np.ndarray) -> np.ndarray:
        n_cur = self.survivors
        u = stream_uniforms(h, _STREAM_SURVIVAL)
        n_next = binomial_inverse(n_cur, s_k, u, self.lgam)
        self.survivors = n_next
        xbar = n_cur / np.maximum(n_next, 1)
        xbar *= spare
        dead = n_next == 0
        if dead.any():
            self.alive = ~dead
            xbar[dead] = 0.0
        return xbar


def _log_moments(values: np.ndarray):
    """Mean and ddof=1 variance of log(values)."""
    if values.size == 0:
        return math.nan, math.nan
    with np.errstate(divide="ignore"):
        logs = np.log(values)
    mean = float(logs.mean())
    var = float(logs.var(ddof=1)) if values.size > 1 else 0.0
    return mean, var


def _quantiles(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile (linear) taken on a sorted copy.

    Sorting gives the same order statistics, and so the same result, as the
    partition np.quantile runs on unsorted data, and at 100k values costs
    less than a partition over several kth values.
    """
    return np.quantile(np.sort(values), probs, method="linear")


def simulate(
    config: SimulationConfig,
    grid: TimeGrid,
    market: MarketParams,
    mortality: MortalityTable,
) -> SimulationResult:
    """Simulate fund-per-survivor wealth and consumption along the grid."""
    if mortality.grid != grid:
        raise ConfigurationError("mortality table was built on a different grid")
    a_arr, c_arr = _policy_arrays(config, grid)
    n_steps = grid.n_steps
    paths = config.paths
    dt = grid.dt
    seed = config.seed
    mode = config.mode
    if mode.kind == "infinite":
        model = _SurvivorFraction(c_arr)
    elif mode.is_finite:
        model = _BinomialSurvivors(c_arr, mode.n, paths)
    else:  # the individual problem is a one-member fund
        model = _BinomialSurvivors(c_arr[None, :], 1, paths)

    recorded = {name: np.empty((paths, n_steps)) for name in config.record}
    probs = np.asarray(list(config.quantiles), dtype=np.float64)
    mean_lx = np.empty(n_steps)
    var_lx = np.empty(n_steps)
    mean_lg = np.empty(n_steps)
    var_lg = np.empty(n_steps)
    mean_n = np.empty(n_steps)
    alive_ct = np.empty(n_steps, dtype=np.int64)
    xq = np.full((probs.size, n_steps), np.nan)
    gq = np.full((probs.size, n_steps), np.nan)

    growth_base = (a_arr * (market.mu - market.r) + market.r - 0.5 * a_arr**2 * market.sigma**2) * dt
    growth_vol = a_arr * market.sigma * math.sqrt(dt)

    keys = path_keys(seed, paths)
    x = np.full(paths, config.x0)
    for k in range(n_steps):
        gamma = model.rate(k) * x
        series = {"survivors": model.survivors, "wealth": x, "consumption": gamma}
        for name, out in recorded.items():
            out[:, k] = series[name]
        x_alive = x[model.alive]
        gamma_alive = gamma[model.alive]
        mean_lx[k], var_lx[k] = _log_moments(x_alive)
        mean_lg[k], var_lg[k] = _log_moments(gamma_alive)
        if x_alive.size:
            xq[:, k] = _quantiles(x_alive, probs)
            gq[:, k] = _quantiles(gamma_alive, probs)
        mean_n[k] = np.mean(model.survivors)
        alive_ct[k] = x_alive.size
        # free the gathered copies (and the counts series refers to) before the update
        del x_alive, gamma_alive, series
        if k < n_steps - 1:
            h = step_hash(keys, k)
            x -= gamma  # x is this step's own array: reuse it for the spare wealth
            x = model.redistribute(k, float(mortality.s[k]), x, h)
            z = inverse_normal_cdf(stream_uniforms(h, _STREAM_GROWTH))
            z *= growth_vol[k]
            z += growth_base[k]
            x *= np.exp(z, out=z)

    summary = SummaryStats(
        mean_log_x=mean_lx,
        var_log_x=var_lx,
        mean_log_gamma=mean_lg,
        var_log_gamma=var_lg,
        mean_survivors=mean_n,
        alive_paths=alive_ct,
        probs=probs,
        x_quantiles=xq,
        gamma_quantiles=gq,
    )
    return SimulationResult(
        grid=grid,
        mode=mode,
        x0=config.x0,
        summary=summary,
        survivors=recorded.get("survivors"),
        wealth=recorded.get("wealth"),
        consumption=recorded.get("consumption"),
    )
