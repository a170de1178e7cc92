"""Path simulation of the collectivised fund under a given policy.

Within a period the constant-mix fund value is geometric Brownian motion, so
each period is sampled exactly: multiply by exp((abar - a^2 sigma^2/2) dt +
a sigma sqrt(dt) Z) with abar = a(mu-r) + r; there is no discretisation
error.  Survivors follow one of two models, both stepped by the same loop:
a deterministic fraction prod s_k for the infinite fund, or per-path
binomial survivor counts for a finite fund, the individual's one-member
fund included.  The dead's wealth is redistributed through the budget
identity

    Xbar_t = (n_t / n_{t+dt}) (X_t - gamma_t)        finite fund,
    Xbar_t = (X_t - gamma_t) / s_t                   infinite fund.

The summary (moments of log wealth and the empirical ``QUANTILES`` of
wealth) is computed inside the step loop over the paths still alive
(no gather while every path is), so a run needs O(paths) memory.  Wealth is
sorted once per step and its quantiles are read from that sorted copy,
bitwise equal to np.quantile's; moments use the unsorted values, as
summation order matters.  Full ``paths x n_steps`` series of survivors and
wealth are kept only for the names in ``SimulationConfig.record``; a path's
consumption is c*(N_k, k) X_k of those two.  Summary and series come back in
one flat ``SimulationResult``.

All randomness is drawn from counter-based streams keyed by
(seed, path, step, stream): stream 0 drives market growth, stream 1 the
survivor transition.  Each block of paths hashes its path keys and then
its step hash where it draws, and both streams share that step hash.
Results are therefore bitwise reproducible for a given seed, independent
of evaluation order or thread count.

Each step runs over blocks of ``_BLOCK`` paths in one pass: a block draws
its path keys, step hash, survival uniforms and growth factors, then
redistributes and grows its wealth, so a step holds no path-sized array of
its own.  Once no fund is alive on any path, the remaining steps draw
nothing.  A finite fund stores its survivor counts in the narrowest
unsigned type that holds n0 and draws them from one sampler table per
step, built before the pass for the counts present at the step's start and
for a uniform that the step's largest exceeds with probability
1 - ``_HEADROOM``; a block with a larger uniform rebuilds it.  The summary
takes the logs of one copy of the alive wealth in place, then sorts a
second copy in place.  Per path, a run holds wealth, counts and alive
mask, plus one path-sized temporary in the summary: about 18 B per path
for a finite fund and 16 B for the infinite fund under tracemalloc at
1,000,000 paths.  The results do not depend on the block size.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import math
import numpy as np

from .core import ConfigurationError, DivergenceError, MarketParams, TimeGrid, _integer, _real
from .mortality import MortalityTable
from .solver import Strategy, ValueTable, _policy_growth, extract_strategy
from ._kernels import binomial_draws, binomial_table, lgamma_table
from ._rng import inverse_normal_cdf, path_keys, step_hash, stream_uniforms

__all__ = [
    "QUANTILES",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
]

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)  # probabilities of the summary quantiles
_RECORD_CHOICES = ("survivors", "wealth")
_STREAM_GROWTH = 0
_STREAM_SURVIVAL = 1
_ALL = slice(None)  # the alive selector while no path has died out
_BLOCK = 2**14  # paths per block of the simulation step
_HEADROOM = 63 / 64  # the chance that a step's first survivor table serves all of it


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation run.

    ``policy`` is a ValueTable or a Strategy, and the fund's survivor model
    is its ``mode``.  ``record`` is a sequence of the names of the full
    ``paths x n_steps`` series to keep (none by default), held as a tuple.
    """

    paths: int
    seed: int
    policy: Union[ValueTable, Strategy]
    x0: float = 1.0
    record: Sequence[str] = ()

    def __post_init__(self):
        for field, check in (("paths", _integer), ("seed", _integer), ("x0", _real)):
            object.__setattr__(self, field, check(getattr(self, field), field))
        if self.paths < 1:
            raise ConfigurationError(f"paths must be >= 1, got {self.paths}")
        if not self.x0 > 0.0:
            raise ConfigurationError(f"x0 must be finite and positive, got {self.x0}")
        if not isinstance(self.policy, (ValueTable, Strategy)):
            raise ConfigurationError(
                f"policy must be a ValueTable or a Strategy, got {type(self.policy).__name__}"
            )
        record = self.record
        if not isinstance(record, str):
            with contextlib.suppress(TypeError):  # not iterable
                record = tuple(record)
        if not (isinstance(record, tuple) and all(isinstance(name, str) for name in record)):
            raise ConfigurationError(f"record must be a sequence of names, got {self.record!r}")
        unknown = set(record) - set(_RECORD_CHOICES)
        if unknown:
            raise ConfigurationError(f"unknown record series {sorted(unknown)}")
        object.__setattr__(self, "record", record)


@dataclass(frozen=True)
class SimulationResult:
    """Per-grid-point wealth statistics over paths still alive (n_t > 0),
    then the ``paths x n_steps`` series that ``SimulationConfig.record``
    names (None unless recorded).

    ``x_quantiles`` has one row per entry of ``QUANTILES`` and is NaN where
    no path is alive, as are the log moments.  Quantiles use numpy's linear
    interpolation convention, so the 0.5 quantile of a two-value sample is
    their midpoint; each step's are read from one sorted copy of the alive
    wealth.
    """

    mean_log_x: np.ndarray
    var_log_x: np.ndarray
    alive_paths: np.ndarray
    x_quantiles: np.ndarray
    survivors: Optional[np.ndarray] = None
    wealth: Optional[np.ndarray] = None


class _SurvivorFraction:
    """Infinite fund: the fraction prod s_k survives on every path; ``c`` has one row."""

    alive = _ALL
    draws_survivors = False  # reads no survival uniforms

    def __init__(self, c: np.ndarray):
        self.c = c[0]
        self.survivors = 1.0

    def advance(self, k: int, s_k: float, x: np.ndarray, blocks) -> None:
        self.survivors *= s_k
        c = self.c[k]
        for blk, _, growth in blocks:
            xb = x[blk]
            spare = xb - c * xb
            spare /= s_k
            np.multiply(spare, growth, out=xb)


class _BinomialSurvivors:
    """Finite fund: each path's survivor count is a Binomial(n_t, s_t) draw.

    ``alive`` is ``_ALL`` until the first path dies out, then a boolean
    mask.  The fund starts with n0 members, one per row of the rates ``c``
    (row i-1 for i survivors).  The counts are stored in the narrowest
    unsigned type that holds n0, and ``present`` flags the counts among
    them.  The rates are stored as one contiguous row per step indexed by
    the count itself, with a zero rate for 0 survivors, so a step's rates
    are one gather.
    """

    draws_survivors = True  # reads the survival stream's uniforms

    def __init__(self, c: np.ndarray, paths: int):
        n0 = c.shape[0]
        self.c = np.zeros((c.shape[1], n0 + 1))
        self.c[:, 1:] = c.T
        self.lgam = lgamma_table(n0)
        self.survivors = np.full(paths, n0, dtype=np.min_scalar_type(n0))
        self.present = np.zeros(n0 + 1, dtype=bool)
        self.present[n0] = True
        self.alive = _ALL
        # a step's first table is built for at least this uniform, which the
        # step's largest uniform stays below with probability _HEADROOM
        self.floor = _HEADROOM ** (1.0 / paths)

    def advance(self, k: int, s_k: float, x: np.ndarray, blocks) -> None:
        # one table serves the step: it is built for the counts present at
        # the step's start, which the rows of later blocks still hold, and
        # rebuilt only for a block whose largest uniform it does not reach;
        # a table built for more counts or a larger uniform gives the same
        # draws
        counts = np.flatnonzero(self.present)
        self.present[:] = False
        table, umax = None, self.floor
        c = self.c[k]
        for blk, u, growth in blocks:
            top = u.max()
            if table is None or top > umax:
                umax = max(umax, top)
                table = binomial_table(counts, s_k, umax, self.lgam)
            n_cur = self.survivors[blk]
            xb = x[blk]
            spare = xb - c.take(n_cur) * xb
            n_next = binomial_draws(table, n_cur, u)
            xbar = n_cur / np.maximum(n_next, 1)
            xbar *= spare
            xbar[n_next == 0] = 0.0
            np.multiply(xbar, growth, out=xb)
            n_cur[...] = n_next
            self.present[n_next] = True
        if self.present[0]:
            self.alive = self.survivors > 0


def _blocks(seed: int, paths: int, k: int, base: float, vol: float, survival: bool):
    """(slice, survival uniforms, growth factors) of each ``_BLOCK`` paths at step k.

    Each block forms its path keys and its step hash, and draws its streams
    from that hash: the survival uniforms (None unless ``survival``) and the
    growth factors exp(base + vol z).  A generator, so the model
    redistributes and grows a block's wealth before the next block is drawn,
    and a step holds no path-sized array of its own.  Each path's float operations are those of
    a whole-array update, so the results do not depend on the block size.
    """
    for lo in range(0, paths, _BLOCK):
        hi = min(lo + _BLOCK, paths)
        h = step_hash(path_keys(seed, lo, hi), k)
        u = stream_uniforms(h, _STREAM_SURVIVAL) if survival else None
        growth = inverse_normal_cdf(stream_uniforms(h, _STREAM_GROWTH))
        growth *= vol
        growth += base
        np.exp(growth, out=growth)
        yield slice(lo, hi), u, growth


def _log_moments(values: np.ndarray):
    """Mean and ddof=1 variance of log(values), with a variance of 0 for one value.

    The logs are taken in ``values`` itself, which then holds neither the
    values nor their logs.  The variance is np.var's own steps (the pairwise
    sum of the squared deviations from the mean, over n - 1) done in place
    on the logs, so it is bitwise np.var(logs, ddof=1) with no array of its
    own.
    """
    if values.size == 0:
        return math.nan, math.nan
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, and -inf - -inf NaN
        logs = np.log(values, out=values)
        mean = logs.mean()
        if values.size == 1:
            return float(mean), 0.0
        logs -= mean
        logs *= logs
    return float(mean), float(logs.sum() / (values.size - 1))


def _quantiles(values: np.ndarray, probs) -> np.ndarray:
    """np.quantile(values, probs, method="linear"), read from ``values``
    sorted in place.

    ``values`` is a non-empty float array and ``probs`` holds floats in
    [0, 1].  The steps are numpy's own: the virtual index (n-1)·p, its floor
    and the next index (both -1, the last, once the virtual index reaches
    n-1), the weight t = virtual index - floor, and the two-branch lerp
    a + d·t, or b - d·(1-t) where t >= 0.5; a NaN, which sorts last, makes
    every quantile NaN.  So the result is bitwise np.quantile's, without its
    copy and its second pass (a partition at the neighbour indices).
    """
    values.sort()
    n = values.size
    virtual = (n - 1) * np.asarray(probs, dtype=np.float64)
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= n - 1
    lo[top] = hi[top] = -1
    lo = lo.astype(np.intp)
    hi = hi.astype(np.intp)
    t = virtual - lo
    a, b = values[lo], values[hi]
    d = b - a
    out = a + d * t
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(values[-1]):
        out[:] = values[-1]
    return out


def simulate(
    config: SimulationConfig,
    grid: TimeGrid,
    market: MarketParams,
    mortality: MortalityTable,
) -> SimulationResult:
    """Simulate survivors and fund-per-survivor wealth along the grid.

    Raises DivergenceError when wealth overflows, which a mean log wealth of
    NaN or +inf over the paths alive at a date shows.
    """
    if mortality.grid != grid:
        raise ConfigurationError("mortality table was built on a different grid")
    policy = config.policy
    if isinstance(policy, ValueTable):
        if policy.grid != grid:
            raise ConfigurationError("value table was solved on a different grid")
        policy = extract_strategy(policy)
    n_steps = grid.n_steps
    paths = config.paths
    dt = grid.dt
    # formed before the survivor model, so the policy's dates are checked first
    growth_base = _policy_growth(market, 0.0, policy.a, grid) * dt  # the drift of log wealth
    growth_vol = policy.a * market.sigma * math.sqrt(dt)
    if policy.mode.is_finite:
        model = _BinomialSurvivors(policy.c, paths)
    else:
        model = _SurvivorFraction(policy.c)

    recorded = {name: np.empty((paths, n_steps)) for name in config.record}
    mean_lx = np.empty(n_steps)
    var_lx = np.empty(n_steps)
    xq = np.full((len(QUANTILES), n_steps), np.nan)
    alive_ct = np.empty(n_steps, dtype=np.int64)

    x = np.full(paths, config.x0)
    # wealth that overflows is caught below, as a mean log wealth of NaN or
    # +inf; -inf, from paths that consumed everything, is a result
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            for name, out in recorded.items():
                out[:, k] = x if name == "wealth" else model.survivors
            alive = model.alive
            alive_ct[k] = paths if alive is _ALL else np.count_nonzero(alive)
            # each summary helper overwrites its own copy of the alive wealth
            mean_lx[k], var_lx[k] = _log_moments(x.copy() if alive is _ALL else x[alive])
            if alive_ct[k]:
                if not mean_lx[k] < math.inf:
                    raise DivergenceError(
                        f"simulated wealth overflowed at t={grid.points[k]}: "
                        f"mean log wealth {mean_lx[k]}"
                    )
                xq[:, k] = _quantiles(x.copy() if alive is _ALL else x[alive], QUANTILES)
            if k < n_steps - 1 and alive_ct[k]:  # a fund that died out stays at 0
                blocks = _blocks(config.seed, paths, k, growth_base[k], growth_vol[k],
                                 model.draws_survivors)
                model.advance(k, float(mortality.s[k]), x, blocks)

    return SimulationResult(
        mean_log_x=mean_lx,
        var_log_x=var_lx,
        alive_paths=alive_ct,
        x_quantiles=xq,
        **recorded,  # the series not recorded stay None
    )
