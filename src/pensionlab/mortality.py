"""Mortality distributions on the consumption grid.

A table holds the death-time pmf p_t (mass that death occurs at grid point t,
with the convention that someone dying at t still consumes at t) and the
derived one-step survival probabilities

    s_t = P(tau >= t + dt) / P(tau >= t),

computed as a ratio of tail sums.  Death is certain by the horizon T, so the
final grid point always carries positive mass and is the only point with
s_t = 0.

``MortalityTable(grid, p)`` builds a table from any pmf, and it is the one
way in: it checks the pmf where it is built (numbers only, one per grid
point, no negative mass, a sum of 1 within 1e-12, mass at the final point)
and derives s and the tail sums there.  ``gompertz_makeham`` and
``load_mortality_csv`` build their tables through it.
"""

from __future__ import annotations

import csv
import math
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .core import ConfigurationError, DivergenceError, TimeGrid, _real, _real_array

__all__ = [
    "IngestionError",
    "MortalityTable",
    "load_mortality_csv",
    "gompertz_makeham",
    "annuity_factor",
]


class IngestionError(ConfigurationError):
    """Malformed or insufficient mortality input data."""


@dataclass(frozen=True)
class MortalityTable:
    """Death-time pmf ``p`` on ``grid`` and its survival probabilities.

    ``MortalityTable(grid, p)`` checks ``p`` against the grid and derives
    ``tail[k] = P(tau >= t_k)`` and ``s[k]``, the one-step survival
    probability, zero exactly at the final point.  All three are read-only
    float64 copies; ``dataclasses.replace(table, p=p2)`` builds and checks a
    new table.
    """

    grid: TimeGrid
    p: np.ndarray
    s: np.ndarray = field(init=False)
    tail: np.ndarray = field(init=False)

    def __post_init__(self):
        grid = self.grid
        if not isinstance(grid, TimeGrid):
            raise ConfigurationError(f"mortality grid must be a TimeGrid, got {grid!r}")
        p = _real_array(self.p, "pmf")
        if p.shape != (grid.n_steps,):
            raise ConfigurationError(
                f"pmf length {p.shape} does not match grid with {grid.n_steps} points"
            )
        if np.any(p < 0.0):
            k = int(np.argmax(p < 0.0))
            raise ConfigurationError(f"pmf has negative mass {p[k]} at grid index {k}")
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-12:  # NaN fails
            raise ConfigurationError(f"pmf must sum to 1 within 1e-12, got {total!r}")
        if not p[-1] > 0.0:
            raise ConfigurationError(
                "no mass at the final grid point: death would be certain before T, "
                "shorten the horizon"
            )
        tail = np.cumsum(p[::-1])[::-1]
        s = np.zeros_like(p)
        s[:-1] = tail[1:] / tail[:-1]
        for name, arr in (("p", p), ("s", s), ("tail", tail)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def annuity_factor(table: MortalityTable, r: float) -> float:
    """Actuarial price of 1 per grid date paid while alive.

    Payments start at t0 (weight 1) and are made in the period of death,
    matching the consumption convention: sum over the grid of
    exp(-r (t - t0)) P(tau >= t).

    Raises DivergenceError when the price is not finite, as a large
    negative r makes it.
    """
    r = _real(r, "r")
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        disc = np.exp(-r * table.grid.dt * np.arange(table.grid.n_steps))
    price = float(np.dot(disc, table.tail))
    if not math.isfinite(price):
        raise DivergenceError(f"annuity price {price} is not finite at r = {r}")
    return price


def gompertz_makeham(a: float, b: float, c: float, grid: TimeGrid) -> MortalityTable:
    """Synthetic table from the hazard h(t) = a + b exp(c t), t in grid time.

    The pmf discretizes the hazard over each step; residual mass is placed at
    the final grid point so death is certain by T.
    """
    a, b, c = (_real(v, f"Gompertz-Makeham {name}") for v, name in zip((a, b, c), "abc"))
    if min(a, b, c) < 0.0:
        raise ConfigurationError(
            f"Gompertz-Makeham parameters must be finite and non-negative, got {(a, b, c)}"
        )
    t = grid.points
    dt = grid.dt
    # an integral that overflows to inf (or inf - inf = nan) before the final
    # step leaves zero or nan survival, which the underflow check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if c > 0.0:
            integral = a * dt + (b / c) * (np.exp(c * (t + dt)) - np.exp(c * t))
        else:
            integral = (a + b) * dt * np.ones_like(t)
    return _table_from_step_survival(
        grid, np.exp(-integral)[:-1],
        "hazard so large that survival underflows to zero before the final "
        "grid point; reduce the horizon or the parameters",
    )


def load_mortality_csv(
    source: Union[str, Path, io.TextIOBase],
    grid: TimeGrid,
    age_at_t0: float | None = None,
) -> MortalityTable:
    """Build a table from an annual `age,qx` CSV resampled to the grid.

    qx is the probability of death within [age, age+1) given alive at age.
    Survival over a grid step is the geometric interpolation
    prod_a (1-qx_a)^overlap, which preserves annual survival exactly at
    integer boundaries.  ``age_at_t0`` maps grid time to age (defaults to
    t0, i.e. the grid is already in age coordinates).
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return load_mortality_csv(fh, grid, age_at_t0)
        except (OSError, UnicodeDecodeError) as exc:
            raise IngestionError(f"cannot read mortality CSV {source}: {exc}") from None

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError("empty mortality CSV") from None
    if [h.strip() for h in header] != ["age", "qx"]:
        raise IngestionError(f"expected header 'age,qx', got {header!r}")

    qx: dict[int, float] = {}
    prev_age = None
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise IngestionError(f"row {lineno}: expected 2 fields, got {len(row)}")
        try:
            age = int(row[0])
            q = float(row[1])
        except ValueError as exc:
            raise IngestionError(f"row {lineno}: {exc}") from None
        if not 0.0 <= q <= 1.0:
            raise IngestionError(f"row {lineno}: qx={q} outside [0, 1]")
        if prev_age is not None and age <= prev_age:
            raise IngestionError(f"row {lineno}: ages not strictly increasing at {age}")
        prev_age = age
        qx[age] = q

    if not qx:
        raise IngestionError("mortality CSV has no data rows")

    try:
        base_age = grid.t0 if age_at_t0 is None else _real(age_at_t0, "age_at_t0")
    except ConfigurationError as exc:
        raise IngestionError(str(exc)) from None
    dt = grid.dt
    first, last = next(iter(qx)), prev_age
    log_step = np.zeros(grid.n_steps - 1)
    for k in range(grid.n_steps - 1):
        lo = base_age + k * dt
        hi = lo + dt
        # the loop below visits only ages in [first - 1, last + 1]; past 2^53
        # a unit age step leaves a float unchanged and it would never end
        if not (first - 1 <= lo and hi - 1e-12 <= last + 2):
            gap = f"below {first}" if lo < first - 1 else f"above {last}"
            raise IngestionError(
                f"mortality CSV does not cover the ages {gap} needed for the grid "
                f"step from age {lo} to {hi}"
            )
        acc = 0.0
        a = math.floor(lo)
        while a < hi - 1e-12:
            overlap = min(hi, a + 1.0) - max(lo, float(a))
            if overlap > 1e-12:
                if a not in qx:
                    raise IngestionError(
                        f"mortality CSV does not cover age {a} needed for "
                        f"grid point {lo}"
                    )
                acc += overlap * math.log1p(-qx[a]) if qx[a] < 1.0 else -math.inf
            a += 1
        log_step[k] = acc

    return _table_from_step_survival(
        grid, np.exp(log_step),
        "qx values force certain death before the final grid point; shorten the horizon",
    )


def _table_from_step_survival(
    grid: TimeGrid, step_surv: np.ndarray, underflow: str
) -> MortalityTable:
    """Table whose survival over step k is ``step_surv[k]`` (k < n_steps - 1),
    with all mass left at the final point placed there.  ``underflow`` is the
    error text when survival to the final point is zero."""
    cum = np.ones(grid.n_steps)
    np.cumprod(step_surv, out=cum[1:])
    if not cum[-1] > 0.0:
        raise ConfigurationError(underflow)
    p = np.empty(grid.n_steps)
    p[:-1] = cum[:-1] * (1.0 - step_surv)
    p[-1] = cum[-1]
    return MortalityTable(grid, p)
