"""Reference solutions for the pooled modes: the individual investor (C = 0)
and the infinite fund (C = 1).

``linear_recursion`` runs the recursion of the ``solver`` docstring in
y = z^(rho/(1-rho)),

    y_t = 1 + phi_t^(rho/(1-rho)) y_{t+dt},     y at the last date = 1,

as a plain loop.  Pooled ``solve`` once ran exactly this loop; it now runs
the log-space driver that every mode shares, and must match it to within
rounding and diverge where it diverges.

``zero_return_outperformance`` is the infinite fund's annuity
outperformance in closed form when mu = r = 0.  Then xi = 0, and with
S_k = prod_{j<k} s_j the survival to date k, q = rho/(1-rho) and
p = rho(1-alpha)/(alpha(1-rho)),

    y_0 = sum_k beta^(k/(1-rho)) S_k^p,       U(1)^rho = sum_k beta^k S_k^(rho/alpha),

and the annuity factor at r = 0 is sum_k S_k, so

    1 + o = y_0^(1/q) sum_k S_k / U(1).

Both are kept here only to check ``solve`` and ``annuity_outperformance``.
"""

import math

import numpy as np

from pensionlab.core import DivergenceError
from pensionlab.solver import continuation_factor


def linear_recursion(pooling, market, prefs, mortality):
    """(z, y, c*) of the individual (``pooling`` 0) or infinite (1) fund.

    Raises DivergenceError naming the first date, going backward, at which y
    overflows, or else the first date at which z or c* is out of range.
    """
    grid = mortality.grid
    q = prefs.rho / (1.0 - prefs.rho)
    y = np.ones(grid.n_steps)
    with np.errstate(over="ignore"):
        for k in range(grid.n_steps - 2, -1, -1):
            phi = continuation_factor(prefs, market, float(mortality.s[k]), pooling, grid.dt)
            y[k] = 1.0 + phi**q * y[k + 1]
            if not math.isfinite(y[k]):
                raise DivergenceError(f"value recursion diverged at t={grid.points[k]}")
        z = y ** (1.0 / q)
    cstar = 1.0 / y
    bad = ~(np.isfinite(z) & (z > 0.0) & (cstar > 0.0) & (cstar <= 1.0))
    if np.any(bad):
        raise DivergenceError(f"value recursion diverged at t={grid.points[np.argmax(bad)]}")
    return z, y, cstar


def zero_return_outperformance(prefs, mortality):
    """Annuity outperformance o of the infinite fund at mu = r = 0."""
    alpha, rho = prefs.alpha, prefs.rho
    beta = prefs.beta(mortality.grid.dt)
    survival = np.concatenate(([1.0], np.cumprod(mortality.s[:-1])))
    k = np.arange(survival.size)
    q = rho / (1.0 - rho)
    p = rho * (1.0 - alpha) / (alpha * (1.0 - rho))
    fund = np.sum(beta ** (k / (1.0 - rho)) * survival**p) ** (1.0 / q)
    annuity = np.sum(beta**k * survival ** (rho / alpha)) ** (1.0 / rho)
    return float(fund * np.sum(survival) / annuity - 1.0)
