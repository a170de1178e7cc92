"""Reference solutions for the pooled modes: the individual investor (C = 0)
and the infinite fund (C = 1).

``linear_recursion`` runs the recursion of the ``solver`` docstring in
y = z^(rho/(1-rho)),

    y_t = 1 + phi_t^(rho/(1-rho)) y_{t+dt},     y at the last date = 1,

as a plain loop.  Pooled ``solve`` once ran exactly this loop; it now sums
the recursion in closed form in log space, and must match the loop to
within rounding and diverge where it diverges.  ``decimal_start_value``
runs the same loop in 40-digit decimal arithmetic, a reference for the
last bits of z_0.

``zero_return_outperformance`` is the infinite fund's annuity
outperformance in closed form when mu = r = 0.  Then xi = 0, and with
S_k = prod_{j<k} s_j the survival to date k, q = rho/(1-rho) and
p = rho(1-alpha)/(alpha(1-rho)),

    y_0 = sum_k beta^(k/(1-rho)) S_k^p,       U(1)^rho = sum_k beta^k S_k^(rho/alpha),

and the annuity factor at r = 0 is sum_k S_k, so

    1 + o = y_0^(1/q) sum_k S_k / U(1).

``annuity_loop`` and ``wealth_mean_loop`` are the linear loops that
``annuity_utility`` and ``wealth_schedule`` once ran; the first is now
summed in closed form and the second uses the solver's log phi, and both
must match these loops to within rounding wherever the loops stay finite.

``continuous_consumption_rate`` is the limit of c*_0 / dt as dt -> 0 for
a Gompertz-Makeham hazard h(u) = a + b exp(c u), written from the model
alone.  Let H(t0, u) = a (u - t0) + (b / c)(exp(c u) - exp(c t0)) be the
cumulative hazard, kappa = xi - b_disc / rho the growth of log phi per unit
time (b_disc being the discount rate) and C the pooling indicator.  Then
y_0 dt is a left Riemann sum of the integral

    1/c(t0) = int_t0^T exp(q kappa (u - t0) - q (1/alpha - C) H(t0, u)) du,

so c*_0 / dt = 1 / (y_0 dt) tends to c(t0).  The oracle evaluates the
integral by the trapezoid rule over 2,000,001 points.

All of these are kept here only to check ``solve``, ``annuity_utility``,
``annuity_outperformance`` and ``wealth_schedule``; ``linear_phi`` is the
oracles' own continuation factor, so none of them calls code under test.

Two more read a solved table and nothing else.  ``first_order_coefficient``
is the 1/n term of z_n, z_n = z_inf + c_0 / n + O(n^-2), from the infinite
fund's table: the delta method applied to the binomial mixture
E[(I/m)^(1-alpha) z'_I^alpha] of a fund of m gives, with c = 0 at the last
date, the linear backward pass

    c_k = z_k (1 - c*_k) [c_{k+1} / (s_k z_{k+1}) - (1 - alpha)(1 - s_k) / (2 s_k)]

in O(n_steps).  ``finite_consumption_drift`` is the expected one-step change
of log consumption per survivor in a fund of n at mu = r = 0, where a* = 0
and wealth does not grow.  A member alive at date k with m survivors stays
alive, and each of the other m - 1 survives with s_k, so the count after
the step is N' = 1 + Bin(m - 1, s_k) and

    d_{m,k} = E[log c*(N', k+1)] - log c*(m, k) + log(1 - c*(m, k))
              + log m - E[log N'],

the binomial pmf taken from ``math.lgamma``.  At m = 1 it is the
individual's ``consumption_drift``.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np

from pensionlab.core import DivergenceError


def linear_phi(prefs, market, s, pooling, dt):
    """The continuation factor beta^(1/rho) exp(xi dt) s^(1/alpha - C) with
    C = ``pooling``, at the optimal proportion's growth rate xi."""
    alpha = prefs.alpha
    a = (market.mu - market.r) / ((1.0 - alpha) * market.sigma**2)
    xi = a * (market.mu - market.r) + market.r - 0.5 * a * a * (1.0 - alpha) * market.sigma**2
    phi = prefs.beta(dt) ** (1.0 / prefs.rho) * math.exp(xi * dt) * s ** (1.0 / alpha)
    if pooling:
        phi /= s
    return phi


def linear_recursion(pooling, market, prefs, mortality):
    """(z, y, c*) of the individual (``pooling`` 0) or infinite (1) fund.

    Raises DivergenceError naming the first date, going backward, at which y
    overflows, or else the first date at which z or c* is out of range; a
    subnormal z is out of range.  The individual's message names its one
    survivor, as that of every finite fund does.
    """
    count = "" if pooling else "for survivor count 1 "
    grid = mortality.grid
    q = prefs.rho / (1.0 - prefs.rho)
    y = np.ones(grid.n_steps)
    with np.errstate(over="ignore"):
        for k in range(grid.n_steps - 2, -1, -1):
            phi = linear_phi(prefs, market, float(mortality.s[k]), pooling, grid.dt)
            y[k] = 1.0 + phi**q * y[k + 1]
            if not math.isfinite(y[k]):
                raise DivergenceError(f"value recursion diverged {count}at t={grid.points[k]}")
        z = y ** (1.0 / q)
    cstar = 1.0 / y
    bad = ~(np.isfinite(z) & (z >= np.finfo(float).tiny) & (cstar > 0.0) & (cstar <= 1.0))
    if np.any(bad):
        raise DivergenceError(
            f"value recursion diverged {count}at t={grid.points[np.argmax(bad)]}"
        )
    return z, y, cstar


def decimal_start_value(pooling, market, prefs, mortality):
    """z_0 of ``linear_recursion`` in 40-digit decimal arithmetic, from the
    float parameters and survival probabilities taken as exact."""
    with localcontext() as ctx:
        ctx.prec = 40
        mu, r, sigma, alpha, rho = (
            Decimal(x) for x in (market.mu, market.r, market.sigma, prefs.alpha, prefs.rho)
        )
        dt = Decimal(mortality.grid.dt)
        a = (mu - r) / ((1 - alpha) * sigma**2)
        xi = a * (mu - r) + r - a * a * (1 - alpha) * sigma**2 / 2
        q = rho / (1 - rho)
        y = Decimal(1)
        for k in range(mortality.grid.n_steps - 2, -1, -1):
            log_s = Decimal(float(mortality.s[k])).ln()
            log_phi = -Decimal(prefs.b) * dt / rho + xi * dt + (1 / alpha - pooling) * log_s
            y = 1 + (q * log_phi).exp() * y
        return (y.ln() / q).exp()


def annuity_loop(mortality, prefs):
    """Utility of a unit income per date by the linear recursion

        U_t = [1 + beta s_t^(rho/alpha) U_{t+dt}^rho]^(1/rho),

    U = 1 at the final date.  Once U^rho overflows the loop returns 0
    (rho < 0) or inf (rho > 0) in place of raising; callers compare only
    where it is positive and finite.
    """
    beta = prefs.beta(mortality.grid.dt)
    rho, alpha = prefs.rho, prefs.alpha
    u = np.float64(1.0)
    with np.errstate(over="ignore", divide="ignore"):
        for k in range(mortality.grid.n_steps - 2, -1, -1):
            u = (1.0 + beta * mortality.s[k] ** (rho / alpha) * u**rho) ** (1.0 / rho)
    return float(u)


def wealth_mean_loop(table, x0):
    """Mean of log per-survivor wealth along the optimal strategy of a pooled
    ``table``, stepped date by date:

        mu_{k+1} = mu_k - C log s_k + log(1 - c*_k) + xi_drift dt,

    with log(1 - c*_k) = q log phi_k + log y_{k+1} - log y_k.  NaN from the
    first date at which phi is not a normal float: 0 or inf, or subnormal,
    whose log has lost significant bits.
    """
    mortality, market, prefs = table.mortality, table.market, table.prefs
    grid = mortality.grid
    pool = table.mode.pooling
    y = 1.0 / table.cstar[0]
    q = prefs.rho / (1.0 - prefs.rho)
    a = table.astar
    xi_drift = a * (market.mu - market.r) + market.r - 0.5 * a * a * market.sigma**2
    mu_x = np.empty(grid.n_steps)
    mu_x[0] = math.log(x0)
    for k in range(grid.n_steps - 1):
        try:
            phi = linear_phi(prefs, market, float(mortality.s[k]), pool, grid.dt)
        except OverflowError:
            phi = math.inf
        if not sys.float_info.min <= phi < math.inf:
            mu_x[k + 1:] = np.nan
            break
        log_remaining = q * math.log(phi) + math.log(y[k + 1]) - math.log(y[k])
        mu_x[k + 1] = mu_x[k] - pool * math.log(mortality.s[k]) + log_remaining + xi_drift * grid.dt
    return mu_x


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


def continuous_consumption_rate(gompertz, market, prefs, pooling, t0, T, points=2_000_001):
    """c(t0), the consumption rate per unit time at t0 of the individual
    (``pooling`` 0) or infinite (1) fund in continuous time, for the hazard
    a + b exp(c u) of ``gompertz`` = (a, b, c), c > 0, with death certain at T."""
    a, b, c = gompertz
    alpha, rho = prefs.alpha, prefs.rho
    astar = (market.mu - market.r) / ((1.0 - alpha) * market.sigma**2)
    xi = astar * (market.mu - market.r) + market.r - 0.5 * astar**2 * (1.0 - alpha) * market.sigma**2
    q = rho / (1.0 - rho)
    u = np.linspace(t0, T, points)
    hazard = a * (u - t0) + (b / c) * (np.exp(c * u) - math.exp(c * t0))
    f = np.exp(q * (xi - prefs.b / rho) * (u - t0) - q * (1.0 / alpha - pooling) * hazard)
    return 1.0 / float(np.sum((f[1:] + f[:-1]) * np.diff(u)) / 2.0)


def first_order_coefficient(table):
    """c_k, the coefficient of 1/n in z_n - z_inf at each date, from the
    infinite fund's ``table`` (c = 0 at the last date)."""
    z, cstar = table.z[0], table.cstar[0]
    s, alpha = table.mortality.s, table.prefs.alpha
    c = np.zeros(z.size)
    for k in range(z.size - 2, -1, -1):
        mixture = c[k + 1] / (s[k] * z[k + 1]) - (1.0 - alpha) * (1.0 - s[k]) / (2.0 * s[k])
        c[k] = z[k] * (1.0 - cstar[k]) * mixture
    return c


def finite_consumption_drift(table, m, k):
    """d_{m,k} of a fund's ``table`` solved at mu = r = 0, for m survivors
    at date k < n_steps - 1."""
    s = float(table.mortality.s[k])
    j = np.arange(m)  # the other members who survive the step
    log_pmf = [
        math.lgamma(m) - math.lgamma(i + 1.0) - math.lgamma(m - i)
        + i * math.log(s) + (m - 1 - i) * math.log1p(-s)
        for i in range(m)
    ]
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    c = table.cstar[m - 1, k]
    return float(
        pmf @ (np.log(table.cstar[j, k + 1]) - np.log1p(j))
        - math.log(c) + math.log1p(-c) + math.log(m)
    )
