"""The paper's objective by Monte Carlo, where Epstein-Zin utility is
time-additive.

With alpha = rho, per unit initial wealth the value z of a fund's optimal
strategy satisfies

    z^rho = E[sum_k beta^k (N_k / n) gamma_k^rho],

with gamma_k the consumption per survivor at date k and N_k / n the chance
that a given member is alive then: the recorded survivor fraction of the
infinite fund, or a fund of n's survivor count over n.  A date at which
no member is alive adds 0, so it is masked before the power (gamma_k = 0
there).  ``simulate`` gives every term through its recorded survivors and
wealth, whose product with the policy's rates is its own consumption, and it
shares no numeric code with ``solve``, which gives z.
"""

import math

import numpy as np

from pensionlab.montecarlo import SimulationConfig, simulate


def consumption(mode, c, sim):
    """gamma_k = c*(N_k, k) X_k per path and date, from the rates ``c`` of a
    policy in ``mode`` (row i-1 for i survivors, or the infinite fund's one
    row) and the survivors N and wealth X that ``sim`` recorded.

    A path whose fund has died out consumes 0.  This is the product
    ``simulate`` forms, so every term is bitwise its own.
    """
    if not mode.is_finite:
        return c[0] * sim.wealth
    n = sim.survivors.astype(np.intp)  # recorded as float
    return np.where(n > 0, c[n - 1, np.arange(c.shape[1])], 0.0) * sim.wealth


def path_objectives(table, paths, seed):
    """sum_k beta^k (N_k / n) gamma_k^rho per path of ``table``'s optimal
    strategy, from initial wealth 1; ``table`` is solved at alpha = rho."""
    prefs, mortality = table.prefs, table.mortality
    assert prefs.alpha == prefs.rho, "the objective is time-additive only at alpha = rho"
    grid = mortality.grid
    config = SimulationConfig(paths, seed, table, record=("survivors", "wealth"))
    sim = simulate(config, grid, table.market, mortality)
    gamma = consumption(table.mode, table.cstar, sim)
    alive = sim.survivors / (table.mode.n or 1)
    live = alive > 0.0
    terms = np.zeros_like(alive)
    terms[live] = alive[live] * gamma[live] ** prefs.rho
    return terms @ (prefs.beta(grid.dt) ** np.arange(grid.n_steps))


def z_score(samples, exact):
    """(mean - exact) / standard error of the mean, over i.i.d. ``samples``."""
    return (samples.mean() - exact) / (samples.std(ddof=1) / math.sqrt(samples.size))
