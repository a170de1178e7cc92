"""The paper's objective by Monte Carlo, where Epstein-Zin utility is
time-additive.

With alpha = rho, per unit initial wealth the value z of a fund's optimal
strategy satisfies

    z^rho = E[sum_k beta^k (N_k / n) gamma_k^rho],

with gamma_k the consumption per survivor at date k and N_k / n the chance
that a given member is alive then: the recorded survivor fraction of the
infinite fund, or a fund of n's survivor count over n.  A date at which
no member is alive adds 0, so it is masked before the power (gamma_k = 0
there).  ``simulate`` gives every term, and it shares no numeric code with
``solve``, which gives z.
"""

import math

import numpy as np

from pensionlab.montecarlo import SimulationConfig, simulate


def path_objectives(table, paths, seed):
    """sum_k beta^k (N_k / n) gamma_k^rho per path of ``table``'s optimal
    strategy, from initial wealth 1; ``table`` is solved at alpha = rho."""
    prefs, mortality = table.prefs, table.mortality
    assert prefs.alpha == prefs.rho, "the objective is time-additive only at alpha = rho"
    grid = mortality.grid
    config = SimulationConfig(paths, seed, table, record=("survivors", "consumption"))
    sim = simulate(config, grid, table.market, mortality)
    alive = sim.survivors / (table.mode.n or 1)
    live = alive > 0.0
    terms = np.zeros_like(alive)
    terms[live] = alive[live] * sim.consumption[live] ** prefs.rho
    return terms @ (prefs.beta(grid.dt) ** np.arange(grid.n_steps))


def z_score(samples, exact):
    """(mean - exact) / standard error of the mean, over i.i.d. ``samples``."""
    return (samples.mean() - exact) / (samples.std(ddof=1) / math.sqrt(samples.size))
