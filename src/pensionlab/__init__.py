"""Optimal investment-consumption strategies for collectivised pension funds
under homogeneous Epstein-Zin preferences with mortality, plus the Monte
Carlo and analytic machinery to verify them.

Each public name is imported from its submodule on first access (PEP 562),
so ``import pensionlab`` loads no numpy and leaves the environment as it
is; numpy reads its thread settings when it is first imported.
"""

import importlib

_EXPORTS = {
    "core": (
        "ConfigurationError",
        "DivergenceError",
        "MarketParams",
        "Preferences",
        "TimeGrid",
        "make_time_grid",
    ),
    "mortality": (
        "IngestionError",
        "MortalityTable",
        "annuity_factor",
        "gompertz_makeham",
        "load_mortality_csv",
    ),
    "solver": (
        "CollectiveMode",
        "MAX_FINITE_N",
        "Strategy",
        "ValueTable",
        "annuity_utility",
        "evaluate_policy",
        "extract_strategy",
        "growth_exponent",
        "optimal_proportion",
        "solve",
    ),
    "analytics": (
        "Direction",
        "LognormalSchedule",
        "consumption_direction",
        "consumption_drift",
        "eis",
        "wealth_schedule",
    ),
    "montecarlo": ("QUANTILES", "SimulationConfig", "SimulationResult", "simulate"),
    "studies": (
        "ConvergenceReport",
        "annuity_outperformance",
        "convergence_study",
        "improvement",
        "run_scenarios",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
