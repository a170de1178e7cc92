"""Optimal investment-consumption strategies for collectivised pension funds
under homogeneous Epstein-Zin preferences with mortality, plus the Monte
Carlo and analytic machinery to verify them."""

from .core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    TimeGrid,
    make_time_grid,
)
from .mortality import (
    DEFAULT_GRID,
    GOMPERTZ_DEFAULT,
    IngestionError,
    MortalityTable,
    annuity_factor,
    gompertz_makeham,
    load_mortality_csv,
)
from .solver import (
    CollectiveMode,
    Strategy,
    ValueTable,
    consumption_rate,
    continuation_factor,
    evaluate_policy,
    extract_strategy,
    growth_exponent,
    optimal_proportion,
    solve,
)
from .analytics import (
    Direction,
    LognormalSchedule,
    consumption_direction,
    consumption_drift,
    eis,
    wealth_schedule,
)
from .montecarlo import SimulationConfig, SimulationResult, simulate
from .studies import (
    ConvergenceReport,
    FundSizeReport,
    ScenarioReport,
    annuity_outperformance,
    annuity_utility,
    convergence_study,
    fund_size_study,
    improvement,
    run_scenarios,
)

__version__ = "0.1.0"
