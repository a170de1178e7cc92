"""Config-driven command line front end.

    pensionlab <solve|distribution|simulate|scenarios|converge>
               --config cfg.json [--out DIR] [--print-config]

The config is strict UTF-8 JSON: unknown keys are rejected so typos surface
immediately.  Rates in the ``market`` block are nominal; the optional
``r_CPI`` is subtracted from mu and r before solving.  Scenario entries give
mu and r directly in real terms and reuse the shared sigma, preferences,
grid and mortality.

Every emitted CSV prints numbers with 12 significant digits and is
byte-identical across reruns of the same config and seed.  Exit codes:
0 success, 2 validation error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    TimeGrid,
    make_time_grid,
)
from .mortality import MortalityTable, gompertz_makeham, load_mortality_csv
from .solver import CollectiveMode, solve
from .analytics import wealth_schedule
from .montecarlo import SimulationConfig, simulate
from .studies import convergence_study, improvement, run_scenarios

__all__ = ["main", "RunConfig", "parse_config"]

_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


def _fmt(x: float) -> str:
    """12 significant digits, locale independent."""
    return f"{x:.11e}"


def _require_keys(block: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigurationError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigurationError(f"missing key {sorted(missing)[0]!r} in {where}")


@dataclass(frozen=True)
class RunConfig:
    market: MarketParams  # inflation-adjusted
    prefs: Preferences
    grid: TimeGrid
    mortality: MortalityTable
    mode: CollectiveMode
    budget: float
    paths: Optional[int]
    seed: Optional[int]
    output: Optional[str]
    scenarios: Optional[list]
    n_list: Optional[list]
    raw: dict


def parse_config(raw: dict, base_dir: Path) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _require_keys(
        raw,
        allowed={
            "market", "preferences", "grid", "mortality", "mode", "budget",
            "simulation", "output", "scenarios", "n_list",
        },
        required={"market", "preferences", "grid", "mortality", "mode", "budget"},
        where="config",
    )

    mkt = raw["market"]
    _require_keys(mkt, {"mu", "r", "sigma", "r_CPI"}, {"mu", "r", "sigma"}, "market")
    r_cpi = float(mkt.get("r_CPI", 0.0))
    market = MarketParams(
        mu=float(mkt["mu"]) - r_cpi, r=float(mkt["r"]) - r_cpi, sigma=float(mkt["sigma"])
    )

    pb = raw["preferences"]
    _require_keys(pb, {"alpha", "rho", "b"}, {"alpha", "rho"}, "preferences")
    prefs = Preferences(alpha=float(pb["alpha"]), rho=float(pb["rho"]), b=float(pb.get("b", 0.0)))

    gb = raw["grid"]
    _require_keys(gb, {"t0", "dt", "T"}, {"t0", "dt", "T"}, "grid")
    grid = make_time_grid(float(gb["t0"]), float(gb["dt"]), float(gb["T"]))

    mb = raw["mortality"]
    _require_keys(mb, {"csv", "gompertz", "age_at_t0"}, set(), "mortality")
    if ("csv" in mb) == ("gompertz" in mb):
        raise ConfigurationError("mortality needs exactly one of 'csv' or 'gompertz'")
    if "csv" in mb:
        path = Path(mb["csv"])
        if not path.is_absolute():
            path = base_dir / path
        age0 = mb.get("age_at_t0")
        mortality = load_mortality_csv(path, grid, None if age0 is None else float(age0))
    else:
        g = mb["gompertz"]
        _require_keys(g, {"a", "b", "c"}, {"a", "b", "c"}, "mortality.gompertz")
        mortality = gompertz_makeham(float(g["a"]), float(g["b"]), float(g["c"]), grid)

    mode = _parse_mode(raw["mode"])

    budget = float(raw["budget"])
    if not budget > 0.0:
        raise ConfigurationError(f"budget must be positive, got {budget}")

    paths = seed = None
    if "simulation" in raw:
        sb = raw["simulation"]
        _require_keys(sb, {"paths", "seed"}, {"paths", "seed"}, "simulation")
        paths, seed = int(sb["paths"]), int(sb["seed"])

    scenarios = None
    if "scenarios" in raw:
        scenarios = []
        for idx, sc in enumerate(raw["scenarios"]):
            _require_keys(sc, {"id", "mu", "r", "n"}, {"id", "mu", "r", "n"}, f"scenarios[{idx}]")
            n = sc["n"]
            if n == "infinite":
                n = None
            elif isinstance(n, int):
                if n < 1:
                    raise ConfigurationError(f"scenarios[{idx}].n must be >= 1, got {n}")
            else:
                raise ConfigurationError(
                    f"scenarios[{idx}].n must be an integer or 'infinite', got {n!r}"
                )
            scenarios.append((str(sc["id"]), float(sc["mu"]), float(sc["r"]), n))

    n_list = None
    if "n_list" in raw:
        n_list = [int(n) for n in raw["n_list"]]

    return RunConfig(
        market=market, prefs=prefs, grid=grid, mortality=mortality, mode=mode,
        budget=budget, paths=paths, seed=seed, output=raw.get("output"),
        scenarios=scenarios, n_list=n_list, raw=raw,
    )


def _parse_mode(text) -> CollectiveMode:
    if text == "individual":
        return CollectiveMode.individual()
    if text == "infinite":
        return CollectiveMode.infinite()
    if isinstance(text, str) and text.startswith("finite:"):
        try:
            return CollectiveMode.finite(int(text.split(":", 1)[1]))
        except ValueError:
            raise ConfigurationError(f"bad finite mode string {text!r}") from None
    raise ConfigurationError(
        f"mode must be 'individual', 'infinite' or 'finite:n', got {text!r}"
    )


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def cmd_solve(cfg: RunConfig, out: Path) -> None:
    table = solve(cfg.mode, cfg.grid, cfg.market, cfg.prefs, cfg.mortality)
    points = cfg.grid.points
    rows = []
    if cfg.mode.is_finite:
        for k in range(cfg.grid.n_steps):
            for i in range(1, cfg.mode.n + 1):
                rows.append(
                    [_fmt(points[k]), str(i), _fmt(table.z[i - 1, k]), _fmt(table.cstar[i - 1, k])]
                )
    else:
        for k in range(cfg.grid.n_steps):
            rows.append([_fmt(points[k]), "0", _fmt(table.z[k]), _fmt(table.cstar[k])])
    _write_csv(out / "value.csv", ["t", "i", "z", "c_star"], rows)
    _write_csv(out / "meta.csv", ["a_star", "xi"], [[_fmt(table.astar), _fmt(table.xi)]])


def cmd_distribution(cfg: RunConfig, out: Path) -> None:
    table = solve(cfg.mode, cfg.grid, cfg.market, cfg.prefs, cfg.mortality)
    sched = wealth_schedule(table, cfg.mortality, cfg.budget)
    rows = [
        [_fmt(t), _fmt(mx), _fmt(sx), _fmt(mg), _fmt(sg)]
        for t, mx, sx, mg, sg in zip(
            cfg.grid.points, sched.mu_x, sched.sigma_x, sched.mu_gamma, sched.sigma_gamma
        )
    ]
    _write_csv(out / "dist.csv", ["t", "mu_x", "sigma_x", "mu_gamma", "sigma_gamma"], rows)


def cmd_simulate(cfg: RunConfig, out: Path) -> None:
    if cfg.paths is None:
        raise ConfigurationError("the simulate command needs a 'simulation' block")
    table = solve(cfg.mode, cfg.grid, cfg.market, cfg.prefs, cfg.mortality)
    sim = simulate(
        SimulationConfig(
            paths=cfg.paths, seed=cfg.seed, mode=cfg.mode, policy=table, x0=cfg.budget,
            record=(), quantiles=_QUANTILES,
        ),
        cfg.grid, cfg.market, cfg.mortality,
    )
    if cfg.mode.is_finite:
        n_pts = cfg.grid.n_steps
        overlay_mu = np.full(n_pts, np.nan)
        overlay_sd = np.full(n_pts, np.nan)
    else:
        sched = wealth_schedule(table, cfg.mortality, cfg.budget)
        overlay_mu, overlay_sd = sched.mu_x, sched.sigma_x
    rows = []
    for k, t in enumerate(cfg.grid.points):
        rows.append(
            [_fmt(t)]
            + [_fmt(sim.summary.x_quantiles[j, k]) for j in range(len(_QUANTILES))]
            + [
                _fmt(sim.summary.mean_log_x[k]),
                _fmt(math.sqrt(sim.summary.var_log_x[k]) if sim.summary.var_log_x[k] >= 0 else float("nan")),
                _fmt(overlay_mu[k]),
                _fmt(overlay_sd[k]),
            ]
        )
    _write_csv(
        out / "paths_summary.csv",
        ["t", "q05", "q25", "q50", "q75", "q95", "mean_log_x", "sd_log_x",
         "mean_log_x_analytic", "sd_log_x_analytic"],
        rows,
    )


def cmd_scenarios(cfg: RunConfig, out: Path) -> None:
    if not cfg.scenarios:
        raise ConfigurationError("the scenarios command needs a non-empty 'scenarios' list")
    reports = run_scenarios(
        cfg.scenarios, cfg.grid, cfg.market.sigma, cfg.prefs, cfg.mortality, cfg.budget
    )
    rows = [
        [rep.scenario, _fmt(rep.mu), _fmt(rep.r), "inf" if rep.n is None else str(rep.n),
         _fmt(rep.outperformance)]
        for rep in reports
    ]
    _write_csv(out / "scenarios.csv", ["scenario", "mu", "r", "n", "outperformance"], rows)
    pair_rows = []
    for ra in reports:
        for rb in reports:
            if ra.scenario != rb.scenario:
                pair_rows.append(
                    [ra.scenario, rb.scenario,
                     _fmt(improvement(ra.outperformance, rb.outperformance))]
                )
    _write_csv(out / "improvements.csv", ["scenario_a", "scenario_b", "improvement"], pair_rows)


def cmd_converge(cfg: RunConfig, out: Path) -> None:
    if not cfg.n_list:
        raise ConfigurationError("the converge command needs a non-empty 'n_list'")
    report = convergence_study(cfg.n_list, cfg.grid, cfg.market, cfg.prefs, cfg.mortality)
    rows = []
    for n, zn in report.entries:
        diff = abs(zn - report.z_infinity)
        bound = report.bound_constant * n**-0.5
        rows.append([str(n), _fmt(zn), _fmt(diff), _fmt(bound)])
    _write_csv(out / "convergence.csv", ["n", "z_n", "abs_diff", "bound"], rows)
    print(
        f"fit: |z_n - z_inf| ~ {_fmt(report.fit_constant)} * n^{report.fit_exponent:.4f}; "
        f"bound {_fmt(report.bound_constant)} * n^-1/2 anchored at n={report.bound_anchor}; "
        f"z_inf = {_fmt(report.z_infinity)}"
    )


_COMMANDS = {
    "solve": cmd_solve,
    "distribution": cmd_distribution,
    "simulate": cmd_simulate,
    "scenarios": cmd_scenarios,
    "converge": cmd_converge,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pensionlab",
        description="Collectivised pension fund studies: solve, verify and simulate.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory (default: config's 'output' or '.')")
    parser.add_argument(
        "--print-config", action="store_true",
        help="echo the validated config as canonical JSON and exit",
    )
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        try:
            raw = json.loads(cfg_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {cfg_path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        cfg = parse_config(raw, cfg_path.resolve().parent)
        if args.print_config:
            print(json.dumps(cfg.raw, indent=2, sort_keys=True))
            return 0
        out = Path(args.out if args.out is not None else (cfg.output or "."))
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
