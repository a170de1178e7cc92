"""Config-driven command line front end.

    pensionlab <solve|distribution|simulate|scenarios|converge>
               --config cfg.json [--out DIR] [--print-config]

The config is strict UTF-8 JSON: unknown keys are rejected so typos surface
immediately.  Rates in the ``market`` block are nominal; the optional
``r_CPI`` is subtracted from mu and r before solving.  Scenario entries give
mu and r directly in real terms and reuse the shared sigma, preferences,
grid and mortality.  A config that asks for more grid points, Monte Carlo
paths, finite value-table cells (fund size times grid points) or scenarios
than the ``MAX_*`` caps below is rejected before anything is allocated.

Each command hands whole columns to one CSV writer, which streams the rows
a block at a time; improvements.csv's columns are formed a few scenario_a
rows at a time.  Numbers print with 12 significant digits, and every CSV
is byte-identical across reruns of the same config and seed.  Exit codes:
0 success, 2 validation error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# OpenBLAS reads this once, when numpy first loads it, and otherwise starts a
# worker thread per core.  pensionlab's only BLAS call is one dot product
# over the time grid, so in a CLI run the pool costs start-up CPU and buys
# nothing.  An explicit value in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .core import (
    ConfigurationError,
    DivergenceError,
    MarketParams,
    Preferences,
    _integer,
    _real,
    make_time_grid,
)
from .mortality import MortalityTable, gompertz_makeham, load_mortality_csv
from .solver import CollectiveMode, solve
from .analytics import _pooling, wealth_schedule
from .montecarlo import QUANTILES, SimulationConfig, simulate
from .studies import _checked_sizes, convergence_study, improvement, run_scenarios

__all__ = ["main", "RunConfig", "parse_config"]

_BLOCK_ROWS = 4096  # CSV rows formatted per write

# Caps on what one accepted CLI config may ask for, so that a config at all
# three caps keeps its tables and path arrays under 1 GiB on a 7.8 GiB machine.
# Measured tracemalloc peaks per unit: about 152 B per grid point (simulate's
# per-date statistics; solve needs 60 B), 53 B per finite table cell (the
# value.csv columns of solve; simulate needs 35 B, and converge, which holds
# no table, 3.5 B at n = 10,000 on 31 grid points) and 19 B per Monte Carlo
# path (a finite fund: 18.7 B at 200,000 paths, 18.1 B at 1,000,000; 16 B
# for the infinite fund), i.e. at most about 145 + 253 + 91 MiB, some
# 0.48 GiB.
MAX_GRID_POINTS = 1_000_000
MAX_FINITE_CELLS = 5_000_000  # fund size n times grid points
MAX_PATHS = 5_000_000
# The scenarios command writes all k(k-1) ordered pairs to improvements.csv,
# a few scenario_a rows at a time; at k = 1000 the command peaks at 32 MiB
# RSS and writes 27 MiB.
MAX_SCENARIOS = 1000


def _require_keys(block: dict, allowed: set, required: set, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigurationError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigurationError(f"missing key {sorted(missing)[0]!r} in {where}")
    return block


def _numbers(block: dict, allowed: set, required: set, where: str) -> dict:
    """A config block whose values are all numbers, as floats."""
    block = _require_keys(block, allowed, required, where)
    return {key: _real(value, f"{where}.{key}") for key, value in block.items()}


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be a JSON list, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class RunConfig:
    market: MarketParams  # inflation-adjusted
    prefs: Preferences
    mortality: MortalityTable  # on the config's grid
    mode: CollectiveMode
    budget: float
    paths: Optional[int]
    seed: Optional[int]
    output: Optional[str]
    scenarios: Optional[list]
    n_list: Optional[list]


def parse_config(raw: dict, base_dir: Path) -> RunConfig:
    _require_keys(
        raw,
        allowed={
            "market", "preferences", "grid", "mortality", "mode", "budget",
            "simulation", "output", "scenarios", "n_list",
        },
        required={"market", "preferences", "grid", "mortality", "mode", "budget"},
        where="config",
    )

    mkt = _numbers(raw["market"], {"mu", "r", "sigma", "r_CPI"}, {"mu", "r", "sigma"}, "market")
    r_cpi = mkt.get("r_CPI", 0.0)
    market = MarketParams(mu=mkt["mu"] - r_cpi, r=mkt["r"] - r_cpi, sigma=mkt["sigma"])
    prefs = Preferences(
        **_numbers(raw["preferences"], {"alpha", "rho", "b"}, {"alpha", "rho"}, "preferences")
    )
    grid = make_time_grid(**_numbers(raw["grid"], {"t0", "dt", "T"}, {"t0", "dt", "T"}, "grid"))
    _capped(grid.n_steps, MAX_GRID_POINTS, "grid points")

    mb = _require_keys(raw["mortality"], {"csv", "gompertz", "age_at_t0"}, set(), "mortality")
    if ("csv" in mb) == ("gompertz" in mb):
        raise ConfigurationError("mortality needs exactly one of 'csv' or 'gompertz'")
    if "csv" in mb:
        if not isinstance(mb["csv"], str) or "\0" in mb["csv"]:
            raise ConfigurationError(f"mortality.csv must be a file name, got {mb['csv']!r}")
        age0 = mb.get("age_at_t0")
        mortality = load_mortality_csv(  # an absolute path replaces base_dir
            base_dir / mb["csv"], grid,
            None if age0 is None else _real(age0, "mortality.age_at_t0"),
        )
    else:
        g = _numbers(mb["gompertz"], {"a", "b", "c"}, {"a", "b", "c"}, "mortality.gompertz")
        mortality = gompertz_makeham(**g, grid=grid)

    mode = _parse_mode(raw["mode"])

    budget = _real(raw["budget"], "budget")
    if not budget > 0.0:
        raise ConfigurationError(f"budget must be positive, got {budget}")

    paths = seed = None
    if "simulation" in raw:
        sb = _require_keys(raw["simulation"], {"paths", "seed"}, {"paths", "seed"}, "simulation")
        paths = _capped(_integer(sb["paths"], "simulation.paths"), MAX_PATHS, "simulation.paths")
        seed = _integer(sb["seed"], "simulation.seed")

    scenarios = None
    if "scenarios" in raw:
        entries = _list(raw["scenarios"], "scenarios")
        _capped(len(entries), MAX_SCENARIOS, "scenarios")  # improvements.csv has k(k-1) rows
        scenarios, ids = [], set()
        for idx, sc in enumerate(entries):
            where = f"scenarios[{idx}]"
            _require_keys(sc, {"id", "mu", "r", "n"}, {"id", "mu", "r", "n"}, where)
            sid = sc["id"]  # a CSV cell, and a unique key of improvements.csv
            if not isinstance(sid, str) or not sid or any(ch in sid for ch in ',"\r\n'):
                raise ConfigurationError(
                    f"{where}.id must be a non-empty string without commas, quotes or "
                    f"line breaks, got {sid!r}"
                )
            if sid in ids:
                raise ConfigurationError(f"{where}.id {sid!r} repeats an earlier scenario id")
            ids.add(sid)
            n = None if sc["n"] == "infinite" else _integer(sc["n"], f"{where}.n")
            mu, r = _real(sc["mu"], f"{where}.mu"), _real(sc["r"], f"{where}.r")
            scenarios.append((sid, mu, r, _located(CollectiveMode, n, f"{where}.n").n))

    n_list = None
    if "n_list" in raw:
        entries = _list(raw["n_list"], "n_list")
        n_list = [_located(CollectiveMode.finite, _integer(n, f"n_list[{i}]"), f"n_list[{i}]").n
                  for i, n in enumerate(entries)]
        if n_list:  # an empty list is the converge command's own error
            _located(_checked_sizes, n_list, "n_list")

    # no command builds a value table larger than the largest fund on the grid
    largest = max([mode.n or 0, *(sc[3] or 0 for sc in scenarios or ()), *(n_list or ())])
    _capped(largest * grid.n_steps, MAX_FINITE_CELLS,
            f"value cells of a fund of {largest} on {grid.n_steps} grid points")

    output = raw.get("output")
    if output is not None and (not isinstance(output, str) or "\0" in output):
        raise ConfigurationError(f"output must be a directory name, got {output!r}")

    return RunConfig(
        market=market, prefs=prefs, mortality=mortality, mode=mode,
        budget=budget, paths=paths, seed=seed, output=output,
        scenarios=scenarios, n_list=n_list,
    )


def _capped(count: int, cap: int, what: str) -> int:
    """``count``, checked against ``cap`` before anything of that size is allocated."""
    if count > cap:
        raise ConfigurationError(f"{what} = {count} exceeds the cap {cap}")
    return count


def _located(build, value, where: str):
    """``build(value)``, with ``where`` heading the text of a ConfigurationError it raises."""
    try:
        return build(value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _parse_mode(text) -> CollectiveMode:
    if text == "individual":  # the one-member fund, finite:1
        return CollectiveMode.individual()
    if text == "infinite":
        return CollectiveMode.infinite()
    if isinstance(text, str) and text.startswith("finite:"):
        # ASCII digits as str(CollectiveMode) writes them: int() alone also
        # reads spaces, signs, underscores, leading zeros and the digits of
        # other scripts
        digits = text[len("finite:"):]
        try:
            n = int(digits) if digits.isascii() and digits.isdigit() else None
        except ValueError:  # past int()'s digit limit
            n = None
        if n is None or str(n) != digits:
            raise ConfigurationError(f"bad finite mode string {text!r}")
        return _located(CollectiveMode.finite, n, "mode")
    raise ConfigurationError(
        f"mode must be 'individual', 'infinite' or 'finite:n', got {text!r}"
    )


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns (arrays or short lists) as CSV rows, ``_BLOCK_ROWS``
    at a time.  Float columns print as ``%.11e`` (12 significant digits); others as ``str``.

    ``columns`` may instead be an iterator of such lists of columns, whose rows
    are written one list after another.  The file is made once the first list
    is formed, so an error in forming it leaves no file."""
    parts = iter([columns] if isinstance(columns, list) else columns)
    part = next(parts)
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            while part is not None:
                part = [np.asarray(col) for col in part]
                row = ",".join("%.11e" if col.dtype.kind == "f" else "%s" for col in part) + "\n"
                for start in range(0, len(part[0]), _BLOCK_ROWS):
                    block = [col[start:start + _BLOCK_ROWS].tolist() for col in part]
                    fh.write("".join(row % cells for cells in zip(*block)))
                part = next(parts, None)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from None
    print(f"wrote {path}")


def cmd_solve(cfg: RunConfig, out: Path) -> None:
    table = solve(cfg.mode, cfg.market, cfg.prefs, cfg.mortality)
    counts = np.arange(1, cfg.mode.n + 1) if cfg.mode.is_finite else np.zeros(1, dtype=np.int64)
    _write_csv(
        out / "value.csv", ["t", "i", "z", "c_star"],
        [np.repeat(table.grid.points, counts.size), np.tile(counts, table.grid.n_steps),
         table.z.T.ravel(), table.cstar.T.ravel()],
    )
    _write_csv(out / "meta.csv", ["a_star", "xi"], [[table.astar], [table.xi]])


def cmd_distribution(cfg: RunConfig, out: Path) -> None:
    table = solve(cfg.mode, cfg.market, cfg.prefs, cfg.mortality)
    sched = wealth_schedule(table, cfg.budget)
    _write_csv(
        out / "dist.csv", ["t", "mu_x", "sigma_x", "mu_gamma", "sigma_gamma"],
        [table.grid.points, sched.mu_x, sched.sigma_x, sched.mu_gamma, sched.sigma_x],
    )


def cmd_simulate(cfg: RunConfig, out: Path) -> None:
    table = solve(cfg.mode, cfg.market, cfg.prefs, cfg.mortality)
    grid = table.grid
    sim = simulate(
        SimulationConfig(paths=cfg.paths, seed=cfg.seed, policy=table, x0=cfg.budget),
        grid, cfg.market, cfg.mortality,
    )
    if cfg.mode.pooling is None:  # no closed form for a fund of n >= 2
        overlay_mu = overlay_sd = np.full(grid.n_steps, np.nan)
    else:
        sched = wealth_schedule(table, cfg.budget)
        overlay_mu, overlay_sd = sched.mu_x, sched.sigma_x
    _write_csv(
        out / "paths_summary.csv",
        ["t", *(f"q{round(100 * p):02d}" for p in QUANTILES), "mean_log_x", "sd_log_x",
         "mean_log_x_analytic", "sd_log_x_analytic"],
        [grid.points, *sim.x_quantiles, sim.mean_log_x, np.sqrt(sim.var_log_x),
         overlay_mu, overlay_sd],
    )


def cmd_scenarios(cfg: RunConfig, out: Path) -> None:
    ids, mu, r, n = zip(*cfg.scenarios)
    o = run_scenarios(list(zip(mu, r, n)), cfg.market.sigma, cfg.prefs, cfg.mortality)
    _write_csv(
        out / "scenarios.csv", ["scenario", "mu", "r", "n", "outperformance"],
        [ids, mu, r, ["inf" if size is None else size for size in n], o],
    )
    _write_csv(
        out / "improvements.csv", ["scenario_a", "scenario_b", "improvement"],
        _ordered_pairs(np.asarray(ids), o),
    )


def _ordered_pairs(ids: np.ndarray, o: np.ndarray):
    """The columns of improvements.csv, a few scenario_a rows at a time: every
    ordered pair of distinct scenarios (ids are unique), row-major.

    Every scenario is the baseline of a pair in the first block (it holds at
    least two scenario_a rows), so an invalid baseline raises before any row
    is formed."""
    k = ids.size
    per = max(2, _BLOCK_ROWS // max(k - 1, 1))  # scenario_a rows per block
    others = np.arange(k - 1)
    for lo in range(0, k, per):
        a = np.arange(lo, min(lo + per, k))
        b = (others + (others >= a[:, None])).ravel()  # every scenario but a, ascending
        a = a.repeat(k - 1)
        yield [ids[a], ids[b], improvement(o[a], o[b])]


def cmd_converge(cfg: RunConfig, out: Path) -> None:
    report = convergence_study(cfg.n_list, cfg.market, cfg.prefs, cfg.mortality)
    n, zn = np.array(cfg.n_list), report.z_n
    # Python pow per entry: numpy's vectorised power need not round the same
    _write_csv(
        out / "convergence.csv", ["n", "z_n", "abs_diff", "bound"],
        [n, zn, np.abs(zn - report.z_infinity),
         [report.bound_constant * k**-0.5 for k in n.tolist()]],
    )
    _write_csv(
        out / "fund_size.csv", ["n", "z_n", "outperformance", "rel_gap", "local_exponent"],
        [n, zn, report.outperformance, np.abs(zn / report.z_infinity - 1.0),
         report.local_exponent],
    )
    print(  # the text of the CSVs' %.11e
        f"fit: |z_n - z_inf| ~ {report.fit_constant:.11e} * n^{report.fit_exponent:.4f}; "
        f"bound {report.bound_constant:.11e} * n^-1/2 anchored at n={report.bound_anchor}; "
        f"z_inf = {report.z_infinity:.11e}"
    )


_COMMANDS = {
    "solve": cmd_solve,
    "distribution": cmd_distribution,
    "simulate": cmd_simulate,
    "scenarios": cmd_scenarios,
    "converge": cmd_converge,
}
# the config field each command needs beyond the required blocks, checked
# before the output directory is made
_NEEDS = {
    "simulate": ("paths", "a 'simulation' block"),
    "scenarios": ("scenarios", "a non-empty 'scenarios' list"),
    "converge": ("n_list", "a non-empty 'n_list'"),
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
        except (OSError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigurationError(f"cannot read config {cfg_path}: {exc}") from None
        cfg = parse_config(raw, cfg_path.resolve().parent)
        if args.print_config:
            print(json.dumps(raw, indent=2, sort_keys=True))
            return 0
        field, what = _NEEDS.get(args.command, (None, None))
        if field is not None and getattr(cfg, field) in (None, []):
            raise ConfigurationError(f"the {args.command} command needs {what}")
        if args.command == "distribution":  # its closed form has no fund of n >= 2 to solve
            _pooling(cfg.mode, "wealth_schedule")
        out = Path(args.out if args.out is not None else (cfg.output or "."))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create output directory {out}: {exc}") from None
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
