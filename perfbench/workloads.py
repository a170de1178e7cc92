"""The benchmark's workloads: the configs they run and the checks on their output.

Each workload runs one ``pensionlab`` CLI command on a bundled config,
copied with overrides.  The workload seed only moves the simulation seed;
at seed 0 the simulation seed is the bundled config's own, and the output
must match the reference stored in ``perfbench/reference``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

BUNDLED_SEED = 20260808  # simulation.seed of configs/default.json
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-9
Z_LIMIT = 5.0

SIM_HEADER = [
    "t", "q05", "q25", "q50", "q75", "q95", "mean_log_x", "sd_log_x",
    "mean_log_x_analytic", "sd_log_x_analytic",
]
CONVERGE_HEADER = ["n", "z_n", "abs_diff", "bound"]
QUANTILE_COLUMNS = SIM_HEADER[1:6]

# Columns computed as small differences of larger quantities: their
# tolerance scales with the largest magnitude of the column they derive from.
DERIVED_SCALE = {"sd_log_x": "mean_log_x", "abs_diff": "z_n", "bound": "z_n"}

_FIT = re.compile(r"n\^(-?\d+\.\d+);")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_config: str
    overrides: dict = field(default_factory=dict)
    why: str = ""

    @property
    def output_csv(self) -> str:
        return "convergence.csv" if self.command == "converge" else "paths_summary.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-infinite", "simulate", "default.json",
            why="bundled default config (infinite fund, 100k paths): no binomial "
                "sampler and no finite value step, so it bypasses both; time goes "
                "to the counter RNG and summarize",
        ),
        Workload(
            "sim-pool100", "simulate", "default.json", {"mode": "finite:100"},
            why="finite:100 with 100k paths: the binomial sampler is the largest "
                "layer and the solve is under 1%, so it bypasses the O(n^2) value step",
        ),
        Workload(
            "sim-pool1000", "simulate", "default.json",
            {"mode": "finite:1000", "simulation": {"paths": 20000}},
            why="finite:1000 with 20k paths: wider sampler windows, few paths per "
                "count, and a mixed split between the O(n^2) solve and simulation",
        ),
        Workload(
            "converge-2048", "converge", "studies.json",
            {"n_list": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]},
            why="the paper's n^(-1/2) convergence check up to n=2048: almost all "
                "time in the O(n^2) finite value step; no Monte Carlo, so it "
                "bypasses the sampler",
        ),
    )
}


def make_config(workload: Workload, configs_dir: Path, seed: int) -> dict:
    """The workload's config: the bundled one with overrides and the seed."""
    cfg = json.loads((configs_dir / workload.base_config).read_text(encoding="utf-8"))
    for key, value in workload.overrides.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    if "simulation" in cfg:
        cfg["simulation"] = {**cfg["simulation"], "seed": (BUNDLED_SEED + seed) % 2**63}
    return cfg


def read_csv(path: Path) -> tuple[list[str], dict[str, list[float]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {name: [float(row[j]) for row in body] for j, name in enumerate(header)}
    return header, columns


def expected_rows(workload: Workload, cfg: dict) -> int:
    """One row per fund size, or per grid point t0, t0+dt, ..., T-dt."""
    if workload.command == "converge":
        return len(cfg["n_list"])
    g = cfg["grid"]
    return int(round((g["T"] - g["t0"]) / g["dt"]))


def check_output(workload: Workload, cfg: dict, out_dir: Path, stdout: str,
                 reference: Path | None) -> list[str]:
    """Problems found in one run's output; empty when the run is correct."""
    path = out_dir / workload.output_csv
    if not path.is_file():
        return [f"{workload.output_csv} missing"]
    try:
        header, cols = read_csv(path)
    except (ValueError, IndexError) as exc:
        return [f"{workload.output_csv} unreadable: {exc}"]
    want = CONVERGE_HEADER if workload.command == "converge" else SIM_HEADER
    if header != want:
        return [f"header {header} != {want}"]
    n_rows = len(cols[header[0]])
    if n_rows != expected_rows(workload, cfg):
        return [f"{n_rows} rows, expected {expected_rows(workload, cfg)}"]
    if workload.command == "converge":
        problems = _check_convergence(cols, stdout)
    else:
        problems = _check_paths(cols, cfg)
    if reference is not None:
        problems += compare_to_reference(path, reference)
    return problems


def _check_paths(cols: dict, cfg: dict) -> list[str]:
    problems = []
    n_rows = len(cols["t"])
    extinct = False
    for k in range(n_rows):
        qs = [cols[c][k] for c in QUANTILE_COLUMNS]
        row = qs + [cols["mean_log_x"][k], cols["sd_log_x"][k]]
        # A finite fund whose members have all died, on every path, has no
        # wealth to summarise: its row is NaN, and so is every later row.
        extinct = extinct or math.isnan(cols["mean_log_x"][k])
        if extinct:
            if not all(math.isnan(v) for v in row):
                problems.append(f"step {k}: no path alive but the row has numbers")
        elif not all(math.isfinite(v) for v in row):
            problems.append(f"step {k}: non-finite quantile or moment")
        elif any(a > b for a, b in zip(qs, qs[1:])):
            problems.append(f"step {k}: quantiles decrease")
    # Step 0 holds one wealth value on every path.  The mean must print as
    # log(budget); the sd is a variance over identical values, zero up to
    # floating-point rounding of the mean.
    log_budget = math.log(float(cfg["budget"]))
    if cols["mean_log_x"][0] != float(f"{log_budget:.11e}"):
        problems.append(f"step 0 mean_log_x {cols['mean_log_x'][0]} != log(budget)")
    if not 0.0 <= cols["sd_log_x"][0] <= 16 * math.ulp(log_budget):
        problems.append(f"step 0 sd_log_x {cols['sd_log_x'][0]} is not zero")
    if cfg["mode"] == "infinite":
        root_paths = math.sqrt(cfg["simulation"]["paths"])
        for k in range(1, n_rows):
            mu, sd = cols["mean_log_x_analytic"][k], cols["sd_log_x_analytic"][k]
            z = (cols["mean_log_x"][k] - mu) / (sd / root_paths)
            if not abs(z) <= Z_LIMIT:
                problems.append(f"step {k}: mean_log_x z-score {z:.2f} vs analytic")
    return problems


def _check_convergence(cols: dict, stdout: str) -> list[str]:
    problems = []
    fit = _FIT.search(stdout)
    if fit is None:
        problems.append("no fitted exponent on stdout")
    elif not float(fit.group(1)) <= -0.5:
        problems.append(f"fitted exponent {fit.group(1)} > -0.5")
    # the bound is anchored at the first n >= 4 and must hold from there on
    for n, diff, bound in zip(cols["n"], cols["abs_diff"], cols["bound"]):
        if n >= 4 and not diff <= bound:
            problems.append(f"n={n:.0f}: abs_diff {diff} > bound {bound}")
    return problems


def compare_to_reference(path: Path, reference: Path) -> list[str]:
    """Numbers in ``path`` equal those in ``reference`` to REFERENCE_RTOL.

    Each value is compared relative to its own magnitude, or for the
    columns in DERIVED_SCALE to the largest magnitude of their source
    column.  NaN must match NaN.
    """
    header, cols = read_csv(path)
    ref_header, ref = read_csv(reference)
    if header != ref_header or len(cols[header[0]]) != len(ref[header[0]]):
        return [f"{path.name} shape differs from reference"]
    problems = []
    for name in header:
        source = DERIVED_SCALE.get(name)
        floor = max(abs(v) for v in ref[source]) if source else 0.0
        for k, (got, want) in enumerate(zip(cols[name], ref[name])):
            if math.isnan(want) and math.isnan(got):
                continue
            tol = REFERENCE_RTOL * max(abs(want), floor)
            if not abs(got - want) <= tol:
                problems.append(f"{name}[{k}] = {got!r}, reference {want!r}")
    return problems
