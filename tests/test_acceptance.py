"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned in the assertions, not configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pensionlab
from pensionlab.analytics import (
    Direction,
    consumption_direction,
    consumption_drift,
    eis,
    wealth_schedule,
)
from pensionlab.core import MarketParams, Preferences, make_time_grid
from pensionlab.montecarlo import SimulationConfig, simulate
from pensionlab.mortality import MortalityTable
from pensionlab.solver import (
    CollectiveMode,
    evaluate_policy,
    extract_strategy,
    solve,
)
from pensionlab.studies import annuity_outperformance, convergence_study, improvement

from conftest import random_mortality
from oracle_dp import oracle_values
from test_solver import random_market, random_prefs

SRC_DIR = Path(pensionlab.__file__).resolve().parents[1]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_two_period_equal_split():
    grid = make_time_grid(0, 1, 2)
    mt = MortalityTable.from_pmf(grid, [0.0, 1.0])
    market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
    prefs = Preferences(alpha=-2.0, rho=-1.0, b=0.0)
    solve(CollectiveMode.individual(), market, prefs, mt)  # warm path
    t0 = time.perf_counter()
    table = solve(CollectiveMode.individual(), market, prefs, mt)
    elapsed = time.perf_counter() - t0
    dz = abs(table.z[0] - 0.25)
    dc = abs(table.cstar[0] - 0.5)
    ok = dz <= 1e-12 and dc <= 1e-12 and elapsed < 1e-3
    report(1, ok, f"|z-0.25|={dz:.1e}, |c*-0.5|={dc:.1e}, runtime {elapsed*1e3:.3f} ms")


def test_criterion_02_brute_force_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n_steps = int(rng.integers(3, 6))
        grid = make_time_grid(0.0, 1.0, float(n_steps))
        mt = random_mortality(rng, grid)
        prefs = random_prefs(rng)
        market = random_market(rng)
        for n in (1, 2, 3):
            z = solve(CollectiveMode.finite(n), market, prefs, mt).z[n - 1, 0]
            w = oracle_values(n, grid, market, prefs, mt)[n - 1, 0]
            worst = max(worst, abs(z - w) / abs(w))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, ok, f"worst relative gap {worst:.2e} over 20 draws x n in {{1,2,3}}, {elapsed:.2f} s")


def test_criterion_03_single_member_fund_is_individual(mild_table, default_table,
                                                       base_market, vnm_prefs):
    worst = 0.0
    for grid, mt in (mild_table, default_table):
        ind = solve(CollectiveMode.individual(), base_market, vnm_prefs, mt)
        one = solve(CollectiveMode.finite(1), base_market, vnm_prefs, mt)
        worst = max(
            worst,
            float(np.max(np.abs(one.z[0] - ind.z))),
            float(np.max(np.abs(one.cstar[0] - ind.cstar))),
        )
    ok = worst <= 1e-12
    report(3, ok, f"max |finite(1) - individual| = {worst:.2e} across z and c*")


def test_criterion_04_distribution_verification(default_table, base_market, vnm_prefs):
    grid, mt = default_table
    paths = 100_000
    t0 = time.perf_counter()
    table = solve(CollectiveMode.infinite(), base_market, vnm_prefs, mt)
    sched = wealth_schedule(table, 1.0)
    res = simulate(
        SimulationConfig(paths=paths, seed=0, mode=CollectiveMode.infinite(),
                         policy=table, record=()),
        grid, base_market, mt,
    )
    elapsed = time.perf_counter() - t0

    # closed form sigma a* sqrt(t - t0) against the recursion's accumulation
    k = np.arange(grid.n_steps)
    closed = base_market.sigma * table.astar * np.sqrt(grid.dt * k)
    sd_gap = float(np.max(np.abs(sched.sigma_x - closed)))

    var_ref = sched.sigma_x**2
    se_mean = sched.sigma_x / math.sqrt(paths)
    se_var = var_ref * math.sqrt(2.0 / (paths - 1))
    d_mean = np.abs(res.mean_log_x - sched.mu_x)
    d_var = np.abs(res.var_log_x - var_ref)
    mean_ok = bool(np.all(d_mean <= 3.0 * se_mean + 1e-15))
    var_ok = bool(np.all(d_var <= 3.0 * se_var + 1e-15))
    zm = float(np.max(d_mean[1:] / se_mean[1:]))
    zv = float(np.max(d_var[1:] / se_var[1:]))

    ok = mean_ok and var_ok and sd_gap <= 1e-12 and elapsed < 120.0
    report(4, ok, f"max z(mean)={zm:.2f}, max z(var)={zv:.2f} over {paths} paths; "
                  f"|sigma_x - closed form|={sd_gap:.1e}; {elapsed:.1f} s")


def _perturbation_drops(table, mode, grid, market, prefs, mt, entry, k, hs):
    base = evaluate_policy(extract_strategy(table), mode, market, prefs, mt)
    out = {}
    for h in hs:
        for sign in (1.0, -1.0):
            strat = extract_strategy(table)
            c = strat.c[..., k] if not mode.is_finite else strat.c[entry, k]
            scaled = c * (1.0 + sign * h)
            if scaled > 1.0:
                continue  # consuming more than everything is infeasible
            if mode.is_finite:
                strat.c[entry, k] = scaled
            else:
                strat.c[k] = scaled
            out[(h, sign)] = base - evaluate_policy(strat, mode, market, prefs, mt)
    return out


def test_criterion_05_optimality_perturbation(base_market, vnm_prefs):
    grid = make_time_grid(0.0, 1.0, 8.0)
    rng = np.random.default_rng(55)
    mt = random_mortality(rng, grid)
    hs = (1e-2, 1e-3, 1e-4)
    failures = []
    for mode in (CollectiveMode.individual(), CollectiveMode.infinite(), CollectiveMode.finite(3)):
        table = solve(mode, base_market, vnm_prefs, mt)
        entries = range(mode.n) if mode.is_finite else [0]
        for entry in entries:
            for k in range(grid.n_steps):
                if mode.is_finite and k == 0 and entry != mode.n - 1:
                    continue  # at t0 the fund has n members: other rows unreachable
                drops = _perturbation_drops(table, mode, grid, base_market, vnm_prefs,
                                            mt, entry, k, hs)
                for key, d in drops.items():
                    if d <= 0.0:
                        failures.append(f"{mode} ({entry},{k}) h={key}: drop {d:.2e}")
                # flatness only where the optimum is interior (the final date
                # consumes everything, a boundary optimum with linear response)
                if k < grid.n_steps - 1:
                    num = sum(abs(drops[(h, s)]) * h * h for h in hs for s in (1.0, -1.0))
                    den = sum(h**4 for h in hs for _ in (1.0, -1.0))
                    k_fit = num / den
                    for h in hs:
                        for s in (1.0, -1.0):
                            if abs(drops[(h, s)]) > 2.0 * k_fit * h * h:
                                failures.append(
                                    f"{mode} ({entry},{k}) h={h}: |dV|={abs(drops[(h,s)]):.2e} "
                                    f"> 2 K h^2 = {2*k_fit*h*h:.2e}"
                                )
    ok = not failures
    report(5, ok, "strict decrease + quadratic flatness at every grid point, "
                  "all three modes" if ok else "; ".join(failures[:4]))


def test_criterion_06_consumption_direction_table():
    rows = [
        ((-2.0, -1.0), Direction.INCREASING, Direction.DECREASING),
        ((-1.0, 0.5), Direction.INCREASING, Direction.INCREASING),
        ((0.25, 0.5), Direction.DECREASING, Direction.DECREASING),
        ((-1.0, -1.0), Direction.CONSTANT, Direction.DECREASING),
        ((0.5, 0.5), Direction.CONSTANT, Direction.DECREASING),
    ]
    bad = []
    for (alpha, rho), want_coll, want_ind in rows:
        prefs = Preferences(alpha=alpha, rho=rho, b=0.0)
        got_coll = consumption_direction(prefs, 1)
        got_ind = consumption_direction(prefs, 0)
        if got_coll is not want_coll or got_ind is not want_ind:
            bad.append(f"(alpha={alpha}, rho={rho}) -> ({got_coll}, {got_ind})")
    report(6, not bad, "all five parameter rows match" if not bad else "; ".join(bad))


def test_criterion_07_eis_vs_finite_difference():
    prefs = Preferences(alpha=-1.0, rho=-1.0)
    flat = MarketParams(mu=0.03, r=0.03, sigma=0.2)
    exact_ok = eis(prefs, flat) == 0.5

    rng = np.random.default_rng(77)
    h = 1e-5
    worst = 0.0
    done = 0
    while done < 50:
        p = random_prefs(rng)
        m = random_market(rng)
        analytic = eis(p, m)
        if abs(analytic) < 0.05:
            continue  # relative tolerance is meaningless at the zero crossing
        up = MarketParams(mu=m.mu, r=m.r + h, sigma=m.sigma)
        dn = MarketParams(mu=m.mu, r=m.r - h, sigma=m.sigma)
        fd = (consumption_drift(p, up, 0.9, 1) - consumption_drift(p, dn, 0.9, 1)) / (2 * h)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
        done += 1
    ok = exact_ok and worst <= 1e-6
    report(7, ok, f"mu=r gives exactly 0.5: {exact_ok}; worst FD gap {worst:.2e} over 50 draws")


def test_criterion_08_scenario4_zero(default_table):
    grid, mt = default_table
    market = MarketParams(mu=0.0, r=0.0, sigma=0.15)
    prefs = Preferences(alpha=-1.0, rho=-1.0, b=0.0)
    table = solve(CollectiveMode.infinite(), market, prefs, mt)
    out = annuity_outperformance(table)
    ok = abs(out) <= 1e-10
    report(8, ok, f"flat-market vNM infinite collective outperformance {out:.2e}")


def test_criterion_09_scenario_ordering(default_table, vnm_prefs):
    grid, mt = default_table
    outs = {}
    for name, mu, r, mode in [
        ("S1", 0.062, 0.027, CollectiveMode.infinite()),
        ("S2", 0.062, 0.027, CollectiveMode.individual()),
        ("S3", 0.027, 0.027, CollectiveMode.infinite()),
        ("S4", 0.0, 0.0, CollectiveMode.infinite()),
    ]:
        market = MarketParams(mu=mu, r=r, sigma=0.15)
        table = solve(mode, market, vnm_prefs, mt)
        outs[name] = annuity_outperformance(table)
    order_ok = outs["S1"] > outs["S2"] > outs["S3"] > 0.0 and abs(outs["S4"]) <= 1e-10
    imp12 = improvement(0.591, 0.205)
    imp13 = improvement(0.591, 0.013)
    imp_ok = abs(imp12 - 0.32) <= 0.005 and abs(imp13 - 0.57) <= 0.005
    ok = order_ok and imp_ok
    report(
        9, ok,
        "ordering S1>S2>S3>S4=0 with shipped table: "
        + ", ".join(f"{k}={v:.4f}" for k, v in outs.items())
        + f"; improvement ratios of the reference pairs: {imp12:.4f} (~32%), {imp13:.4f} (~57%)"
        + " [magnitudes depend on the mortality table and are informational]",
    )


def test_criterion_10_convergence(default_table, base_market, vnm_prefs):
    grid, mt = default_table
    n_list = [2**k for k in range(11)]  # 1 .. 1024
    t0 = time.perf_counter()
    rep = convergence_study(n_list, base_market, vnm_prefs, mt)
    elapsed = time.perf_counter() - t0
    diffs = np.abs(rep.z_n - rep.z_infinity)
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    bound_ok = all(
        d <= rep.bound_constant * n**-0.5 * (1 + 1e-12)
        for n, d in zip(n_list, diffs)
        if n >= rep.bound_anchor
    )
    slope_ok = rep.fit_exponent <= -0.4
    ok = decreasing and bound_ok and slope_ok and elapsed < 60.0
    report(10, ok, f"strictly decreasing: {decreasing}; root-n bound from n=4: {bound_ok}; "
                   f"fitted slope {rep.fit_exponent:.3f} <= -0.4; {elapsed:.1f} s")


def test_criterion_11_byte_identical_reruns(tmp_path):
    cfg = {
        "market": {"mu": 0.082, "r": 0.047, "sigma": 0.15, "r_CPI": 0.02},
        "preferences": {"alpha": -1.0, "rho": -1.0, "b": 0.0},
        "grid": {"t0": 65, "dt": 1, "T": 95},
        "mortality": {"gompertz": {"a": 0.0, "b": 8.888014533421656e-24, "c": 0.6}},
        "mode": "finite:8",
        "budget": 1.0,
        "simulation": {"paths": 2000, "seed": 7},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    def run(out_dir, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        # the child runs from tmp_path, so a relative PYTHONPATH would not resolve
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
        )
        for cmd in ("solve", "simulate"):
            r = subprocess.run(
                [sys.executable, "-m", "pensionlab.cli", cmd,
                 "--config", str(cfg_path), "--out", str(out_dir)],
                capture_output=True, env=env, cwd=str(tmp_path),
            )
            assert r.returncode == 0, r.stderr.decode()
        return {
            name: (out_dir / name).read_bytes()
            for name in ("value.csv", "meta.csv", "paths_summary.csv")
        }

    first = run(tmp_path / "run1", threads=1)
    second = run(tmp_path / "run2", threads=4)
    third = run(tmp_path / "run3", threads=1)
    same = all(first[k] == second[k] == third[k] for k in first)
    report(11, same, "solve + simulate outputs byte-identical across reruns and "
                     "1 vs 4 thread environments")
