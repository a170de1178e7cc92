import hashlib
import json
import math
import os
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pensionlab import cli, montecarlo, solver
from pensionlab.cli import main, parse_config
from pensionlab.solver import solve

from conftest import run_child_python
from oracle_mixture import log_survivor_mixture_gather

REPO = Path(__file__).resolve().parents[1]

TRIVIAL = {
    "market": {"mu": 0.0, "r": 0.0, "sigma": 0.15},
    "preferences": {"alpha": -1.0, "rho": -1.0, "b": 0.0},
    "grid": {"t0": 0, "dt": 1, "T": 2},
    "mortality": {"gompertz": {"a": 0.0, "b": 0.0, "c": 0.0}},
    "mode": "individual",
    "budget": 1.0,
}

DEFAULTISH = {
    "market": {"mu": 0.082, "r": 0.047, "sigma": 0.15, "r_CPI": 0.02},
    "preferences": {"alpha": -1.0, "rho": -1.0, "b": 0.0},
    "grid": {"t0": 65, "dt": 1, "T": 95},
    "mortality": {"gompertz": {"a": 0.0, "b": 8.888014533421656e-24, "c": 0.6}},
    "mode": "infinite",
    "budget": 100000.0,
    "simulation": {"paths": 400, "seed": 99},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# Goldens of the bundled fund size study written before the value step
# summed each mixture term as A_i + D_(m-i): that moved every gap
# |z_n - z_inf| by at most 3.7e-13 z_inf.  A gap is held to GAP_TOL z_inf,
# so its log moves by at most GAP_TOL / rel_gap, and a quantity fitted to
# the log gaps moves by what its weights make of those.
GAP_TOL = 1e-12


def log_gap_tols(n, rel_gap):
    """The bound on the move of each local exponent (NaN at the first size)
    and of the log of the fit constant, from gaps relative to z_inf."""
    x, tol = np.log(np.asarray(n, dtype=float)), GAP_TOL / np.asarray(rel_gap)
    exponent = np.concatenate(([np.nan], (tol[1:] + tol[:-1]) / np.diff(x)))
    # the intercept of the least-squares line is sum_j w_j log gap_j
    w = 1.0 / x.size - x.mean() * (x - x.mean()) / ((x - x.mean()) ** 2).sum()
    return exponent, float(np.abs(w) @ tol)


class TestSolveCommand:
    def test_two_period_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "value.csv")
        assert header == ["t", "i", "z", "c_star"]
        assert float(rows[0][0]) == 0.0 and rows[0][1] == "1"  # the one-member fund
        assert float(rows[0][2]) == 0.25 and float(rows[0][3]) == 0.5
        assert float(rows[1][2]) == 1.0 and float(rows[1][3]) == 1.0
        mheader, mrows = read_csv(tmp_path / "meta.csv")
        assert mheader == ["a_star", "xi"]
        assert float(mrows[0][0]) == 0.0 and float(mrows[0][1]) == 0.0

    def test_single_member_fund_matches_individual(self, tmp_path):
        # "individual" spells finite:1: every CSV of every command it runs is the same
        p_i = write_cfg(tmp_path, dict(DEFAULTISH, mode="individual"), "i.json")
        p_f = write_cfg(tmp_path, dict(DEFAULTISH, mode="finite:1"), "f.json")
        for command, files in (("solve", ("value.csv", "meta.csv")),
                               ("distribution", ("dist.csv",)),
                               ("simulate", ("paths_summary.csv",))):
            out_i, out_f = tmp_path / f"i-{command}", tmp_path / f"f-{command}"
            assert main([command, "--config", str(p_i), "--out", str(out_i)]) == 0
            assert main([command, "--config", str(p_f), "--out", str(out_f)]) == 0
            for name in files:
                assert (out_i / name).read_bytes() == (out_f / name).read_bytes(), name
        _, rows = read_csv(out_f / "paths_summary.csv")
        assert all(row[-2] != "nan" for row in rows)  # the analytic overlay

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, DEFAULTISH)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "value.csv").read_bytes() == (out2 / "value.csv").read_bytes()
        assert (out1 / "meta.csv").read_bytes() == (out2 / "meta.csv").read_bytes()

    def test_12_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, DEFAULTISH)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "value.csv")
        pat = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")
        assert pat.match(rows[0][2]) and pat.match(rows[0][3])

    def test_largest_fund_table_streams_in_bounded_memory(self, tmp_path):
        # the rows of value.csv were once all held as strings: 173 MiB here
        cfg = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        p = write_cfg(tmp_path, dict(cfg, mode="finite:10000"))
        tracemalloc.start()
        try:
            assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert (tmp_path / "value.csv").read_bytes().count(b"\n") == 1 + 10000 * 30

    # The digests below were taken from the value step that sums each term
    # as A_i + D_(m-i); at these sizes most rows' windows are narrower than
    # the row, and any change of rounding changes the digest.

    def test_finite_table_matches_golden_digest(self):
        raw = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        cfg = parse_config(dict(raw, mode="finite:2048"), REPO / "configs")
        table = solve(cfg.mode, cfg.market, cfg.prefs, cfg.mortality)
        assert hashlib.sha256(table.z.tobytes()).hexdigest() == (
            "d6ff2c9027b98db479fb3fd7675a70714af945a27080f338323fcab112d072ed"
        )
        assert hashlib.sha256(table.cstar.tobytes()).hexdigest() == (
            "4abff651cedbdb79ca6435a3237ed0a53f6c21aa09a7c950971da5d4037d6798"
        )

    def test_finite_table_matches_old_grouping(self, monkeypatch):
        # the value step once summed each term from log m! - log i! on (the
        # gather oracle, bit for bit); summing A_i + D_(m-i) moved z by at
        # most 1.1e-11 and cstar by 5.5e-12 relative here
        raw = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        cfg = parse_config(dict(raw, mode="finite:2048"), REPO / "configs")
        new = solve(cfg.mode, cfg.market, cfg.prefs, cfg.mortality)
        # solve passes every row over its exact window, the gather oracle's
        monkeypatch.setattr(solver, "log_survivor_mixture", lambda logw, s, lgam, alpha, step: (
            log_survivor_mixture_gather(logw, s, lgam, alpha)
        ))
        old = solve(cfg.mode, cfg.market, cfg.prefs, cfg.mortality)
        assert np.allclose(new.z, old.z, rtol=1e-10, atol=0.0)
        assert np.allclose(new.cstar, old.cstar, rtol=1e-10, atol=0.0)

    def test_finite_value_csv_matches_golden_digest(self, tmp_path):
        cfg = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        p = write_cfg(tmp_path, dict(cfg, mode="finite:512"))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "value.csv").read_bytes()).hexdigest() == (
            "c7039853d67438553ed08f0c28cb8dbe94ead09ec4eff1488244c089b104670f"
        )


class TestDistributionCommand:
    def test_roundtrip_full_printed_precision(self, tmp_path):
        cfg = write_cfg(tmp_path, DEFAULTISH)
        assert main(["distribution", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "dist.csv")
        assert header == ["t", "mu_x", "sigma_x", "mu_gamma", "sigma_gamma"]
        for row in rows:
            for cell in row:
                assert f"{float(cell):.11e}" == cell

    @pytest.mark.parametrize("mode, rho", [("finite:3", -1.0), ("finite:5", -1e-300),
                                           ("finite:10000", -1.0)])
    def test_finite_mode_unsupported(self, tmp_path, capsys, monkeypatch, mode, rho):
        # rejected before the solve (at rho = -1e-300 it diverges) and
        # before the output directory is made
        monkeypatch.setattr(cli, "solve", None)
        cfg = write_cfg(tmp_path, dict(DEFAULTISH, mode=mode,
                                       preferences=dict(DEFAULTISH["preferences"], rho=rho)))
        out = tmp_path / "out"
        assert main(["distribution", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: wealth_schedule supports individual and infinite funds only; "
            "a fund of n >= 2 members needs simulation\n"
        )
        assert not out.exists()

    def test_overflowing_wealth_variance_exits_3_without_csv(self, tmp_path, capsys):
        # the one-date solve succeeds; (a* sigma)^2 = 1e310 once escaped as OverflowError
        cfg = write_cfg(tmp_path, dict(
            DEFAULTISH, market={"mu": 1e154, "r": 0.0, "sigma": 10.0},
            preferences={"alpha": 0.99, "rho": -1.0}, grid={"t0": 65, "dt": 1, "T": 66},
        ))
        out = tmp_path / "out"
        assert main(["distribution", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: log wealth per step has drift -inf") and err.count("\n") == 1
        assert list(out.iterdir()) == []


class TestSimulateCommand:
    def test_overlay_and_seed_stability(self, tmp_path):
        cfg = write_cfg(tmp_path, DEFAULTISH)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "paths_summary.csv").read_bytes() == (out2 / "paths_summary.csv").read_bytes()
        header, rows = read_csv(out1 / "paths_summary.csv")
        assert header == [
            "t", "q05", "q25", "q50", "q75", "q95", "mean_log_x", "sd_log_x",
            "mean_log_x_analytic", "sd_log_x_analytic",
        ]
        paths = DEFAULTISH["simulation"]["paths"]
        for row in rows[1:6]:
            mean, sd = float(row[6]), float(row[7])
            mu_ref, sd_ref = float(row[8]), float(row[9])
            assert abs(mean - mu_ref) <= 3.0 * sd_ref / math.sqrt(paths)
            assert abs(sd - sd_ref) <= 3.0 * sd_ref * math.sqrt(0.5 / (paths - 1))

    def test_deterministic_single_path(self, tmp_path):
        cfg = dict(TRIVIAL, simulation={"paths": 1, "seed": 3})
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "paths_summary.csv")
        for row in rows:
            quantiles = {row[1], row[2], row[3], row[4], row[5]}
            assert len(quantiles) == 1  # single path: all quantiles identical

    @pytest.mark.parametrize(
        "mode, golden",
        [
            (None, "paths_summary_default.csv"),
            ("finite:100", "paths_summary_finite100.csv"),
            ("individual", "paths_summary_individual.csv"),
        ],
    )
    def test_bundled_config_matches_golden_output(self, tmp_path, mode, golden):
        # default and finite:100 were written by the per-path chop-down sampler
        # and a summary of recorded paths, individual by a per-call hash chain
        # and partition-based quantiles; the table sampler, the shared step
        # hash and the sorted quantiles must reproduce them byte for byte.
        # finite:100 was re-pinned when the value step began to sum each
        # term as A_i + D_(m-i): its q75 at t = 78 and q05 at t = 91 moved
        # one last digit
        cfg = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        if mode is not None:
            cfg["mode"] = mode
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 0
        gold = Path(__file__).parent / "data" / golden
        assert (tmp_path / "paths_summary.csv").read_bytes() == gold.read_bytes()

    @pytest.mark.parametrize("mode", ["finite:100", "individual", "infinite"])
    def test_small_runs_match_goldens(self, tmp_path, mode):
        # 3,000 paths of configs/default.json, written by a step that drew
        # all its uniforms and growth factors before updating any path, with
        # int64 survivor counts (finite:100 re-pinned from the A_i + D_(m-i)
        # value step: q75 at t = 81 moved one last digit)
        cfg = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        cfg["mode"] = mode
        cfg["simulation"]["paths"] = 3000
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 0
        gold = Path(__file__).parent / "data" / f"paths_summary_3k_{mode.replace(':', '')}.csv"
        assert (tmp_path / "paths_summary.csv").read_bytes() == gold.read_bytes()

    def test_simulate_sorts_once_per_step(self, tmp_path, monkeypatch):
        # the CLI writes no consumption column, so each grid step with alive
        # paths takes one quantile call (one sort), of wealth; the bundled
        # 100k paths keep the finite:100 golden comparable
        calls = []

        def counting(values, probs, **kwargs):
            calls.append(values.size)
            return quantiles(values, probs, **kwargs)

        quantiles = montecarlo._quantiles
        monkeypatch.setattr(montecarlo, "_quantiles", counting)
        cfg = json.loads((REPO / "configs" / "default.json").read_text(encoding="utf-8"))
        cfg["mode"] = "finite:100"
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 0
        gold = Path(__file__).parent / "data" / "paths_summary_finite100.csv"
        assert (tmp_path / "paths_summary.csv").read_bytes() == gold.read_bytes()
        _, rows = read_csv(gold)
        alive_steps = sum(row[3] != "nan" for row in rows)
        assert alive_steps > 0 and len(calls) == alive_steps

    @pytest.mark.parametrize(
        "command, config, goldens",
        [
            ("solve", "default.json", {"value.csv": "value_default.csv", "meta.csv": "meta_default.csv"}),
            ("distribution", "default.json", {"dist.csv": "dist_default.csv"}),
            (
                "scenarios", "studies.json",
                {
                    "scenarios.csv": "scenarios_studies_logspace.csv",
                    "improvements.csv": "improvements_studies_logspace.csv",
                },
            ),
            (
                "converge", "studies.json",
                {
                    "convergence.csv": "convergence_studies_logspace.csv",
                    "fund_size.csv": "fund_size_studies.csv",
                },
            ),
        ],
    )
    def test_bundled_config_matches_golden_csvs(self, tmp_path, capsys, command, config, goldens):
        # written by the per-cell formatter that built each row as a list of
        # strings; the column writer must reproduce every byte.  The
        # *_logspace goldens and fund_size_studies.csv pin the pooled solve's
        # closed-form sum in log space; the converge ones were re-pinned when
        # the value step began to sum each term as A_i + D_(m-i).
        p = REPO / "configs" / config
        assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 0
        for name, golden in goldens.items():
            gold = Path(__file__).parent / "data" / golden
            assert (tmp_path / name).read_bytes() == gold.read_bytes(), name
        if command == "converge":
            fit = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fit:")]
            gold = Path(__file__).parent / "data" / "converge_fit_studies_logspace.txt"
            assert fit == gold.read_text(encoding="utf-8").splitlines()

    def test_studies_match_linear_recursion_goldens(self, tmp_path, capsys):
        # scenarios_studies.csv, improvements_studies.csv,
        # convergence_studies_exact.csv and converge_fit_studies.txt were
        # written when pooled solve ran the linear recursion in y; its
        # log-space form rounds differently, by at most 2.1e-11 relative on
        # a gap z_inf - z_n and 3.8e-12 on any other number.  Scenario 4's
        # outperformance is a rounding of 0 and is held to 1e-15 absolute.
        # The gaps are held to GAP_TOL z_inf (see above), and a printed z_n
        # may move one last digit, 3.2e-12 of it
        config = REPO / "configs" / "studies.json"
        assert main(["scenarios", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert main(["converge", "--config", str(config), "--out", str(tmp_path)]) == 0
        data = Path(__file__).parent / "data"
        number = r"-?\d\.\d+e[-+]\d+"
        gold_fit = (data / "converge_fit_studies.txt").read_text(encoding="utf-8").splitlines()
        z_inf = float(re.findall(number, gold_fit[0])[-1])

        def close(new, old, rel, abs_tol=0.0):
            return math.isclose(float(new), float(old), rel_tol=rel, abs_tol=abs_tol)

        # (file, golden, exact columns, {column: (relative, absolute tolerance)})
        for name, golden, exact, tols in [
            ("scenarios.csv", "scenarios_studies.csv", 4, {4: (1e-11, 1e-15)}),
            ("improvements.csv", "improvements_studies.csv", 2, {2: (1e-11, 0.0)}),
            ("convergence.csv", "convergence_studies_exact.csv", 1,
             {1: (1e-11, 0.0), 2: (0.0, GAP_TOL * z_inf), 3: (1e-10, 0.0)}),
        ]:
            header, rows = read_csv(tmp_path / name)
            gold_header, gold = read_csv(data / golden)
            assert header == gold_header and len(rows) == len(gold), name
            for row, ref in zip(rows, gold):
                assert row[:exact] == ref[:exact], name
                for col, tol in tols.items():
                    assert close(row[col], ref[col], *tol), (name, row, ref)

        fit = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fit:")]
        assert len(fit) == len(gold_fit) == 1
        assert re.sub(number, "#", fit[0]) == re.sub(number, "#", gold_fit[0])
        _, gold = read_csv(data / "convergence_studies_exact.csv")
        _, fit_tol = log_gap_tols([row[0] for row in gold],
                                  [float(row[2]) / z_inf for row in gold])
        # fit constant, bound constant (a gap at the anchor), z_inf
        for new, old, tol in zip(re.findall(number, fit[0]), re.findall(number, gold_fit[0]),
                                 (1e-11 + fit_tol, 1e-10, 1e-11)):
            assert close(new, old, tol), (new, old)

    def test_fund_size_matches_stepwise_golden(self, tmp_path):
        # fund_size_studies_stepwise.csv was written when pooled solve stepped
        # through the dates one by one in log space; the closed-form sum moves
        # the last digits of rel_gap and local_exponent only, by 1e-10
        # relative.  rel_gap is a gap over z_inf, held to GAP_TOL absolute,
        # and local_exponent to what that makes of its two log gaps
        config = REPO / "configs" / "studies.json"
        assert main(["converge", "--config", str(config), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fund_size.csv")
        gold_header, gold = read_csv(
            Path(__file__).parent / "data" / "fund_size_studies_stepwise.csv"
        )
        assert header == gold_header and len(rows) == len(gold)
        exponent_tol, _ = log_gap_tols([ref[0] for ref in gold], [float(ref[3]) for ref in gold])
        for row, ref, exp_tol in zip(rows, gold, exponent_tol):
            assert row[0] == ref[0]
            for new, old, abs_tol in zip(row[1:], ref[1:], (0.0, 0.0, GAP_TOL, exp_tol)):
                same = new == old  # also the first row's nan exponent
                assert same or math.isclose(float(new), float(old), rel_tol=1e-10,
                                            abs_tol=abs_tol), (row, ref)

    def test_simulation_block_required(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestScenariosCommand:
    def test_scenario_table(self, tmp_path):
        cfg = dict(DEFAULTISH)
        cfg["scenarios"] = [
            {"id": "1", "mu": 0.062, "r": 0.027, "n": "infinite"},
            {"id": "2", "mu": 0.062, "r": 0.027, "n": 1},
            {"id": "3", "mu": 0.027, "r": 0.027, "n": "infinite"},
            {"id": "4", "mu": 0.0, "r": 0.0, "n": "infinite"},
        ]
        p = write_cfg(tmp_path, cfg)
        assert main(["scenarios", "--config", str(p), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "scenarios.csv")
        assert header == ["scenario", "mu", "r", "n", "outperformance"]
        outs = {row[0]: float(row[4]) for row in rows}
        assert outs["1"] > outs["2"] > outs["3"] > -1e-10
        assert abs(outs["4"]) <= 1e-10
        assert rows[0][3] == "inf" and rows[1][3] == "1"
        iheader, irows = read_csv(tmp_path / "improvements.csv")
        assert iheader == ["scenario_a", "scenario_b", "improvement"]
        got = {(a, b): float(v) for a, b, v in irows}
        assert got[("1", "2")] == pytest.approx(
            (1 + outs["1"]) / (1 + outs["2"]) - 1, rel=1e-12
        )
        assert len(irows) == 12

    def test_improvements_in_bounded_memory(self, tmp_path):
        # one Python tuple of report objects per ordered pair peaked at 13 MiB
        # here, and all k(k-1) rows formed at once at 6.3 MiB; a block of
        # scenario_a rows at a time peaks at 1.5 MiB
        sizes = ["infinite", 1, "infinite", "infinite"]
        cfg = dict(DEFAULTISH, scenarios=[
            {"id": str(k), "mu": 0.02 + 5e-5 * k, "r": 0.01 + 2e-5 * k, "n": sizes[k % 4]}
            for k in range(300)
        ])
        p = write_cfg(tmp_path, cfg)
        tracemalloc.start()
        try:
            assert main(["scenarios", "--config", str(p), "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"
        assert (tmp_path / "improvements.csv").read_bytes().count(b"\n") == 1 + 300 * 299

    def test_improvements_in_blocks_match_golden(self, tmp_path, monkeypatch):
        # one row per write and two scenario_a rows per block of pairs
        monkeypatch.setattr("pensionlab.cli._BLOCK_ROWS", 1)
        p = REPO / "configs" / "studies.json"
        assert main(["scenarios", "--config", str(p), "--out", str(tmp_path)]) == 0
        gold = Path(__file__).parent / "data" / "improvements_studies_logspace.csv"
        assert (tmp_path / "improvements.csv").read_bytes() == gold.read_bytes()

    def test_overflowing_annuity_price_exits_3_without_csv(self, tmp_path, capsys):
        # exp(800 k) overflows the annuity price: the run once leaked numpy's
        # RuntimeWarning, wrote inf outperformances and improvements, and exited 0
        cfg = dict(DEFAULTISH, scenarios=[
            {"id": "1", "mu": 0.062, "r": 0.027, "n": "infinite"},
            {"id": "a", "mu": 0.0, "r": -800.0, "n": "infinite"},
        ])
        p = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["scenarios", "--config", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: annuity price inf is not finite at r = -800.0\n"
        assert list(out.iterdir()) == []

    def test_scenarios_required(self, tmp_path):
        p = write_cfg(tmp_path, DEFAULTISH)
        assert main(["scenarios", "--config", str(p), "--out", str(tmp_path)]) == 2

    # each was once written unquoted: rows of 5, 6, 5, 1 and 5 fields, or two
    # contradictory "a,b" rows in improvements.csv for a repeated id
    @pytest.mark.parametrize(
        "ids",
        [["eq,uity", "b"], [{"k": 1}, "b"], ["line\nbreak", "b"], ["cr\rx", "b"],
         ['quo"te', "b"], ["", "b"], [7, "b"], [None, "b"], ["a", "a"]],
        ids=["comma", "object", "lf", "cr", "quote", "empty", "number", "null", "repeated"],
    )
    def test_bad_scenario_id_exits_2_before_output(self, tmp_path, capsys, ids):
        cfg = dict(DEFAULTISH, scenarios=[
            {"id": sid, "mu": 0.062, "r": 0.027, "n": "infinite"} for sid in ids
        ])
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["scenarios", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: scenarios[")
        assert not out.exists()


class TestConvergeCommand:
    def test_bound_column(self, tmp_path, capsys):
        cfg = dict(DEFAULTISH)
        cfg["n_list"] = [1, 2, 4, 8, 16, 32, 64]
        p = write_cfg(tmp_path, cfg)
        assert main(["converge", "--config", str(p), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["n", "z_n", "abs_diff", "bound"]
        diffs = [float(row[2]) for row in rows]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        for row in rows:
            if int(row[0]) >= 4:
                assert float(row[2]) <= float(row[3]) * (1 + 1e-12)
        assert "fit:" in capsys.readouterr().out

    def test_n_list_required(self, tmp_path):
        p = write_cfg(tmp_path, DEFAULTISH)
        assert main(["converge", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("change", [
        # z_n = z_inf at every n: the fit once read nan with exit 0
        {"n_list": [1, 10, 100], "grid": {"t0": 65, "dt": 1, "T": 66}},
        {"n_list": [1, 10, 100], "grid": {"t0": 65, "dt": 1, "T": 68},
         "mortality": {"gompertz": {"a": 0.0, "b": 0.0, "c": 0.0}},
         "market": {"mu": 0.05, "r": 0.02, "sigma": 0.15}},
        # z_n and z_inf differ by 4.16e-17, rounding: the fit once read
        # ~ 4.16e-17 * n^-0.0000 with exit 0
        {"n_list": [1, 10, 100], "grid": {"t0": 65, "dt": 1, "T": 68},
         "mortality": {"gompertz": {"a": 0.0, "b": 0.0, "c": 0.0}}},
    ], ids=["one-grid-point", "zero-hazard", "rounding-gap"])
    def test_rejected_study_exits_2_without_csv(self, tmp_path, capsys, change):
        # rejected after the output directory is made, so not a MALFORMED entry
        p = write_cfg(tmp_path, dict(DEFAULTISH, **change))
        out = tmp_path / "out"
        assert main(["converge", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []

    def test_bundled_study_matches_full_triangle_output(self, tmp_path):
        # tests/data/convergence_studies.csv was written by the full-triangle
        # (unwindowed) value step that summed each term from log m! - log i!
        # on; a printed z_n may move one last digit, 3.2e-12 of it, and the
        # gaps are held to GAP_TOL of the largest z_n, within 3e-4 of z_inf
        config = REPO / "configs" / "studies.json"
        assert main(["converge", "--config", str(config), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "convergence.csv")
        gold_header, gold = read_csv(Path(__file__).parent / "data" / "convergence_studies.csv")
        assert header == gold_header
        assert [row[0] for row in rows] == [row[0] for row in gold]
        scale = max(float(row[1]) for row in gold)
        for row, ref in zip(rows, gold):
            assert math.isclose(float(row[1]), float(ref[1]), rel_tol=1e-11)
            for col in (2, 3):
                assert abs(float(row[col]) - float(ref[col])) <= GAP_TOL * scale


MARKET = TRIVIAL["market"]

# each case once ended in a traceback (exit 1), was silently truncated, was
# accepted with no bound on the memory it asks for, or runs one of
# parse_config's rejection branches
MALFORMED = {
    "n_list-not-a-list": {"n_list": 5},
    "n_list-entry-string": {"n_list": ["a"]},
    "n_list-entry-fraction": {"n_list": [4.5, 64]},
    "paths-string": {"simulation": {"paths": "x", "seed": 1}},
    "paths-fraction": {"simulation": {"paths": 2.7, "seed": 1}},
    "mu-string": {"market": dict(MARKET, mu="abc")},
    "mu-null": {"market": dict(MARKET, mu=None)},
    "sigma-boolean": {"market": dict(MARKET, sigma=True)},
    "r_CPI-string": {"market": dict(MARKET, r_CPI="x")},
    "alpha-string": {"preferences": {"alpha": "x", "rho": -1.0}},
    "preferences-not-an-object": {"preferences": [-1.0, -1.0]},
    "budget-string": {"budget": "x"},
    "budget-nan": {"budget": float("nan")},
    "scenarios-not-a-list": {"scenarios": 5},
    "scenario-not-an-object": {"scenarios": ["base"]},
    "mortality-csv-missing": {"mortality": {"csv": "missing.csv"}},
    "mortality-csv-not-a-name": {"mortality": {"csv": 5}},
    "output-not-a-name": {"output": 5},
    "output-nul-byte": {"output": "a\0b"},
    "mortality-csv-nul-byte": {"mortality": {"csv": "a\0b"}},
    "paths-over-cap": {"simulation": {"paths": 10**15, "seed": 1}},
    # each once passed parse_config and failed in simulate, after the solve
    "paths-zero": {"simulation": {"paths": 0, "seed": 1}},
    "paths-negative": {"simulation": {"paths": -3, "seed": 1}},
    "grid-points-over-cap": {"grid": {"t0": 0, "dt": 1e-12, "T": 1e6}},
    "grid-steps-not-finite": {"grid": {"t0": 0, "dt": 5e-324, "T": 30}},
    "mode-over-cell-cap": {"mode": "finite:10000", "grid": {"t0": 0, "dt": 1, "T": 1000}},
    "n_list-over-cell-cap": {"n_list": [1, 10000], "grid": {"t0": 0, "dt": 0.001, "T": 1}},
    "gompertz-hazard-overflows": {"mortality": {"gompertz": {"a": 0.0, "b": 1.0, "c": 800.0}}},
    "scenarios-over-cap": {
        "scenarios": [{"id": f"s{i}", "mu": 0.0, "r": 0.0, "n": 1} for i in range(1001)],
    },
    "budget-zero": {"budget": 0},
    "budget-negative": {"budget": -1},
    "mortality-both-sources": {"mortality": {"csv": "m.csv", **TRIVIAL["mortality"]}},
    "mortality-no-source": {"mortality": {}},
    # each was once taken as no age at all: the table was read from t0
    "age_at_t0-null": {"mortality": {"csv": "mort.csv", "age_at_t0": None}},
    "age_at_t0-beside-gompertz": {"mortality": {**TRIVIAL["mortality"], "age_at_t0": 70}},
    "mode-unknown": {"mode": "pooled"},
    "mode-number": {"mode": 5},
    "mode-finite-not-a-number": {"mode": "finite:x"},
    "mode-finite-zero": {"mode": "finite:0"},
    # int() reads each of these as a size; the strict config does not
    "mode-finite-inner-space": {"mode": "finite: 5"},
    "mode-finite-trailing-space": {"mode": "finite:5 "},
    "mode-finite-plus-sign": {"mode": "finite:+5"},
    "mode-finite-leading-zero": {"mode": "finite:05"},
    "mode-finite-underscore": {"mode": "finite:1_0"},
    "mode-finite-fullwidth-digit": {"mode": "finite:\uff15"},
    "mode-finite-arabic-indic-digit": {"mode": "finite:\u0663"},
    "mode-finite-over-cap": {"mode": "finite:10001"},
    "scenario-n-zero": {"scenarios": [{"id": "a", "mu": 0.0, "r": 0.0, "n": 0}]},
    # every fund size is a CollectiveMode size, checked for every command
    "n_list-entry-zero": {"n_list": [0, 10, 100]},
    "n_list-entry-over-cap": {"n_list": [1, 10001]},  # 20,002 cells: under the cell cap
    # a study's sizes are checked as the config is parsed, before any directory is made
    "n_list-repeated": {"n_list": [1, 10, 10]},
    "n_list-under-a-decade": {"n_list": [2, 4, 8]},
    "n_list-decreasing": {"n_list": [100, 10, 1]},
    "scenario-n-over-cap": {"scenarios": [{"id": "a", "mu": 0.0, "r": 0.0, "n": 10001}]},
}


class TestConfigHandling:
    @pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_config_exits_2_with_error_line(self, tmp_path, capsys, change):
        p = write_cfg(tmp_path, dict(TRIVIAL, **change))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("case, where", [
        ("mode-finite-zero", "mode: "),
        ("mode-finite-over-cap", "mode: "),
        ("scenario-n-zero", "scenarios[0].n: "),
        ("scenario-n-over-cap", "scenarios[0].n: "),
        ("n_list-entry-zero", "n_list[0]: "),
        ("n_list-entry-over-cap", "n_list[1]: "),
        ("n_list-entry-fraction", "n_list[0] must be an integer"),
        ("n_list-repeated", "n_list: fund sizes must be strictly increasing"),
        ("n_list-under-a-decade", "n_list: fund sizes should span at least a decade"),
        ("n_list-decreasing", "n_list: fund sizes must be strictly increasing"),
    ])
    def test_bad_fund_size_error_names_its_field(self, tmp_path, capsys, case, where):
        # the size's own error, headed by the config field that holds it
        p = write_cfg(tmp_path, dict(TRIVIAL, **MALFORMED[case]))
        assert main(["solve", "--config", str(p), "--print-config"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")

    def test_huge_json_integer_is_not_a_finite_number(self, tmp_path, capsys):
        # 10**400 parses as an exact int; as a float it would overflow
        huge = 10**400
        p = write_cfg(tmp_path, dict(TRIVIAL, market=dict(MARKET, mu=huge)))
        assert main(["solve", "--config", str(p), "--print-config"]) == 2
        assert capsys.readouterr().err == f"error: market.mu must be a finite number, got {huge}\n"

    def test_print_config_roundtrip(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DEFAULTISH)
        assert main(["solve", "--config", str(p), "--print-config"]) == 0
        echoed = capsys.readouterr().out
        again = parse_config(json.loads(echoed), tmp_path)
        original = parse_config(json.loads(p.read_text()), tmp_path)
        assert again.market == original.market
        assert again.prefs == original.prefs
        assert again.mortality.grid == original.mortality.grid
        assert again.mode == original.mode
        assert np.array_equal(again.mortality.p, original.mortality.p)

    def test_unknown_keys_rejected(self, tmp_path):
        bad = dict(TRIVIAL)
        bad["budgett"] = 2.0
        p = write_cfg(tmp_path, bad)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
        bad2 = dict(TRIVIAL, market={"mu": 0.0, "r": 0.0, "sigma": 0.15, "vol": 1})
        p2 = write_cfg(tmp_path, bad2, "b2.json")
        assert main(["solve", "--config", str(p2), "--out", str(tmp_path)]) == 2

    def test_inflation_adjustment(self, tmp_path):
        p = write_cfg(tmp_path, DEFAULTISH)
        cfg = parse_config(json.loads(p.read_text()), tmp_path)
        assert cfg.market.mu == pytest.approx(0.062)
        assert cfg.market.r == pytest.approx(0.027)

    def test_csv_mortality_source(self, tmp_path):
        (tmp_path / "mort.csv").write_text(
            "age,qx\n" + "".join(f"{a},0.1\n" for a in range(65, 95)), encoding="utf-8"
        )
        cfg = dict(DEFAULTISH, mortality={"csv": "mort.csv"})
        p = write_cfg(tmp_path, cfg)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("case", ["age_at_t0-null", "age_at_t0-beside-gompertz"])
    def test_unread_age_at_t0_is_rejected(self, tmp_path, capsys, case):
        (tmp_path / "mort.csv").write_text("age,qx\n0,0.1\n", encoding="utf-8")
        p = write_cfg(tmp_path, dict(TRIVIAL, **MALFORMED[case]))
        assert main(["solve", "--config", str(p), "--print-config"]) == 2
        assert capsys.readouterr().err.startswith("error: mortality.age_at_t0 ")

    @pytest.mark.parametrize("case", ["paths-zero", "paths-negative"])
    def test_no_paths_is_rejected_by_its_field(self, tmp_path, capsys, case):
        p = write_cfg(tmp_path, dict(TRIVIAL, **MALFORMED[case]))
        assert main(["simulate", "--config", str(p), "--print-config"]) == 2
        assert capsys.readouterr().err.startswith("error: simulation.paths must be >= 1")

    @pytest.mark.parametrize("age", [1.7e308, -1.7e308])
    def test_csv_mortality_at_far_ages_exits_2_quickly(self, tmp_path, capsys, age):
        # once stepped through every integer age past 2^53, never finishing
        (tmp_path / "mort.csv").write_text("age,qx\n65,0.1\n", encoding="utf-8")
        cfg = dict(TRIVIAL, mortality={"csv": "mort.csv", "age_at_t0": age},
                   grid={"t0": 0, "dt": 1e307, "T": 1e308})
        p = write_cfg(tmp_path, cfg)
        start = time.perf_counter()
        assert main(["solve", "--config", str(p), "--print-config"]) == 2
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, config",
        [("simulate", "studies.json"), ("scenarios", "default.json"), ("converge", "default.json")],
    )
    def test_missing_command_block_leaves_no_output_dir(self, tmp_path, capsys, command, config):
        out = tmp_path / "out"
        assert main([command, "--config", str(REPO / "configs" / config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: the {command} command needs ")
        assert not out.exists()

    def test_missing_file_and_bad_json(self, tmp_path, capsys):
        good = write_cfg(tmp_path, TRIVIAL)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"mode": "individu\xe9"}')
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        a_file = tmp_path / "a_file"
        a_file.write_text("", encoding="utf-8")
        for args in (
            ["--config", str(tmp_path / "nope.json")],
            ["--config", str(bad)],
            ["--config", str(latin1)],
            ["--config", str(deep)],
            ["--config", str(tmp_path)],
            ["--config", str(good), "--out", str(a_file)],
            ["--config", str(good), "--out", str(a_file / "below")],
        ):
            assert main(["solve"] + args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err

    def test_unwritable_csv_exits_2(self, tmp_path, capsys):
        # value.csv is a directory, so opening it for writing fails
        good = write_cfg(tmp_path, TRIVIAL)
        (tmp_path / "value.csv").mkdir()
        assert main(["solve", "--config", str(good), "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot write {tmp_path / 'value.csv'}: "), line

    @pytest.mark.parametrize("mode", ["finite:zero"] + [
        MALFORMED[case]["mode"] for case in (
            "mode-finite-not-a-number", "mode-finite-inner-space", "mode-finite-trailing-space",
            "mode-finite-plus-sign", "mode-finite-leading-zero", "mode-finite-underscore",
            "mode-finite-fullwidth-digit", "mode-finite-arabic-indic-digit",
        )
    ])
    def test_bad_mode_string(self, tmp_path, capsys, mode):
        # after "finite:" only ASCII digits, without a leading zero
        p = write_cfg(tmp_path, dict(TRIVIAL, mode=mode))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: bad finite mode string {mode!r}\n"

    def test_finite_mode_past_the_digit_limit_is_an_error_line(self, tmp_path, capsys):
        # int() may refuse a string of more than 4300 digits with a ValueError
        p = write_cfg(tmp_path, dict(TRIVIAL, mode="finite:" + "9" * 5000))
        assert main(["solve", "--config", str(p), "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode, message", [
        ("finite:10001", "exceeds the supported cap 10000"),
        ("finite:0", "must be an integer >= 1, got 0"),
    ])
    def test_finite_mode_error_keeps_its_message(self, tmp_path, capsys, mode, message):
        # the size's own error, not "bad finite mode string"
        p = write_cfg(tmp_path, dict(TRIVIAL, mode=mode))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        cfg = {
            "market": {"mu": 10.0, "r": 10.0, "sigma": 0.2},
            "preferences": {"alpha": 0.5, "rho": 0.5, "b": 0.0},
            "grid": {"t0": 0, "dt": 1, "T": 200},
            "mortality": {"gompertz": {"a": 0.0, "b": 0.0, "c": 0.0}},
            "mode": "individual",
            "budget": 1.0,
        }
        p = write_cfg(tmp_path, cfg)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 3


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc/self/task; needs two CPUs")
@pytest.mark.parametrize("env, tasks", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["unset", "explicit-2"])
def test_cli_starts_no_blas_worker_unless_asked(env, tasks):
    # OpenBLAS starts a worker per core when numpy loads; the CLI asks for
    # none, and an explicit setting still wins
    code = "import os, pensionlab.cli; print(len(os.listdir('/proc/self/task')))"
    assert int(run_child_python(code, **env)) == tasks


class TestStudiesAtExtremePreferences:
    """configs/studies.json with its preferences swapped for exponents at
    which a linear-space annuity recursion leaves the floating-point range."""

    def run(self, tmp_path, command, prefs):
        cfg = json.loads((REPO / "configs" / "studies.json").read_text(encoding="utf-8"))
        cfg["preferences"] = prefs
        p = write_cfg(tmp_path, cfg)
        return main([command, "--config", str(p), "--out", str(tmp_path / "out")])

    def test_overflowing_annuity_recursion_gives_finite_outperformance(self, tmp_path):
        # U^rho overflows at rho = -7: a linear loop returned U = 0 and
        # wrote inf for every outperformance
        prefs = {"alpha": 0.3, "rho": -7.0, "b": 0.0}
        assert self.run(tmp_path, "scenarios", prefs) == 0
        assert self.run(tmp_path, "converge", prefs) == 0
        for name, column in (("scenarios.csv", 4), ("improvements.csv", 2), ("fund_size.csv", 2)):
            _, rows = read_csv(tmp_path / "out" / name)
            assert rows and all(math.isfinite(float(row[column])) for row in rows), name

    @pytest.mark.parametrize("command", ["scenarios", "converge"])
    def test_zero_annuity_utility_exits_3(self, tmp_path, capsys, command):
        # the infinite fund solves (z about 2e-314), but U(1) underflows to 0
        prefs = {"alpha": 0.06001, "rho": -5.748, "b": 0.02}
        assert self.run(tmp_path, command, prefs) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _slots(node, path=()):
    """Key path of every value in a parsed JSON config, blocks and list entries included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([-1, 0, 10**6, 10**9, 10**15, 2**63, 10**30, 1e308, -1e308, 5e-324, -0.0]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@st.composite
def mutated_configs(draw):
    """A bundled config with one to three mutations: a value of any JSON type
    (NaN, infinities, huge and negative counts included), a deleted key or list
    entry, an unknown key, a tiny grid step, or CSV mortality (``mort.csv``)
    at any ``age_at_t0`` on a grid of huge steps."""
    name = draw(st.sampled_from(["default.json", "studies.json"]))
    cfg = json.loads((REPO / "configs" / name).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "delete", "add", "tiny-dt", "csv-mortality"]))
        if kind == "tiny-dt":
            dt = draw(st.one_of(
                st.integers(1, 10**13).map(lambda k: 30.0 / k),
                st.floats(min_value=5e-324, max_value=1e-3),
            ))
            cfg["grid"] = {"t0": 65, "dt": dt, "T": 95}
            continue
        if kind == "csv-mortality":
            age = draw(st.one_of(st.sampled_from([65, 1.7e308, -1.7e308, 2.0**53]), JSON_VALUES))
            cfg["mortality"] = {"csv": "mort.csv", "age_at_t0": age}
            dt = draw(st.floats(min_value=1.0, max_value=1e307))
            cfg["grid"] = {"t0": 0, "dt": dt, "T": 10 * dt}
            continue
        if kind == "add":
            blocks = [()] + [p for p in _slots(cfg) if isinstance(_at(cfg, p), dict)]
            block = _at(cfg, draw(st.sampled_from(blocks)))
            block[draw(st.text(min_size=1, max_size=4))] = draw(JSON_VALUES)
            continue
        path = draw(st.sampled_from(list(_slots(cfg))))
        parent = _at(cfg, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return cfg


ZERO_HAZARD_STUDY = {  # z_n equals z_inf to the bit at every n
    "market": {"mu": 0.05, "r": 0.02, "sigma": 0.15},
    "preferences": {"alpha": -1.0, "rho": -1.0, "b": 0.0},
    "grid": {"t0": 65, "dt": 1, "T": 68},
    "mortality": {"gompertz": {"a": 0.0, "b": 0.0, "c": 0.0}},
    "mode": "infinite",
    "budget": 1.0,
    "n_list": [1, 10, 16],
}


# values at the ends of the float range, as (block, key, value), None being the
# top level: each once ended in a traceback, leaked numpy's warnings, or
# wrote NaN with exit 0
EXTREME_VALUES = [
    ("preferences", "b", 800.0),
    ("market", "sigma", 1e-300),
    ("market", "sigma", 1e-100),
    ("market", "sigma", 1e160),
    ("market", "mu", 1e300),
    (None, "budget", 1e308),
    ("preferences", "alpha", 0.9999999999999999),
]


def _with(cfg, *values):
    """A copy of ``cfg`` with each (block, key, value) of ``values`` set."""
    cfg = json.loads(json.dumps(cfg))
    for block, key, value in values:
        (cfg if block is None else cfg[block])[key] = value
    return cfg


SMALL = {  # the bundled market, preferences and table, with every command's block
    **DEFAULTISH,
    "budget": 1.0,
    "simulation": {"paths": 64, "seed": 0},
    "scenarios": [
        {"id": "a", "mu": 0.062, "r": 0.027, "n": "infinite"},
        {"id": "b", "mu": 0.027, "r": 0.027, "n": 3},
    ],
    "n_list": [1, 10, 16],
}


class TestFloatRangeConfigs:
    # (values set on SMALL, exit code, start of the one error line) per
    # command; a command that does not read a value exits 0 with it
    CASES = {
        "b-800": ([("preferences", "b", 800.0)], 2, "discount rate b = 800.0 underflows"),
        "sigma-1e160": ([("market", "sigma", 1e160)], 2, "sigma^2 must be a normal float"),
        "sigma-1e-300": ([("market", "sigma", 1e-300)], 2, "sigma^2 must be a normal float"),
        "alpha-near-1-sigma-1e-154": (
            [("preferences", "alpha", 0.9999999999999999), ("market", "sigma", 1e-154)],
            2, "sigma^2 must be a normal float",
        ),
        "alpha-near-1-sigma-1e-150": (
            [("preferences", "alpha", 0.9999999999999999), ("market", "sigma", 1e-150)],
            2, "the risk term (1 - alpha) sigma^2 underflows",
        ),
        "sigma-1e-100": ([("market", "sigma", 1e-100)], 3, "growth exponent xi = -inf"),
        "mu-1e300": ([("market", "mu", 1e300)], 3, "growth exponent xi = nan"),
        "budget-1e308": ([(None, "budget", 1e308)], 3, "simulated wealth overflowed"),
    }
    # scenarios read their own mu, and only simulate spends the budget
    UNREAD = {("mu-1e300", "scenarios")} | {
        ("budget-1e308", c) for c in ("solve", "distribution", "scenarios", "converge")
    }
    # the values a solve rejects: distribution rejects a fund of n >= 2 before it
    SOLVED = {"b-800", "alpha-near-1-sigma-1e-150", "sigma-1e-100", "mu-1e300"}

    @pytest.mark.parametrize("mode", ["infinite", "individual", "finite:3"])
    @pytest.mark.parametrize("command", ["solve", "distribution", "simulate", "scenarios", "converge"])
    @pytest.mark.parametrize("case", CASES)
    def test_exits_with_one_error_line_and_no_csv(self, tmp_path, capsys, case, command, mode):
        # a warning escaping main fails the test, as does a traceback
        values, code, message = self.CASES[case]
        cfg = _with(SMALL, *values, (None, "mode", mode))
        out = tmp_path / "out"
        got = main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)])
        err = capsys.readouterr().err
        if (case, command) in self.UNREAD:
            assert got in (0, 2) and (got == 0 or "n >= 2" in err), err
            return
        if (command, mode) == ("distribution", "finite:3") and case in self.SOLVED:
            code, message = 2, "wealth_schedule supports individual and infinite funds only"
        assert (got, err.count("\n")) == (code, 1), err
        assert err.startswith(f"error: {message}"), err
        assert list(out.glob("*.csv")) == []


@st.composite
def small_valid_configs(draw):
    """A valid config that every command runs in milliseconds: 1 to 40 annual
    grid points, Gompertz-Makeham parameters that may each be 0, any mode
    with at most 32 members, at most 64 paths, two scenarios and the fund
    sizes n, 10n and 16n; and in one example in three, one or two
    ``EXTREME_VALUES``."""
    size = st.integers(1, 32)
    mode = draw(st.sampled_from(["individual", "infinite"]) | size.map(lambda n: f"finite:{n}"))
    n = draw(st.integers(1, 4))
    count = draw(st.sampled_from([0] * 6 + [1, 1, 2]))  # two in three keep ordinary magnitudes
    extremes = [draw(st.sampled_from(EXTREME_VALUES)) for _ in range(count)]
    return _with({
        "market": {"mu": draw(st.sampled_from([0.0, 0.062, 0.082])), "r": 0.047,
                   "sigma": 0.15, "r_CPI": 0.02},
        "preferences": {"alpha": draw(st.sampled_from([-3.0, -1.0, 0.5])),
                        "rho": draw(st.sampled_from([-1.0, -0.5, 0.5])),
                        "b": draw(st.sampled_from([0.0, 0.02]))},
        "grid": {"t0": 65, "dt": 1, "T": 65 + draw(st.integers(1, 40))},
        "mortality": {"gompertz": {
            "a": draw(st.sampled_from([0.0, 1e-3, 0.05])),
            "b": draw(st.sampled_from([0.0, 8.888014533421656e-24, 1e-5])),
            "c": draw(st.sampled_from([0.0, 0.1, 0.6])),
        }},
        "mode": mode,
        "budget": 1.0,
        "simulation": {"paths": draw(st.integers(1, 64)), "seed": draw(st.integers(0, 2**63 - 1))},
        "scenarios": [
            {"id": "a", "mu": 0.062, "r": 0.027, "n": "infinite"},
            {"id": "b", "mu": 0.027, "r": 0.027, "n": draw(size)},
        ],
        "n_list": [n, 10 * n, 16 * n],
    }, *extremes)


class TestConfigFuzz:
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cfg=small_valid_configs(),
        command=st.sampled_from(["solve", "distribution", "simulate", "scenarios", "converge"]),
    )
    @example(cfg=ZERO_HAZARD_STUDY, command="converge")  # once a nan fit with exit 0
    # each of EXTREME_VALUES once ended in a traceback, a warning or NaN with exit 0
    @example(cfg=_with(SMALL, EXTREME_VALUES[0]), command="solve")
    @example(cfg=_with(SMALL, EXTREME_VALUES[1]), command="distribution")
    @example(cfg=_with(SMALL, EXTREME_VALUES[2]), command="solve")
    @example(cfg=_with(SMALL, EXTREME_VALUES[3]), command="scenarios")
    @example(cfg=_with(SMALL, EXTREME_VALUES[4]), command="simulate")
    @example(cfg=_with(SMALL, EXTREME_VALUES[5]), command="simulate")
    @example(cfg=_with(SMALL, EXTREME_VALUES[6], ("market", "sigma", 1e-154)), command="converge")
    def test_small_valid_config_runs_every_command(self, tmp_path, capsys, cfg, command):
        # a warning escaping main fails the example, as does a traceback
        p = write_cfg(tmp_path, cfg)
        code = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cfg=mutated_configs(),
        command=st.sampled_from(["solve", "distribution", "simulate", "scenarios", "converge"]),
    )
    def test_mutated_bundled_config_exits_0_or_2(self, tmp_path, capsys, cfg, command):
        # the grid, fund-size and path caps keep every accepted example small;
        # any exception or warning escaping main fails the example
        (tmp_path / "mort.csv").write_text(
            "age,qx\n" + "".join(f"{a},0.1\n" for a in range(65, 96)), encoding="utf-8"
        )
        p = write_cfg(tmp_path, cfg)
        code = main([command, "--config", str(p), "--print-config"])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: ")
