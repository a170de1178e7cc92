"""Self-tests for the benchmark's own counters and checks.

    python3 -m pytest perfbench/tests -q
"""

import math
from pathlib import Path

import numpy as np
import pytest

from pensionlab._kernels import binomial_inverse_numpy, lgamma_table
from pensionlab.cli import parse_config
from run import PER_LAYER_UNITS, per_layer_metrics
from tracing import PATCHES, Span, Tracer, chop_down_probes, self_times
from workloads import BUNDLED_SEED, WORKLOADS, check_output, compare_to_reference, make_config

ROOT = Path(__file__).resolve().parents[2]


def _scalar_chop_down(n, s, u, lgam):
    """Per-draw chop-down from the mode, with the arithmetic of
    binomial_inverse_numpy; returns (result, probes of in-range pieces)."""
    ls, l1s = math.log(s), math.log1p(-s)
    m = min(math.floor((n + 1) * s), n)
    pm = math.exp(lgam[n] - lgam[m] - lgam[n - m] + m * ls + (n - m) * l1s)
    acc, probes = pm, 1
    if u < acc:
        return m, probes
    pr = pl = pm
    for j in range(1, n + 2):
        ir, il = m + j, m - j
        if ir <= n:
            pr = pr * (((n - ir + 1) * s) / (ir * (1.0 - s)))
            acc += pr
            probes += 1
            if u < acc:
                return ir, probes
        if il >= 0:
            pl = pl * (((il + 1) * (1.0 - s)) / ((n - il) * s))
            acc += pl
            probes += 1
            if u < acc:
                return il, probes
    return m, probes


def _vectorised_rounds(n, s, u):
    """Rounds the vectorised loop runs: every draw's round, at least one."""
    lgam = lgamma_table(int(n.max()))
    rounds = 1
    for nk, uk in zip(n, u):
        res, _ = _scalar_chop_down(int(nk), s, float(uk), lgam)
        m = min(math.floor((nk + 1) * s), nk)
        rounds = max(rounds, abs(res - m))
    return rounds


@pytest.mark.parametrize("s", [0.05, 0.5, 0.93])
def test_probe_counts_match_brute_force(s):
    rng = np.random.default_rng(7)
    n = rng.integers(0, 12, size=200)
    u = rng.random(200)
    lgam = lgamma_table(int(n.max()))
    result = binomial_inverse_numpy(n, s, u, lgam)
    brute = [_scalar_chop_down(int(nk), s, float(uk), lgam) for nk, uk in zip(n, u)]
    assert [r for r, _ in brute] == result.tolist()
    needed, ran = chop_down_probes(n, s, result)
    assert needed == sum(p for _, p in brute)
    assert ran == n.size * (1 + 2 * _vectorised_rounds(n, s, u))


def test_probe_counts_degenerate_cases():
    n = np.array([3, 5])
    assert chop_down_probes(n, 1.0, n) == (0, 0)
    assert chop_down_probes(n, 0.0, np.zeros(2)) == (0, 0)
    # every draw at its mode: the loop still runs one round of two probes
    u = np.full(2, 1e-300)
    result = binomial_inverse_numpy(n, 0.5, u, lgamma_table(5))
    assert chop_down_probes(n, 0.5, result) == (2, 2 * 3)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
        Span("c", 9.0, 12.0, 0),  # runs past the parent: clipped at 10
        Span("leaf", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 3.0, 0.5])


def test_tracer_keeps_bookkeeping_out_of_self_time():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    def work(x):
        advance(2.0)
        return x + 1

    def count(result, x):
        advance(5.0)  # an expensive counter
        return {"seen": x}

    tracer = Tracer(clock=lambda: now[0])
    inner = tracer.wrap("inner", work, count)

    def outer_work():
        advance(1.0)
        return inner(1) + inner(2)

    assert tracer.wrap("outer", outer_work)() == 5
    report = tracer.report()
    assert report["counters"] == {"inner.seen": 3}
    assert report["layers"]["inner"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
    assert report["layers"]["outer"]["s"] == 15.0
    assert report["layers"]["outer"]["self_s"] == 1.0


def test_missing_name_is_reported_absent(monkeypatch):
    import importlib

    for module_name, attr, _, _ in PATCHES:  # undo the tracer's patches afterwards
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.delattr(importlib.import_module("pensionlab.cli"), "wealth_schedule")
    tracer = Tracer()
    tracer.install()
    assert tracer.absent == ["pensionlab.cli.wealth_schedule"]
    metrics = per_layer_metrics(tracer.report(), 1.0, 1.0)
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["analytics.wealth_schedule.s"]["value"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 3])
def test_workload_config_parses(name, seed):
    cfg = make_config(WORKLOADS[name], ROOT / "configs", seed)
    parsed = parse_config(cfg, ROOT / "configs")
    if parsed.seed is not None:
        assert parsed.seed == BUNDLED_SEED + seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_its_own_checks(name, tmp_path):
    workload = WORKLOADS[name]
    reference = Path(__file__).resolve().parents[1] / "reference" / f"{name}.csv"
    (tmp_path / workload.output_csv).write_bytes(reference.read_bytes())
    cfg = make_config(workload, ROOT / "configs", 0)
    stdout = "fit: |z_n - z_inf| ~ 2.7e-04 * n^-0.9067; bound"
    assert check_output(workload, cfg, tmp_path, stdout, reference) == []


def test_reference_comparison_tolerance(tmp_path):
    reference = Path(__file__).resolve().parents[1] / "reference" / "converge-2048.csv"
    lines = reference.read_text().splitlines()
    n, z, diff, bound = lines[-1].split(",")
    near = tmp_path / "near.csv"
    far = tmp_path / "far.csv"
    near.write_text("\n".join(lines[:-1] + [f"{n},{float(z) * (1 + 5e-10)!r},{diff},{bound}"]) + "\n")
    far.write_text("\n".join(lines[:-1] + [f"{n},{float(z) * (1 + 5e-9)!r},{diff},{bound}"]) + "\n")
    assert compare_to_reference(near, reference) == []
    assert len(compare_to_reference(far, reference)) == 1


def _edit_cell(text, row, col, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, row, col, value, problem", [
    ("sim-pool100", 5, 1, "9e9", "quantiles decrease"),
    ("sim-pool100", 30, 3, "1.0", "no path alive"),
    ("sim-pool100", 1, 7, "1e-9", "is not zero"),
    ("sim-infinite", 10, 6, "9.0", "z-score"),
    ("converge-2048", 12, 2, "1.0", "abs_diff"),
])
def test_check_output_flags_bad_rows(name, row, col, value, problem, tmp_path):
    workload = WORKLOADS[name]
    reference = Path(__file__).resolve().parents[1] / "reference" / f"{name}.csv"
    out = tmp_path / workload.output_csv
    out.write_text(_edit_cell(reference.read_text(), row, col, value))
    cfg = make_config(workload, ROOT / "configs", 1)
    stdout = "fit: |z_n - z_inf| ~ 2.7e-04 * n^-0.9067; bound"
    problems = check_output(workload, cfg, tmp_path, stdout, None)
    assert problems and all(problem in p for p in problems), problems
