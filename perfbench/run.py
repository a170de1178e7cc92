"""pensionlab benchmark: the CLI as users run it, one fresh process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The harness writes the workload's
config (a bundled config with overrides, see workloads.py) to a scratch
directory inside the checkout, then starts ``python -m pensionlab.cli`` one
child at a time, with the absolute ``src`` path on PYTHONPATH, and reads
each child's resource use with ``os.wait4``.  Every run's output is checked
(workloads.check_output); a run that exits non-zero or fails the check
counts as failed.

* measurement: after one untimed ``--print-config`` run, rounds of one
  timed ``--print-config`` run and one timed run of the command, back to
  back, at least MIN_TIMED_RUNS and more while the next round is expected
  to end within ``--seconds``.  ``setup_s`` is the median wall time of the
  ``--print-config`` runs; ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are
  medians over the command runs.
* ``--trace 1``: after the measurement, one more run under tracing.py gives
  the per-layer metrics, and ``trace.overhead_s`` is its wall time minus the
  untraced median.

The last line of stdout is the result JSON; the line before it holds the
per-run records and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, Workload, check_output, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_RUNS = 3  # a median of fewer runs follows a single slow one
CHILD_TIMEOUT_S = 150.0
MIB = 2**20

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Per-layer metric -> unit.  Names drop the leading underscore of private
# modules: a metric name must start with a letter or digit.
PER_LAYER_UNITS = {
    "kernels.finite_value_step.s": "s",
    "kernels.finite_value_step.calls": "count",
    "kernels.finite_value_step.terms": "count",
    "kernels.finite_value_step.ns_per_term": "ns",
    "kernels.finite_value_step.peak_alloc_mb": "MiB",
    "kernels.finite_value_step.minflt": "count",
    "kernels.binomial_inverse.s": "s",
    "kernels.binomial_inverse.draws": "count",
    "kernels.binomial_inverse.probe_useful_ratio": "ratio",
    "rng.uniforms.s": "s",
    "rng.uniforms.draws": "count",
    "rng.inverse_normal_cdf.s": "s",
    "rng.inverse_normal_cdf.elements": "count",
    "rng.inverse_normal_cdf.tail_share": "ratio",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.summarize.s": "s",
    "montecarlo.recorded_mb": "MiB",
    "solver.solve.s": "s",
    "solver.solve.calls": "count",
    "studies.convergence_study.self_s": "s",
    "analytics.wealth_schedule.s": "s",
    "cli.parse_config.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class ChildRun:
    kind: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    minflt: int
    nivcsw: int
    exit_code: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], cwd: Path, log: Path, kind: str) -> ChildRun:
    """Run one child to completion and read its own rusage with os.wait4."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return ChildRun(kind=kind, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                    peak_rss_mb=ru.ru_maxrss * 1024 / MIB, minflt=ru.ru_minflt,
                    nivcsw=ru.ru_nivcsw, exit_code=proc.returncode)


def machine_facts(work: Path) -> dict:
    probe = ("import json, platform, numpy, pensionlab._backend as b; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'backend': b.BACKEND}))")
    log = work / "facts.log"
    run = spawn([sys.executable, "-c", probe], work, log, "facts")
    facts = json.loads(log.read_text().splitlines()[-1]) if run.ok else {}
    facts["nproc"] = os.cpu_count()
    facts["loadavg_at_start"] = os.getloadavg()
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip()] = value.strip()
    return facts


class Bench:
    """One workload at one seed: its config, its reference and its child runs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.cfg = make_config(workload, ROOT / "configs", seed)
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg), encoding="utf-8")
        reference = HERE / "reference" / f"{workload.name}.csv"
        uses_seed = "simulation" in self.cfg
        self.reference = reference if (seed == REFERENCE_SEED or not uses_seed) else None
        self.runs: list[ChildRun] = []
        self.n = 0

    def cli_args(self, out: Path) -> list[str]:
        return [self.workload.command, "--config", str(self.cfg_path), "--out", str(out)]

    def setup_run(self, kind: str = "setup") -> ChildRun:
        self.n += 1
        log = self.work / f"setup-{self.n}.log"
        argv = [sys.executable, "-m", "pensionlab.cli", self.workload.command,
                "--config", str(self.cfg_path), "--print-config"]
        run = spawn(argv, self.work, log, kind)
        if run.exit_code == 0:
            try:
                echoed = json.loads(log.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                echoed = None
            if echoed != json.loads(json.dumps(self.cfg)):
                run.problems.append("--print-config did not echo the config")
        return run

    def command_run(self, kind: str) -> tuple[ChildRun, Path]:
        self.n += 1
        out = self.work / f"out-{self.n}"
        log = self.work / f"run-{self.n}.log"
        if kind == "traced":
            spans = self.work / f"trace-{self.n}.json"
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans)] + self.cli_args(out)
        else:
            spans = None
            argv = [sys.executable, "-m", "pensionlab.cli"] + self.cli_args(out)
        run = spawn(argv, self.work, log, kind)
        if run.exit_code == 0:
            stdout = log.read_text(encoding="utf-8", errors="replace")
            run.problems = check_output(self.workload, self.cfg, out, stdout, self.reference)
        shutil.rmtree(out, ignore_errors=True)
        return run, spans

    def measure(self, seconds: float) -> tuple[list[ChildRun], list[ChildRun]]:
        """(set-up runs, timed runs); every run is also kept in self.runs.

        Rounds of one set-up run and one timed run fill ``seconds``, so both
        medians are taken over the whole window and a slow spell of the host
        weighs on them alike.
        """
        self.runs.append(self.setup_run("warmup"))  # untimed: fills the bytecode cache
        setup, timed = [], []
        start = time.perf_counter()
        while True:
            setup.append(self.setup_run())
            run, _ = self.command_run("timed")
            timed.append(run)
            elapsed = time.perf_counter() - start
            expected_end = elapsed + elapsed / len(timed)
            if len(timed) >= MIN_TIMED_RUNS and expected_end > seconds:
                break
        self.runs += setup + timed
        return setup, timed


def per_layer_metrics(report: dict, traced_wall: float, untraced_wall: float) -> dict:
    """PER_LAYER_UNITS metrics from a tracing report; 0 for a layer that did not run."""
    layers, count = report["layers"], report["counters"]

    def span(layer: str, stat: str = "s") -> float:
        return layers.get(layer, {}).get(stat, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    step, binom = "_kernels.finite_value_step", "_kernels.binomial_inverse"
    unif, norm = "_rng.uniforms", "_rng.inverse_normal_cdf"
    values = {
        "kernels.finite_value_step.s": span(step),
        "kernels.finite_value_step.calls": span(step, "calls"),
        "kernels.finite_value_step.terms": count.get(step + ".terms", 0),
        "kernels.finite_value_step.ns_per_term":
            ratio(span(step) * 1e9, count.get(step + ".terms", 0)),
        "kernels.finite_value_step.peak_alloc_mb": report["peak_alloc_bytes"].get(step, 0) / MIB,
        "kernels.finite_value_step.minflt": count.get(step + ".minflt", 0),
        "kernels.binomial_inverse.s": span(binom),
        "kernels.binomial_inverse.draws": count.get(binom + ".draws", 0),
        "kernels.binomial_inverse.probe_useful_ratio":
            ratio(count.get(binom + ".probes_needed", 0), count.get(binom + ".probes_ran", 0)),
        "rng.uniforms.s": span(unif),
        "rng.uniforms.draws": count.get(unif + ".draws", 0),
        "rng.inverse_normal_cdf.s": span(norm),
        "rng.inverse_normal_cdf.elements": count.get(norm + ".elements", 0),
        "rng.inverse_normal_cdf.tail_share":
            ratio(count.get(norm + ".tail_elements", 0), count.get(norm + ".elements", 0)),
        "montecarlo.simulate.self_s": span("montecarlo.simulate", "self_s"),
        "montecarlo.summarize.s": span("montecarlo.summarize"),
        "montecarlo.recorded_mb": count.get("montecarlo.simulate.recorded_bytes", 0) / MIB,
        "solver.solve.s": span("solver.solve"),
        "solver.solve.calls": span("solver.solve", "calls"),
        "studies.convergence_study.self_s": span("studies.convergence_study", "self_s"),
        "analytics.wealth_schedule.s": span("analytics.wealth_schedule"),
        "cli.parse_config.s": span("cli.parse_config"),
        "cli.write_csv.s": span("cli.write_csv"),
        "cli.write_csv.bytes": count.get("cli.write_csv.bytes", 0),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def compute_shares(report: dict) -> dict:
    """Each layer's seconds as a share of the command's compute, which is
    cli.main minus config parsing."""
    layers = report["layers"]
    compute = layers.get("cli.main", {}).get("s", 0.0) - layers.get("cli.parse_config", {}).get("s", 0.0)
    return {name: row["s"] / compute for name, row in layers.items()} if compute > 0 else {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pensionlab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "pensionlab" / "cli.py", ROOT / "configs" / "default.json",
              ROOT / "configs" / "studies.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a pensionlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        facts = machine_facts(work)
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        setup, timed = bench.measure(args.seconds)
        wall = statistics.median(r.wall_s for r in timed)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in timed),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
            "setup_s": statistics.median(r.wall_s for r in setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        trace_info = None
        if args.trace:
            traced, spans = bench.command_run("traced")
            bench.runs.append(traced)
            report = json.loads(spans.read_text()) if traced.exit_code == 0 else {
                "layers": {}, "counters": {}, "peak_alloc_bytes": {}, "absent": []}
            metrics = per_layer_metrics(report, traced.wall_s, wall)
            trace_info = {"absent": report["absent"], "share_of_compute": compute_shares(report)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(not r.ok for r in bench.runs)
    details = {
        "workload": args.workload,
        "why": bench.workload.why,
        "seed": args.seed,
        "reference_checked": bench.reference is not None,
        "machine": facts,
        "timed_runs": len(timed),
        "failed_frac": failed / len(bench.runs),
        "trace": trace_info,
        "runs": [vars(r) for r in bench.runs],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
