"""Traced run of one pensionlab CLI command: per-layer spans and counters.

    python3 perfbench/tracing.py OUT.json <pensionlab CLI arguments>

Runs ``pensionlab.cli.main`` in this process with the public functions of
each layer wrapped, and writes the per-layer totals to OUT.json.  The
package imports its helpers with ``from ... import``, so each name is
patched in the module of its caller, where the call looks it up.  A name
that no longer exists is reported under ``absent`` instead of failing.

Spans are timed from outside the program, around each call.  The counters
are computed from each call's inputs and result (see PATCHES), except the
kernel's peak allocation (tracemalloc) and minor faults (getrusage).  Work
the tracer does between calls is recorded as ``trace.bookkeeping`` spans so
that it is not charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

BOOKKEEPING = "trace.bookkeeping"
MAIN_LAYER = "cli.main"


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: Optional[int]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[idx], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def chop_down_probes(n, s: float, result) -> tuple[int, int]:
    """(probes the draws needed, draws x probes the vectorised loop ran).

    ``binomial_inverse`` visits the pieces mode, mode+1, mode-1, mode+2, ...
    of the unit interval.  A draw needs one probe per piece inside 0..n up
    to and including its result.  The vectorised loop probes the mode and
    then both sides for every draw until the farthest draw is found, and
    runs at least one round.  Draws mapped to the mode by residual rounding
    mass (about 1e-15 of them) are counted as found at the mode.
    """
    n = np.asarray(n, dtype=np.int64)
    result = np.asarray(result, dtype=np.int64)
    if s <= 0.0 or s >= 1.0 or n.size == 0:
        return 0, 0
    mode = np.minimum(np.floor((n + 1) * s).astype(np.int64), n)
    off = result - mode
    j = np.abs(off)
    right = np.where(off > 0, j, np.minimum(j, n - mode))
    left = np.where(off < 0, j, np.minimum(np.maximum(j - 1, 0), mode))
    needed = int((1 + right + left).sum())
    rounds = min(max(1, int(j.max())), int(n.max()) + 1)
    return needed, n.size * (1 + 2 * rounds)


def _count_finite_step(result, logz_next, *args, **kwargs):
    n = len(logz_next)
    return {"terms": n * (n + 1) // 2}


def _count_binomial(result, n, s, u, lgam):
    needed, ran = chop_down_probes(n, s, result)
    return {"draws": np.size(result), "probes_needed": needed, "probes_ran": ran}


def _count_uniforms(result, *args, **kwargs):
    return {"draws": np.size(result)}


def _count_inverse_normal(result, p):
    p = np.asarray(p)
    return {"elements": p.size, "tail_elements": int((np.abs(p - 0.5) > 0.425).sum())}


def _count_simulate(result, config, grid, *args, **kwargs):
    return {"recorded_bytes": config.paths * grid.n_steps * len(config.record) * 8}


def _count_write_csv(result, path, *args, **kwargs):
    return {"bytes": path.stat().st_size}


# (module the caller lives in, name it looks up, layer, counter hook)
PATCHES = [
    ("pensionlab.solver", "finite_value_step", "_kernels.finite_value_step", _count_finite_step),
    ("pensionlab.montecarlo", "binomial_inverse", "_kernels.binomial_inverse", _count_binomial),
    ("pensionlab.montecarlo", "uniforms", "_rng.uniforms", _count_uniforms),
    ("pensionlab.montecarlo", "inverse_normal_cdf", "_rng.inverse_normal_cdf", _count_inverse_normal),
    ("pensionlab.cli", "simulate", "montecarlo.simulate", _count_simulate),
    ("pensionlab.cli", "summarize", "montecarlo.summarize", None),
    ("pensionlab.cli", "solve", "solver.solve", None),
    ("pensionlab.studies", "solve", "solver.solve", None),
    ("pensionlab.cli", "convergence_study", "studies.convergence_study", None),
    ("pensionlab.cli", "wealth_schedule", "analytics.wealth_schedule", None),
    ("pensionlab.cli", "parse_config", "cli.parse_config", None),
    ("pensionlab.cli", "_write_csv", "cli.write_csv", _count_write_csv),
]
MEMORY_LAYERS = {"_kernels.finite_value_step"}


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []

    def _record(self, layer: str, start: float, end: float) -> int:
        self.spans.append(Span(layer, start, end, self.stack[-1] if self.stack else None))
        return len(self.spans) - 1

    def _bookkeeping(self, start: float) -> None:
        self._record(BOOKKEEPING, start, self.clock())

    def wrap(self, layer: str, func: Callable, count: Optional[Callable] = None) -> Callable:
        memory = layer in MEMORY_LAYERS

        def traced(*args, **kwargs):
            if memory:
                t = self.clock()
                tracemalloc.start()
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                self._bookkeeping(t)
            idx = self._record(layer, self.clock(), math.nan)
            self.stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx].end = self.clock()
            t = self.spans[idx].end
            if memory:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counters[layer + ".minflt"] += faults
                self.peak_alloc[layer] = max(self.peak_alloc[layer], peak)
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    self.counters[f"{layer}.{key}"] += value
            self._bookkeeping(t)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, layer, count in PATCHES:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(layer, func, count))

    def report(self) -> dict:
        """Per-layer totals: inclusive and self seconds, calls, counters."""
        layers: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for span, own in zip(self.spans, self_times(self.spans)):
            row = layers[span.layer]
            row["s"] += span.end - span.start
            row["self_s"] += own
            row["calls"] += 1
        return {
            "layers": dict(layers),
            "counters": dict(self.counters),
            "peak_alloc_bytes": dict(self.peak_alloc),
            "absent": self.absent,
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("pensionlab.cli")
    main_cli = tracer.wrap(MAIN_LAYER, cli.main)
    code = main_cli(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
