"""Span tracer that wraps haarlmsm's public functions from outside.

Each traced function is replaced, at the module attribute its callers look
it up through, by a wrapper that times the call and records it under a span
name.  Spans nest through a stack: a span's self time is its duration minus
the time covered by the spans it caused.  Only per-name aggregates are kept
(calls, total seconds, self seconds) plus a few work counters, because the
simulate workload makes about a hundred thousand kernel calls.

The counters are taken from the call arguments before the timer starts, and
the time spent counting is charged to the ``trace`` span instead of the
caller, so layer self times stay close to what an untraced run spends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

# span name -> the module attributes through which the package calls it
PATCHES = {
    "kernels.theta": ["haarlmsm.series.theta", "haarlmsm.analysis.theta"],
    "kernels.big_theta": ["haarlmsm.series.big_theta"],
    "series.x1_partial": ["haarlmsm.lmsm.x1_partial"],
    "series.x2_partial": ["haarlmsm.lmsm.x2_partial"],
    "stable_rng.sample_sas": ["haarlmsm.stable_rng.sample_sas",
                              "haarlmsm.analysis.sample_sas"],
    "stable_rng.generate_coefficients": [
        "haarlmsm.lmsm.generate_coefficients",
        "haarlmsm.analysis.generate_coefficients",
        "haarlmsm.cli.generate_coefficients"],
    "stable_rng.prefix_sums": ["haarlmsm.lmsm.prefix_sums",
                               "haarlmsm.analysis.prefix_sums",
                               "haarlmsm.cli.prefix_sums"],
    "lmsm.synthesize_path": ["haarlmsm.cli.synthesize_path"],
    "lmsm.validate_params": ["haarlmsm.lmsm.validate_params"],
    "analysis.mc_x1_samples": ["haarlmsm.cli.mc_x1_samples"],
    "analysis.mc_x2_samples": ["haarlmsm.cli.mc_x2_samples"],
    "analysis.x1_theoretical_scale": ["haarlmsm.cli.x1_theoretical_scale"],
    "analysis.x2_theoretical_scale": ["haarlmsm.cli.x2_theoretical_scale"],
    "analysis.convergence_study": ["haarlmsm.cli.convergence_study"],
    "io.write_csv": ["haarlmsm.cli.write_path_csv"],
    "io.render_svg": ["haarlmsm.cli.render_path_svg"],
}


def _count_kernel(counts, args, kwargs):
    # theta(x, v, params): the direct closed form serves 0 < x <= switch_x,
    # the tail series x > switch_x, and x <= 0 is an exact zero
    x = np.asarray(args[0] if args else kwargs["x"], dtype=float)
    params = args[2] if len(args) > 2 else kwargs["params"]
    tail = int(np.count_nonzero(x > params.switch_x))
    counts["kernels.elems"] += x.size
    counts["kernels.evals_tail"] += tail
    counts["kernels.evals_direct"] += int(np.count_nonzero(x > 0.0)) - tail


def _count_draws(counts, args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    counts["stable_rng.sample_sas_draws"] += \
        1 if size is None else int(np.prod(size))


COUNTERS = {
    "kernels.theta": _count_kernel,
    "kernels.big_theta": _count_kernel,
    "stable_rng.sample_sas": _count_draws,
}


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []         # per open span: seconds covered by children

    def wrap(self, name, fn, counter=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        trace_stats = self.stats.setdefault("trace", [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                c0 = clock()
                counter(self.counts, args, kwargs)
                dc = clock() - c0
                trace_stats[1] += dc
                trace_stats[2] += dc
                if stack:
                    stack[-1] += dc
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - covered

        return wrapper

    def install(self):
        """Replace every attribute listed in PATCHES by its wrapper."""
        for name, targets in PATCHES.items():
            wrapped = {}
            for target in targets:
                mod_name, _, attr = target.rpartition(".")
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, COUNTERS.get(name))
                setattr(mod, attr, wrapped[id(fn)])

    def table(self):
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
                "counts": dict(sorted(self.counts.items()))}
