"""Benchmark of the haarlmsm command line, end to end and per layer.

    python3 perfbench/run.py --workload {simulate,converge-lf,scale-check}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout; the package is imported from ``src``.
Each op is one CLI command in a fresh Python process (perfbench/op.py), run
one at a time in a closed loop.  An iteration runs the workload's commands
once; iterations repeat while the next one is expected to end within
``--seconds``, and at least MIN_ITERATIONS times.
Iteration 1 repeats iteration 0's seeds so that byte determinism can be
checked; later iterations draw fresh seeds from ``--seed``.

Outputs are checked after the timed loop (checks.py).  With ``--trace 0``
the last stdout line carries the end-to-end metrics, taken with tracing
off and rescaled to a fixed host speed by the reference task that each op
times around its command (reference.py).  With ``--trace 1`` one more
iteration runs with spans wrapped around the package's public functions
(spans.py) and the last line carries the per-layer metrics.  A record of
the run, with the host block and the span table, goes to
perfbench/.results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# Why each workload: see README.md.  Sizes are the full benchmark; "tiny"
# keeps the same commands at sizes that finish in a second or two.
# "reference" names the parts of the reference task (reference.py) whose
# timings rescale the workload's times: those that do its kind of work.
WORKLOADS = {
    "simulate": {
        # J_hf 7 rather than the 10 first planned: short ops fit about ten
        # to a run, and the reference task taken around each one tracks
        # the host's speed over it (README.md, "Sizes")
        "full": [["simulate", "--preset", "fig1-row3", "--J-hf", "7"]],
        "tiny": [["simulate", "--preset", "fig1-row3", "--J-hf", "5",
                  "--J-lf", "3"]],
        # interpreter-bound like the per-point route
        "reference": ("interp",),
    },
    "converge-lf": {
        "full": [["converge", "--which", "lf", "--alpha", "1.5", "--v",
                  "0.75", "--Jmin", "4", "--Jmax", "8", "--replicates",
                  "8"]],
        "tiny": [["converge", "--which", "lf", "--alpha", "1.5", "--v",
                  "0.75", "--Jmin", "2", "--Jmax", "3", "--replicates",
                  "8"]],
        "reference": ("interp", "array"),
    },
    "scale-check": {
        "full": [["scale-check", "--which", "hf", "--alpha", "1.5", "--J",
                  "11", "--n-samples", "8000"],
                 ["scale-check", "--which", "lf", "--alpha", "1.5", "--J",
                  "7", "--n-samples", "20000"]],
        "tiny": [["scale-check", "--which", "hf", "--alpha", "1.5", "--J",
                  "6", "--n-samples", "8000"],
                 ["scale-check", "--which", "lf", "--alpha", "1.5", "--J",
                  "3", "--n-samples", "8000"]],
        "reference": ("interp", "array"),
    },
}
# simulate promises byte-identical files for an identical configuration
BYTE_DETERMINISM = {"simulate"}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernels.theta_calls": "count",
    "kernels.big_theta_calls": "count",
    "kernels.evals_direct": "count",
    "kernels.evals_tail": "count",
    "kernels.elems_per_call": "elems/call",
    "kernels.self_s": "s",
    "kernels.evals_per_s": "evals/s",
    "series.x1_partial_calls": "count",
    "series.x1_partial_self_s": "s",
    "series.x2_partial_calls": "count",
    "series.x2_partial_self_s": "s",
    "stable_rng.sample_sas_draws": "count",
    "stable_rng.sample_sas_s": "s",
    "stable_rng.draws_per_s": "draws/s",
    "stable_rng.generate_coefficients_s": "s",
    "stable_rng.prefix_sums_s": "s",
    "analysis.mc_samples_self_s": "s",
    "analysis.theory_scale_s": "s",
    "analysis.convergence_study_self_s": "s",
    "lmsm.synthesize_path_s": "s",
    "lmsm.validate_s": "s",
    "io.write_csv_s": "s",
    "io.render_svg_s": "s",
    "io.bytes_written": "B",
    "cli.self_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}

MIN_ITERATIONS = 2     # iteration 1 is the same-seed repeat
HARD_LIMIT_S = 170.0   # the whole run must end within 180 s
# End-to-end times are reported at the host speed at which the parts of the
# reference task (reference.py) take these times, round figures near their
# usual readings on the 2-core host the baseline was measured on; see
# README.md, "Host-speed scaling"
REF_NOMINAL_S = {"interp": 0.15, "array": 0.08}
# one thread per op: on a host with two cores a second BLAS thread measures
# the neighbours' load rather than the program
OP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class Runner:
    """Spawns op processes for one workload and keeps their records."""

    def __init__(self, workload, size, seed, workdir, t_start):
        self.commands = WORKLOADS[workload][size]
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.t_start = t_start
        self.n_ops = 0

    def op_seed(self, index):
        digest = hashlib.sha256(
            f"{self.workload}:{self.seed}:{index}".encode()).digest()
        return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF

    def spawn(self, cli_args, tag, trace=False):
        """One op process; returns its report (rc None when it died)."""
        opdir = os.path.join(self.workdir, tag)
        os.makedirs(opdir)
        report_path = os.path.join(opdir, "report.json")
        cmd = [sys.executable, os.path.join(HERE, "op.py"), "--src", SRC,
               "--report", report_path]
        if trace:
            cmd.append("--trace")
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.t_start))
        with open(os.path.join(opdir, "stdout.txt"), "wb") as out, \
                open(os.path.join(opdir, "stderr.txt"), "wb") as err:
            cmd += ["--spawn-ns", str(time.monotonic_ns()), "--"] + cli_args
            proc = subprocess.Popen(cmd, cwd=opdir, stdout=out, stderr=err,
                                    env=dict(os.environ, **OP_ENV))
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        report = {"rc": None}
        if proc.returncode == 0 and os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        report["dir"] = opdir
        return report

    def iteration(self, index, trace=False):
        seed_index = max(index - 1, 0)
        seed = self.op_seed(seed_index)
        ops = []
        for c, args in enumerate(self.commands):
            tag = f"it{index}{'t' if trace else ''}-c{c}"
            full = args + ["--seed", str(seed), "--out", "out"]
            rep = self.spawn(full, tag, trace=trace)
            rep.update(command=c, seed=seed, seed_index=seed_index,
                       args=full)
            ops.append(rep)
            self.n_ops += 1
            if rep["rc"] != 0:
                break
        return ops


def _median(values):
    return statistics.median(values) if values else float("nan")


def _outputs(op):
    return sorted(f for f in os.listdir(op["dir"]) if f.startswith("out."))


def check_ops(workload, iterations):
    """Failure notes per op (keyed by its directory) and the verdicts."""
    sys.path.insert(0, SRC)
    import checks
    failures = {}
    verdicts = []
    exact = {}
    for ops in iterations:
        for op in ops:
            notes = []
            if op["rc"] != 0:
                notes.append(f"exit status {op['rc']}")
            else:
                csv = os.path.join(op["dir"], "out.csv")
                if workload == "simulate":
                    notes += checks.check_simulate(csv)
                elif workload == "converge-lf":
                    notes += checks.check_converge(csv)
                    with open(os.path.join(op["dir"], "stdout.txt")) as fh:
                        verdicts += [ln.rsplit(": ", 1)[-1].strip()
                                     for ln in fh if "tolerance" in ln]
                else:
                    a = op["args"]
                    which = a[a.index("--which") + 1]
                    key = (which, float(a[a.index("--alpha") + 1]),
                           int(a[a.index("--J") + 1]))
                    if key not in exact:
                        from haarlmsm.cli import SCALE_CHECK_PAIRS
                        exact[key] = checks.exact_scales(*key,
                                                         SCALE_CHECK_PAIRS)
                    notes += checks.check_scale(csv, exact[key])
            if notes:
                failures[op["dir"]] = notes
    if workload in BYTE_DETERMINISM and len(iterations) >= 2:
        for first, again in zip(iterations[0], iterations[1]):
            if first["rc"] != 0 or again["rc"] != 0:
                continue
            for name in set(_outputs(first)) | set(_outputs(again)):
                paths = [os.path.join(op["dir"], name)
                         for op in (first, again)]
                blobs = []
                for p in paths:
                    with open(p, "rb") as fh:
                        blobs.append(fh.read())
                if blobs[0] != blobs[1]:
                    failures.setdefault(again["dir"], []).append(
                        f"{name} differs from the same-seed run")
    return failures, verdicts


def _ref_s(ref, parts, clock="wall"):
    return sum(ref[clock][p] for p in parts)


def end_to_end(iterations, parts=()):
    """Medians over the iterations whose ops all succeeded.

    With reference ``parts`` named, each command's times are multiplied by
    the parts' nominal time over the mean of their timings just before and
    after the command, wall time by wall time and CPU time by CPU time, and
    the set-up time by the nominal time over the wall timing just after
    the set-up.  With none, the times are unscaled.
    """
    done = [ops for ops in iterations if all(op["rc"] == 0 for op in ops)]
    nominal = sum(REF_NOMINAL_S[p] for p in parts)

    def command(op, key):
        if not parts:
            return op[key]
        clock = "cpu" if key == "cpu_s" else "wall"
        ref = 0.5 * (_ref_s(op["ref_before"], parts, clock)
                     + _ref_s(op["ref_after"], parts, clock))
        return op[key] * nominal / ref

    def setup(op):
        if not parts:
            return op["setup_s"]
        return op["setup_s"] * nominal / _ref_s(op["ref_before"], parts)

    return {
        "wall_s": _median([sum(command(op, "wall_s") for op in ops)
                           for ops in done]),
        "cpu_s": _median([sum(command(op, "cpu_s") for op in ops)
                          for ops in done]),
        "setup_s": _median([setup(op) for ops in done for op in ops]),
        "peak_rss_mb": _median([max(op["peak_rss_mb"] for op in ops)
                                for ops in done]),
    }


def per_layer(traced_ops, untraced_wall):
    spans, counts = {}, {}
    for op in traced_ops:
        for name, s in op["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for name, n in op["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_calls = (span("kernels.theta", "calls")
                    + span("kernels.big_theta", "calls"))
    kernel_self = (span("kernels.theta", "self_s")
                   + span("kernels.big_theta", "self_s"))
    evals = counts.get("kernels.evals_direct", 0) \
        + counts.get("kernels.evals_tail", 0)
    draws = counts.get("stable_rng.sample_sas_draws", 0)
    traced_wall = sum(op["wall_s"] for op in traced_ops)
    bytes_written = sum(os.path.getsize(os.path.join(op["dir"], f))
                        for op in traced_ops for f in _outputs(op))
    return {
        "kernels.theta_calls": span("kernels.theta", "calls"),
        "kernels.big_theta_calls": span("kernels.big_theta", "calls"),
        "kernels.evals_direct": counts.get("kernels.evals_direct", 0),
        "kernels.evals_tail": counts.get("kernels.evals_tail", 0),
        "kernels.elems_per_call": ratio(counts.get("kernels.elems", 0),
                                        kernel_calls),
        "kernels.self_s": kernel_self,
        "kernels.evals_per_s": ratio(evals, kernel_self),
        "series.x1_partial_calls": span("series.x1_partial", "calls"),
        "series.x1_partial_self_s": span("series.x1_partial", "self_s"),
        "series.x2_partial_calls": span("series.x2_partial", "calls"),
        "series.x2_partial_self_s": span("series.x2_partial", "self_s"),
        "stable_rng.sample_sas_draws": draws,
        "stable_rng.sample_sas_s": span("stable_rng.sample_sas", "total_s"),
        "stable_rng.draws_per_s": ratio(
            draws, span("stable_rng.sample_sas", "total_s")),
        "stable_rng.generate_coefficients_s":
            span("stable_rng.generate_coefficients", "total_s"),
        "stable_rng.prefix_sums_s": span("stable_rng.prefix_sums", "total_s"),
        "analysis.mc_samples_self_s": (span("analysis.mc_x1_samples", "self_s")
                                       + span("analysis.mc_x2_samples",
                                              "self_s")),
        "analysis.theory_scale_s": (
            span("analysis.x1_theoretical_scale", "total_s")
            + span("analysis.x2_theoretical_scale", "total_s")),
        "analysis.convergence_study_self_s":
            span("analysis.convergence_study", "self_s"),
        "lmsm.synthesize_path_s": span("lmsm.synthesize_path", "total_s"),
        "lmsm.validate_s": span("lmsm.validate_params", "total_s"),
        "io.write_csv_s": span("io.write_csv", "total_s"),
        "io.render_svg_s": span("io.render_svg", "total_s"),
        "io.bytes_written": bytes_written,
        "cli.self_s": span("cli.main", "self_s"),
        "trace.self_sum_s": sum(s["self_s"] for s in spans.values()),
        "trace.overhead_s": traced_wall - untraced_wall,
    }, spans


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_info():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": dict(OP_ENV),
        "git_commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    ns = parser.parse_args(argv)
    t_start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "haarlmsm", "cli.py")):
        print(f"error: no haarlmsm package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"{ns.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(ns, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(ns, workdir, t_start):
    runner = Runner(ns.workload, ns.size, ns.seed, workdir, t_start)
    iterations = []
    t_loop = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        # the longest iteration so far predicts the next one's length
        if (len(iterations) >= MIN_ITERATIONS
                and now - t_loop + longest > ns.seconds):
            break
        # leave room for one more iteration, the traced one and the checks
        if iterations and now - t_start + 3.0 * longest > HARD_LIMIT_S:
            break
        t_it = time.monotonic()
        ops = runner.iteration(len(iterations))
        longest = max(longest, time.monotonic() - t_it)
        iterations.append(ops)
        if any(op["rc"] != 0 for op in ops):
            break
    measured = time.monotonic() - t_loop

    traced = []
    if ns.trace:
        traced = runner.iteration(0, trace=True)
    failures, verdicts = check_ops(ns.workload,
                                   iterations + ([traced] if traced else []))
    parts = WORKLOADS[ns.workload]["reference"]
    e2e = end_to_end(iterations, parts)
    raw = end_to_end(iterations)
    ref_s = _median([_ref_s(op[k], parts) for ops in iterations for op in ops
                     if op["rc"] == 0 for k in ("ref_before", "ref_after")])
    failed = len(failures)
    attempted = runner.n_ops

    record = {
        "workload": ns.workload, "seed": ns.seed, "size": ns.size,
        "seconds": ns.seconds, "measured_s": measured, "host": host_info(),
        "iterations": [[{k: op.get(k) for k in
                         ("args", "rc", "setup_s", "wall_s", "cpu_s",
                          "peak_rss_mb", "ref_before", "ref_after")}
                        for op in ops]
                       for ops in iterations],
        "failures": failures, "converge_verdicts": verdicts,
        "end_to_end": e2e, "end_to_end_unscaled": raw,
        "reference_s": ref_s,
    }
    if ns.trace:
        if all(op["rc"] == 0 for op in traced) and traced:
            layers, spans = per_layer(traced, raw["wall_s"])
        else:
            layers, spans = {k: float("nan") for k in PER_LAYER}, {}
        record.update(per_layer=layers, spans=spans)
        metrics, units = layers, PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    for i, ops in enumerate(iterations):
        print(f"iteration {i}: " + "; ".join(
            f"seed {op['seed']} rc {op['rc']} wall {op.get('wall_s', 0):.3f}s"
            for op in ops))
    for where, notes in sorted(failures.items()):
        for note in notes:
            print(f"FAILED {os.path.basename(where)}: {note}")
    if verdicts:
        print(f"converge verdicts (recorded, not failures): "
              f"{', '.join(verdicts)}")
    print(f"unscaled medians: " + ", ".join(
        f"{k} {raw[k]:.4g} {END_TO_END[k]}" for k in raw)
        + f"; reference {'+'.join(parts)} {ref_s:.4g} s (nominal "
        f"{sum(REF_NOMINAL_S[p] for p in parts):.4g} s)")
    for name, unit in units.items():
        print(f"{name:38s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':38s} {failed / max(attempted, 1):>16.6g} "
          f"fraction ({failed} of {attempted} ops)")

    results = os.path.join(HERE, ".results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{ns.workload}-seed{ns.seed}"
                           f"-trace{ns.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
