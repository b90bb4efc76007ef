"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads W ...] [--seeds 1-10]
                               [--seconds S] [--traced] [--out FILE]

Run from the repository root.  For every workload the benchmark runs once
per seed with tracing off, for BENCHMARK.json's run_seconds unless
``--seconds`` is given; each end-to-end metric is summarized by its
median, quartiles (statistics.quantiles, n=4) and spread = (Q3 - Q1) /
median.  ``--traced`` adds one traced run per workload at the first seed.
``--out`` writes the summary with the host block as JSON, which is how
perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    ns = parser.parse_args(argv)
    seeds = _seeds(ns.seeds)
    if ns.seconds is None:
        with open("BENCHMARK.json") as fh:
            ns.seconds = json.load(fh)["run_seconds"]
    summary = {"host": run.host_info(), "seeds": seeds,
               "seconds": ns.seconds, "workloads": {}}
    for workload in ns.workloads:
        results = []
        for seed in seeds:
            res = bench(workload, seed, ns.seconds, 0)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in res["metrics"].items()),
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: dict(summarize([r["metrics"][name]["value"]
                                      for r in results]), unit=unit)
                for name, unit in run.END_TO_END.items()},
        }
        if ns.traced:
            traced = bench(workload, seeds[0], ns.seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload:12s} {name:12s} median {s['median']:.4g} "
                  f"{s['unit']}  Q1 {s['q1']:.4g}  Q3 {s['q3']:.4g}  "
                  f"spread {s['spread']:.3f}", flush=True)
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
