"""Tests of the benchmark itself, at the tiny size.

Run from the repository root:  python -m pytest perfbench -q
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)
# per-layer metrics that count work and must repeat exactly for one seed
COUNTS = ("kernels.theta_calls", "kernels.big_theta_calls",
          "kernels.evals_direct", "kernels.evals_tail",
          "kernels.elems_per_call", "series.x1_partial_calls",
          "series.x2_partial_calls", "stable_rng.sample_sas_draws",
          "io.bytes_written")

_results = {}


def bench(workload, trace, seed=3):
    key = (workload, trace, seed)
    if key not in _results:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", "0", "--trace",
             str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_matches_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace, spec):
    res = bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    # --seconds 0 runs the minimum number of iterations, plus the traced one
    n_commands = len(run.WORKLOADS[workload]["tiny"])
    assert res["attempted"] == n_commands * (run.MIN_ITERATIONS + trace)
    group = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[group]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    for name, m in res["metrics"].items():
        assert math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = bench(workload, 1)["metrics"]
    _results.pop((workload, 1, 3))
    again = bench(workload, 1)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == again[name]["value"], name
    layer = {"simulate": "series.x1_partial_calls",
             "converge-lf": "kernels.evals_tail",
             "scale-check": "stable_rng.sample_sas_draws"}[workload]
    assert first[layer]["value"] > 0


def test_times_are_rescaled_by_the_reference_task():
    op = {"rc": 0, "wall_s": 2.0, "cpu_s": 1.8, "setup_s": 1.5,
          "peak_rss_mb": 100.0,
          "ref_before": {"wall": {"interp": 0.2, "array": 0.2},
                         "cpu": {"interp": 0.1, "array": 0.1}},
          "ref_after": {"wall": {"interp": 0.3, "array": 0.3},
                        "cpu": {"interp": 0.15, "array": 0.15}}}
    raw = run.end_to_end([[op]])
    assert raw == {"wall_s": 2.0, "cpu_s": 1.8, "setup_s": 1.5,
                   "peak_rss_mb": 100.0}
    nominal = run.REF_NOMINAL_S["interp"] + run.REF_NOMINAL_S["array"]
    scaled = run.end_to_end([[op]], ("interp", "array"))
    # the command by the mean of the timings around it, on the same clock,
    # the set-up by the wall timing right after it
    assert scaled["wall_s"] == pytest.approx(2.0 * nominal / 0.5)
    assert scaled["cpu_s"] == pytest.approx(1.8 * nominal / 0.25)
    assert scaled["setup_s"] == pytest.approx(1.5 * nominal / 0.4)
    assert scaled["peak_rss_mb"] == 100.0
    only = run.end_to_end([[op]], ("interp",))
    assert only["wall_s"] == pytest.approx(
        2.0 * run.REF_NOMINAL_S["interp"] / 0.25)


def test_checks_flag_a_corrupted_path(tmp_path):
    from haarlmsm import cli
    out = str(tmp_path / "p")
    assert cli.main(["simulate", "--preset", "fig1-row3", "--J-hf", "4",
                     "--J-lf", "3", "--seed", "2", "--out", out]) == 0
    assert checks.check_simulate(out + ".csv") == []
    lines = open(out + ".csv").read().splitlines()
    t, y1, y2, y = lines[-1].split(",")
    lines[-1] = ",".join([t, repr(float(y1) * (1 + 1e-7)), y2, y])
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_simulate(str(tmp_path / "bad.csv"))
    assert any("y1 + y2" in p for p in problems)
    assert any("naive route" in p for p in problems)


def test_checks_flag_a_scale_outside_the_band(tmp_path):
    from haarlmsm import cli
    out = str(tmp_path / "s")
    assert cli.main(["scale-check", "--which", "hf", "--alpha", "1.5",
                     "--J", "6", "--n-samples", "8000", "--seed", "1",
                     "--out", out]) == 0
    exact = checks.exact_scales("hf", 1.5, 6, cli.SCALE_CHECK_PAIRS)
    assert checks.check_scale(out + ".csv", exact) == []
    doubled = {k: 2.0 * v for k, v in exact.items()}
    assert len(checks.check_scale(out + ".csv", doubled)) == len(exact)
