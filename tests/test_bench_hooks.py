"""The benchmark under perfbench/ reaches into the package by name; these
checks fail fast when a change removes something it relies on."""

import importlib
import importlib.util
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    for targets in _load("spans").PATCHES.values():
        for target in targets:
            mod_name, _, attr = target.rpartition(".")
            assert hasattr(importlib.import_module(mod_name), attr), target


def test_every_exported_name_resolves():
    import haarlmsm
    for name in haarlmsm.__all__:
        assert hasattr(haarlmsm, name), name


def test_output_checks_import():
    _load("checks")


def test_output_checks_pass_on_tiny_runs(tmp_path):
    """The benchmark's output checks read config keys and compare routes;
    a tiny simulate and converge run must satisfy them."""
    from haarlmsm.cli import main
    checks = _load("checks")
    sim, conv = tmp_path / "sim", tmp_path / "conv"
    assert main(["simulate", "--preset", "fig1-row1", "--J-hf", "5",
                 "--J-lf", "3", "--out", str(sim)]) == 0
    assert main(["converge", "--which", "lf", "--Jmin", "2", "--Jmax", "3",
                 "--replicates", "8", "--out", str(conv)]) == 0
    assert checks.check_simulate(f"{sim}.csv") == []
    assert checks.check_converge(f"{conv}.csv") == []


def test_converge_check_passes_on_moment_rows(tmp_path):
    """From J = 4 on, the far-past rows that the depth step adds past
    k = 16 are summed by Taylor moments; the benchmark's converge check
    compares such a study with the per-point naive series."""
    from haarlmsm.cli import main
    checks = _load("checks")
    conv = tmp_path / "conv"
    assert main(["converge", "--which", "lf", "--Jmin", "4", "--Jmax", "5",
                 "--replicates", "8", "--out", str(conv)]) == 0
    assert checks.check_converge(f"{conv}.csv") == []


def test_traced_simulate_counts_kernel_calls(monkeypatch, tmp_path):
    """The per-layer kernel metrics count the calls that the series halves
    make through the ``series`` module's kernel attributes; a kernel bound
    to another name there would run untraced and read as zero calls."""
    from haarlmsm.cli import main
    spans = _load("spans")
    for targets in spans.PATCHES.values():
        for target in targets:
            mod_name, _, attr = target.rpartition(".")
            mod = importlib.import_module(mod_name)
            # restored when the test ends
            monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = spans.Tracer()
    tracer.install()
    assert main(["simulate", "--preset", "fig1-row3", "--J-hf", "5",
                 "--J-lf", "3", "--n-points", "9",
                 "--out", str(tmp_path / "sim")]) == 0
    table = tracer.table()
    for name in ("kernels.theta", "kernels.big_theta"):
        assert table["spans"][name]["calls"] > 0, name
    assert table["counts"]["kernels.evals_tail"] > 0
    assert table["counts"]["kernels.evals_direct"] > 0


def test_traced_draw_count_is_exact(monkeypatch):
    """Split-size draws count once each: the second thread of a large draw
    must not go through the traced sampler."""
    from haarlmsm import analysis, stable_rng
    spans = _load("spans")
    tracer = spans.Tracer()
    name = "stable_rng.sample_sas"
    wrapped = tracer.wrap(name, stable_rng.sample_sas, spans.COUNTERS[name])
    monkeypatch.setattr(stable_rng, "sample_sas", wrapped)
    monkeypatch.setattr(analysis, "sample_sas", wrapped)
    # two chunks of 1024 replicates x 64 columns, each on the split route
    J, n = 6, 2048
    assert analysis._MC_HF_CHUNK << J >= stable_rng._SPLIT_MIN
    analysis.mc_x1_samples([(0.5, 0.75)], 1.5, J, n, 3)
    stable_rng.sample_sas(stable_rng.StableLaw(1.5), stable_rng.make_rng(4),
                          2 ** 17)
    assert tracer.counts["stable_rng.sample_sas_draws"] == (n << J) + 2 ** 17
    assert tracer.stats[name][0] == 3


def test_traced_functions_run_on_the_calling_thread(monkeypatch, tmp_path):
    """The tracer keeps one span stack, so every function it wraps must run
    on the caller's thread, also while a draw is split across threads."""
    from haarlmsm import analysis, stable_rng
    from haarlmsm.cli import main
    calls = []
    for targets in _load("spans").PATCHES.values():
        for target in targets:
            mod_name, _, attr = target.rpartition(".")
            mod = importlib.import_module(mod_name)

            def record(*args, _fn=getattr(mod, attr), _name=target,
                       **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, attr, record)
    J = 6
    assert analysis._MC_HF_CHUNK << J >= stable_rng._SPLIT_MIN
    analysis.mc_x1_samples([(0.5, 0.75)], 1.5, J, 1024, 3)
    stable_rng.sample_sas(stable_rng.StableLaw(1.5), stable_rng.make_rng(4),
                          2 ** 17)
    assert main(["converge", "--which", "lf", "--Jmin", "2", "--Jmax", "3",
                 "--replicates", "8", "--out", str(tmp_path / "conv")]) == 0
    assert {"haarlmsm.analysis.sample_sas", "haarlmsm.stable_rng.sample_sas",
            "haarlmsm.cli.convergence_study",
            "haarlmsm.series.theta"} <= {name for name, _ in calls}
    main_thread = threading.main_thread().ident
    assert all(ident == main_thread for _, ident in calls)


def test_traced_draw_count_is_exact_for_consumed_draws(monkeypatch):
    """Draws handed to a consumer (the Monte Carlo products, the far-past
    running sum) count once each, like any other draw: the consumers run
    on the sampler's worker threads and call nothing traced."""
    from haarlmsm import analysis, stable_rng
    spans = _load("spans")
    tracer = spans.Tracer()
    name = "stable_rng.sample_sas"
    wrapped = tracer.wrap(name, stable_rng.sample_sas, spans.COUNTERS[name])
    monkeypatch.setattr(stable_rng, "sample_sas", wrapped)
    monkeypatch.setattr(analysis, "sample_sas", wrapped)
    # two chunks of replicates x (3 * 2**5 - 2) gaps, each on the split route
    J, n = 5, analysis._MC_LF_CHUNK + 100
    assert analysis._MC_LF_CHUNK * (3 * 2 ** J - 2) >= stable_rng._SPLIT_MIN
    analysis.mc_x2_samples([(0.5, 0.75)], 1.5, [J], n, 3)
    # a grid of 2**3 + 1 points on [0, 1] and 4**8 far-past increments
    stable_rng.generate_coefficients(1.5, 3, 8, "consistent", 4)
    assert tracer.counts["stable_rng.sample_sas_draws"] == \
        n * (3 * 2 ** J - 2) + 2 ** 3 + 4 ** 8
    assert tracer.stats[name][0] == 4
