"""End-to-end checks for the command-line interface."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import haarlmsm
from haarlmsm import cli
from haarlmsm.cli import (
    PRESETS,
    TAKES,
    RunConfig,
    _build_parser,
    build_config,
    main,
    parse_hurst_spec,
    read_config_file,
    render_path_svg,
)
from haarlmsm.errors import ConfigError
from haarlmsm.lmsm import read_path_csv


def test_hurst_spec_kinds():
    H = parse_hurst_spec("constant:0.75")
    assert H(np.array([0.0, 0.5, 1.0])) == pytest.approx([0.75] * 3)
    H = parse_hurst_spec("linear:0.9,-0.2")
    assert H(np.array([0.0, 1.0])) == pytest.approx([0.9, 0.7])
    H = parse_hurst_spec("sine:0.2,0.8")
    assert float(H(np.array([0.0]))[0]) == pytest.approx(0.8)
    H = parse_hurst_spec("logistic:0.65,0.25")
    # steps down: low + height on the left, low on the right
    assert float(H(np.array([0.0]))[0]) == pytest.approx(0.9, abs=1e-6)
    assert float(H(np.array([1.0]))[0]) == pytest.approx(0.65, abs=1e-6)
    H = parse_hurst_spec("table:0,0.7,0.5,0.8,1,0.7")
    assert float(H(np.array([0.5]))[0]) == pytest.approx(0.8)


@pytest.mark.parametrize("spec", [
    "constant:",
    "constant:0.7,0.8",
    "linear:0.9",
    "sine:a,b",
    "table:0,0.7,0.5",
    "wedge:0.7",
])
def test_hurst_spec_rejects(spec):
    with pytest.raises(ConfigError):
        parse_hurst_spec(spec)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n\nalpha = 1.4\nseed=9\nallow_boundary=yes\n"
                 "hurst=sine:0.2,0.8\n")
    got = read_config_file(str(p))
    assert got == {"alpha": 1.4, "seed": 9, "allow_boundary": True,
                   "hurst": "sine:0.2,0.8"}
    p.write_text("alpha 1.4\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))
    p.write_text("no_such_key=3\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))
    p.write_text("command=render\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def test_layered_precedence(tmp_path):
    # defaults -> preset -> config file -> explicit flags, later wins
    p = tmp_path / "run.cfg"
    p.write_text("seed=11\nJ_hf=6\n")
    config = build_config(["simulate", "--preset", "fig1-row2",
                           "--config", str(p), "--seed", "12"])
    assert config.alpha == PRESETS["fig1-row2"]["alpha"]
    assert config.hurst == "sine:0.2,0.8"
    assert config.allow_boundary is True
    assert config.J_hf == 6
    assert config.seed == 12


def test_simulate_writes_csv_and_svg(tmp_path):
    out = str(tmp_path / "row3")
    rc = main(["simulate", "--preset", "fig1-row3", "--seed", "7",
               "--n-points", "65", "--J-hf", "8", "--out", out])
    assert rc == 0
    sample = read_path_csv(out + ".csv")
    assert sample.t_grid.size == 65
    assert np.all(np.isfinite(sample.y))
    assert np.array_equal(sample.y, sample.y1 + sample.y2)
    assert sample.config["cli"]["preset"] == "fig1-row3"
    svg = (tmp_path / "row3.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 3


def test_simulate_rejects_alpha_out_of_range(capsys):
    rc = main(["simulate", "--alpha", "2.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "(1, 2)" in err


def test_missing_command_and_missing_config(capsys, tmp_path):
    assert main([]) == 2
    assert main(["simulate", "--config",
                 str(tmp_path / "nope.cfg")]) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err


def test_csv_identical_for_same_seed(tmp_path):
    args = ["simulate", "--alpha", "1.5", "--hurst", "constant:0.75",
            "--J-hf", "7", "--J-lf", "4", "--n-points", "129", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_field_csv_schema(tmp_path):
    out = str(tmp_path / "field")
    rc = main(["field", "--alpha", "1.5", "--which", "lf", "--J", "4",
               "--u-points", "9", "--v-values", "0.7,0.8", "--seed", "3",
               "--out", out])
    assert rc == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    echoed = json.loads(lines[0][len("# config: "):])
    assert echoed["command"] == "field"
    assert echoed["J"] == 4
    assert lines[1] == "u,0.7,0.8"
    u = np.array([float(row.split(",")[0]) for row in lines[2:]])
    assert u == pytest.approx(np.linspace(0.0, 1.0, 9))
    vals = np.array([[float(x) for x in row.split(",")[1:]]
                     for row in lines[2:]])
    assert vals.shape == (9, 2)
    assert np.all(np.isfinite(vals))


def test_converge_summary_and_csv(tmp_path, capsys):
    out = str(tmp_path / "conv")
    rc = main(["converge", "--which", "hf", "--alpha", "1.5", "--v", "0.75",
               "--Jmin", "3", "--Jmax", "5", "--replicates", "8",
               "--seed", "1", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fitted slope:" in text
    assert "theoretical slope:" in text
    assert ("PASS" in text) or ("FAIL" in text)
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    data = [row for row in lines if not row.startswith("#")]
    assert data[0].split(",")[:2] == ["J", "median"]
    assert [row.split(",")[0] for row in data[1:]] == ["3", "4", "5"]
    assert len(data[1].split(",")) == 2 + 8


def test_scale_check_independent(tmp_path, capsys):
    out = str(tmp_path / "sc")
    rc = main(["scale-check", "--which", "hf", "--alpha", "1.5", "--J", "10",
               "--mode", "independent", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "exact truncated scale" in text
    lines = (tmp_path / "sc.csv").read_text().splitlines()
    assert lines[1] == "u,v,J,estimate,target,rel_dev"
    assert len(lines) == 2 + 6
    # deterministic route: rerun matches byte for byte
    rc = main(["scale-check", "--which", "hf", "--alpha", "1.5", "--J", "10",
               "--mode", "independent", "--out", str(tmp_path / "sc2")])
    assert rc == 0
    a = (tmp_path / "sc.csv").read_text().splitlines()[1:]
    b = (tmp_path / "sc2.csv").read_text().splitlines()[1:]
    assert a == b


def test_render_edge_cases(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text('# config: {"alpha": 1.5}\nt,y1,y2,y\n')
    assert main(["render", str(empty)]) == 2
    assert "no data rows" in capsys.readouterr().err

    one = tmp_path / "one.csv"
    one.write_text('# config: {"alpha": 1.5}\nt,y1,y2,y\n0.5,1.0,2.0,3.0\n')
    assert main(["render", str(one)]) == 0
    svg = (tmp_path / "one.svg").read_text()
    assert svg.count("<circle") == 3
    assert "<polyline" not in svg

    nan = tmp_path / "nan.csv"
    nan.write_text('# config: {"alpha": 1.5}\nt,y1,y2,y\n'
                   '0.0,1.0,2.0,3.0\n0.5,nan,2.0,nan\n')
    assert main(["render", str(nan)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "nan.svg").exists()

    assert main(["render", str(tmp_path / "missing.csv")]) == 4
    assert capsys.readouterr().err.startswith("error: io:")
    assert main(["render"]) == 2


def test_render_rereuns_byte_identical(tmp_path):
    src = tmp_path / "p.csv"
    rows = ["t,y1,y2,y"]
    t = np.linspace(0.0, 1.0, 33)
    vals = np.sin(7.0 * t)
    for a, b in zip(t, vals):
        rows.append(f"{float(a)!r},{float(b)!r},{float(-b)!r},{0.0!r}")
    src.write_text('# config: {"alpha": 1.5, "seed": 0}\n'
                   + "\n".join(rows) + "\n")
    assert main(["render", str(src), "--out", str(tmp_path / "v1.svg")]) == 0
    assert main(["render", str(src), "--out", str(tmp_path / "v2.svg")]) == 0
    assert (tmp_path / "v1.svg").read_bytes() == (tmp_path / "v2.svg").read_bytes()


def test_svg_embeds_config(tmp_path):
    out = str(tmp_path / "s")
    assert main(["simulate", "--alpha", "1.5", "--hurst", "constant:0.8",
                 "--J-hf", "5", "--J-lf", "3", "--n-points", "17",
                 "--seed", "4", "--out", out]) == 0
    svg = (tmp_path / "s.svg").read_text()
    start = svg.index("<desc>") + len("<desc>")
    end = svg.index("</desc>")
    payload = svg[start:end].replace("&amp;", "&").replace("&lt;", "<") \
        .replace("&gt;", ">")
    cfg = json.loads(payload)
    assert cfg["alpha"] == 1.5
    assert cfg["seed"] == 4
    assert cfg["cli"]["command"] == "simulate"
    assert "timestamp" not in svg.lower()


def test_out_extension_stripped(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--alpha", "1.5", "--hurst", "constant:0.75",
                 "--J-hf", "4", "--J-lf", "2", "--n-points", "9",
                 "--seed", "0", "--out", out]) == 0
    assert (tmp_path / "x.csv").exists()
    assert (tmp_path / "x.svg").exists()
    assert not (tmp_path / "x.csv.csv").exists()


def test_atomic_write_leaves_no_droppings(tmp_path):
    out = str(tmp_path / "clean")
    assert main(["simulate", "--alpha", "1.5", "--hurst", "constant:0.75",
                 "--J-hf", "4", "--J-lf", "2", "--n-points", "9",
                 "--seed", "0", "--out", out]) == 0
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_run_config_defaults():
    config = RunConfig(command="simulate")
    assert config.alpha == 1.5
    assert config.mode == "consistent"
    assert config.J_hf == 12 and config.J_lf == 6


def _subparsers():
    parser = _build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def test_parser_flags_are_the_takes_table():
    subs = _subparsers()
    assert set(subs) == set(TAKES)
    for command, takes in TAKES.items():
        got = set()
        for action in subs[command]._actions:
            if action.dest != "help":
                got.update(action.option_strings or [action.dest])
        want = {"--config", "--out"}
        want.update("--" + name.replace("_", "-") for name in takes)
        if command == "render":
            want.add("input")
        assert got == want, command


def _assert_refused(argv, tmp_path, capsys):
    """Exit 2 with one ``error: config:`` stderr line and no file written."""
    rc = main(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["converge", "--mode", "independent"],
    ["simulate", "--method", "naive"],
    ["field", "--method", "abel"],
])
def test_flags_a_command_does_not_read_are_refused(argv, tmp_path, capsys):
    _assert_refused(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "--hurst", "constant:nan"],
    # a profile that breaks both the declared and the sampled lower bound
    ["simulate", "--hurst", "linear:0.5,0.05"],
    ["converge", "--Jmin", "x"],
    ["no-such-command"],
    ["simulate", "--n-points", "0"],
    ["simulate", "--seed", "-1"],
    ["converge", "--seed", "-1"],
    ["scale-check", "--seed", "-1"],
])
def test_every_refusal_is_one_line(argv, tmp_path, capsys):
    _assert_refused(argv, tmp_path, capsys)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "-h"])
    assert exc.value.code == 0
    assert "--hurst" in capsys.readouterr().out


def test_unexpected_exception_is_a_compute_error(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "render", boom)
    assert main(["render", "any.csv"]) == 3
    assert capsys.readouterr().err == "error: compute: RuntimeError: boom\n"

    def interrupt(config):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "render", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["render", "any.csv"])


def test_field_takes_its_depth_flags(tmp_path):
    out = str(tmp_path / "field")
    assert main(["field", "--which", "lf", "--J", "4", "--J-hf", "5",
                 "--J-lf", "4", "--u-points", "5", "--out", out]) == 0
    first = (tmp_path / "field.csv").read_text().splitlines()[0]
    echoed = json.loads(first[len("# config: "):])
    assert echoed["J_hf"] == 5 and echoed["J_lf"] == 4


@pytest.mark.parametrize("key", ["mode", "which"])
def test_config_file_choices_are_checked(key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}=bogus\n")
    readers = [c for c, takes in TAKES.items() if key in takes]
    assert len(readers) == 3
    for command in readers:
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key} must be one of")
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]


@pytest.mark.parametrize("argv", [
    ["scale-check", "--which", "hf", "--J", "-1"],
    ["scale-check", "--which", "hf", "--J", "40"],
    ["scale-check", "--which", "lf", "--J", "40"],
    ["scale-check", "--which", "hf", "--J", "17"],
    ["scale-check", "--which", "lf", "--J", "13"],
    ["scale-check", "--which", "hf", "--J", "-3", "--mode", "independent"],
    ["scale-check", "--which", "lf", "--J", "0", "--mode", "independent"],
    ["scale-check", "--which", "hf", "--J", "40", "--mode", "independent"],
    ["scale-check", "--which", "lf", "--J", "40", "--mode", "independent"],
    ["simulate", "--n-points", "10000000000"],
    ["simulate", "--J-hf", "-1"],
    ["scale-check", "--which", "hf", "--n-samples", "10000000000"],
    ["scale-check", "--which", "lf", "--n-samples", "10000000000"],
    ["simulate", "--J-hf", "24"],
    ["simulate", "--J-hf", "15"],
    ["converge", "--which", "lf", "--replicates", "1000000000000"],
    ["converge", "--which", "lf", "--Jmax", "11", "--replicates", "100000"],
])
def test_impossible_sizes_refused_early(argv, tmp_path, capsys):
    t0 = time.perf_counter()
    _assert_refused(argv, tmp_path, capsys)
    assert time.perf_counter() - t0 < 2.0


def test_far_past_study_estimate_counts_moment_rows(monkeypatch, tmp_path,
                                                   capsys):
    # rows summed by Taylor moments count R x (length + points), not a
    # table, so a 43-replicate study to depth 10 (about 10 s) is admitted;
    # checked without running it
    def admitted(*args):
        raise RuntimeError("admitted")

    monkeypatch.setattr(cli, "convergence_study", admitted)
    assert main(["converge", "--which", "lf", "--Jmin", "4", "--Jmax", "10",
                 "--replicates", "43", "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err.endswith("RuntimeError: admitted\n")
    # a table for every stretch: 1025 points x 3 * 2**J terms per depth J
    tables = 1025 * 3 * (2 ** 11 - 2 ** 4)
    per_rep = cli._far_past_study_work(4, 10, 1025)
    assert 43 * per_rep <= cli.MAX_TABLE_ENTRIES < 43 * tables
    # the pyramid's 4**(Jmax + 1) draws count too: 100 replicates to depth
    # 12 would draw for minutes
    _assert_refused(["converge", "--which", "lf", "--Jmin", "4", "--Jmax",
                     "12", "--replicates", "100"], tmp_path, capsys)


@pytest.mark.parametrize("which", ["hf", "lf"])
@pytest.mark.parametrize("Jmax", [1024, 10 ** 9])
def test_converge_depth_past_any_pyramid_refused_first(which, Jmax,
                                                       monkeypatch, tmp_path,
                                                       capsys):
    # refused before the depth list, the work estimate or any draw is
    # sized by Jmax
    def no_draw(*args, **kwargs):
        raise AssertionError("drew")

    monkeypatch.setattr(cli, "convergence_study", no_draw)
    monkeypatch.setattr(cli, "generate_coefficients", no_draw)
    t0 = time.perf_counter()
    _assert_refused(["converge", "--which", which, "--Jmin", "4", "--Jmax",
                     str(Jmax), "--replicates", "8"], tmp_path, capsys)
    assert time.perf_counter() - t0 < 1.0


# A fresh interpreter imports the package and runs one tiny command, then
# reports every loaded module of scipy or of numpy.ma (np.unique and
# np.median load it)
_NO_SCIPY_PROBE = """
import sys
import haarlmsm
from haarlmsm import cli
rc = cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m == "numpy.ma" or m.startswith("numpy.ma.")))
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--J-hf", "4", "--J-lf", "3"], id="simulate"),
    pytest.param(["field", "--which", "total", "--J", "3", "--u-points", "5"],
                 id="field-total"),
    pytest.param(["converge", "--which", "hf", "--Jmin", "2", "--Jmax", "3",
                  "--replicates", "8"], id="converge-hf"),
    pytest.param(["converge", "--which", "lf", "--Jmin", "2", "--Jmax", "3",
                  "--replicates", "8"], id="converge-lf"),
    pytest.param(["scale-check", "--which", "hf", "--J", "3",
                  "--n-samples", "1000"], id="scale-check-hf"),
    pytest.param(["scale-check", "--which", "lf", "--J", "2",
                  "--n-samples", "1000"], id="scale-check-lf"),
    pytest.param(["scale-check", "--which", "hf", "--J", "3",
                  "--mode", "independent"], id="scale-check-hf-independent"),
    pytest.param(["scale-check", "--which", "lf", "--J", "2",
                  "--mode", "independent"], id="scale-check-lf-independent"),
    pytest.param(["render"], id="render"),
])
def test_commands_load_no_scipy(argv, tmp_path):
    out = str(tmp_path / "run")
    if argv == ["render"]:
        assert main(["simulate", "--J-hf", "4", "--J-lf", "3",
                     "--out", out]) == 0
        argv = ["render", out + ".csv"]
    else:
        argv = argv + ["--out", out]
    src = os.path.dirname(os.path.dirname(os.path.abspath(haarlmsm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
