"""Command-line front end: simulate, field, converge, scale-check, render.

Configuration resolves in three layers: built-in defaults (plus preset
values when --preset is given), then a flat key=value --config file, then
explicit command-line flags.  The effective configuration is echoed into
every output file header, so a result can always be traced back to the run
that made it.  All files are written atomically and all numeric output
uses '.' as the decimal separator regardless of locale.

Exit codes: 0 success, 2 invalid configuration, arguments or input schema,
3 compute failure (including any unexpected exception), 4 I/O failure.
Errors print a single line to stderr of the form
``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from .analysis import (
    convergence_study,
    estimate_scale,
    mc_x1_samples,
    mc_x2_samples,
    truncated_scale_hf,
    truncated_scale_lf,
    x1_theoretical_scale,
    x2_theoretical_scale,
)
from .errors import ConfigError, HaarLmsmError, ParameterError
from .lmsm import (
    PROFILE_PARAMS,
    hurst_preset,
    read_path_csv,
    synthesize_path,
    write_path_csv,
    write_text_atomic,
)
from .series import WHICH, _moment_order, evaluate_field
from .stable_rng import (MAX_VALUES, MODES, _check_budget,
                         generate_coefficients, prefix_sums)

# Fig. 1 style demonstration setups: exponent profile, stability index,
# and the boundary flag for profiles that graze the admissible band
PRESETS = {
    "fig1-row1": {"alpha": 1.4, "hurst": "linear:0.9,-0.2",
                  "allow_boundary": True},
    "fig1-row2": {"alpha": 1.7, "hurst": "sine:0.2,0.8",
                  "allow_boundary": True},
    "fig1-row3": {"alpha": 1.6, "hurst": "logistic:0.65,0.25",
                  "allow_boundary": False},
}

SCALE_CHECK_PAIRS = ((0.25, 0.7), (0.25, 0.8), (0.5, 0.7),
                     (0.5, 0.8), (1.0, 0.7), (1.0, 0.8))

SLOPE_TOLERANCE = 0.15

# kernel table entries one simulate or field run may evaluate (about a
# minute at the 4e6 entries/s measured on a 2-core host)
MAX_TABLE_ENTRIES = 2 ** 28


@dataclass
class RunConfig:
    command: str
    alpha: float = 1.5
    hurst: str = "constant:0.75"
    J_hf: int = 12
    J_lf: int = 6
    seed: int = 0
    mode: str = "consistent"
    n_points: int = None
    allow_boundary: bool = False
    preset: str = None
    which: str = None
    J: int = None
    u_points: int = 65
    v_values: str = "0.7,0.75,0.8"
    v: float = 0.75
    Jmin: int = 6
    Jmax: int = 14
    replicates: int = 16
    n_samples: int = 20000
    input: str = None
    out: str = None


# Each command and the settings it reads, each one a flag, a --config key
# and part of the echoed header.  Output paths stay out of the echo so
# identical runs aimed at different destinations still produce
# byte-identical files
TAKES = {
    "simulate": ("alpha", "hurst", "J_hf", "J_lf", "seed", "mode",
                 "n_points", "allow_boundary", "preset"),
    "field": ("alpha", "which", "J", "J_hf", "J_lf", "u_points", "v_values",
              "seed", "mode"),
    "converge": ("alpha", "which", "v", "Jmin", "Jmax", "replicates", "seed"),
    "scale-check": ("alpha", "which", "J", "n_samples", "seed", "mode"),
    "render": (),
}

_TYPES = get_type_hints(RunConfig)
_HURST_HELP = "kind:params, e.g. constant:0.75 or logistic:0.65,0.25"


def _choices(command: str) -> dict:
    """Allowed values of the settings that name one of a fixed set."""
    return {"mode": MODES, "preset": tuple(sorted(PRESETS)),
            "which": WHICH if command == "field" else ("hf", "lf")}


def _config_echo(config: RunConfig) -> dict:
    d = asdict(config)
    keep = ("command",) + TAKES[config.command]
    return {k: d[k] for k in keep if d[k] is not None}


def parse_hurst_spec(spec: str):
    """Build an exponent profile from a 'kind:params' string.

    constant:V | linear:START,SLOPE | sine:AMPLITUDE,OFFSET[,CYCLES]
    | logistic:LOW,HEIGHT[,RATE,CENTER] | table:t0,h0,t1,h1,...
    Positional values map onto the parameter names of
    ``lmsm.PROFILE_PARAMS``; trailing ones with defaults may be left out.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    try:
        vals = [float(x) for x in rest.split(",")] if rest.strip() else []
    except ValueError:
        raise ConfigError(f"bad numeric value in hurst spec {spec!r}")
    if kind in ("table", "custom-table"):
        if len(vals) < 4 or len(vals) % 2:
            raise ConfigError(
                f"table hurst spec needs t,h pairs, got {spec!r}")
        knots = list(zip(vals[0::2], vals[1::2]))
        return hurst_preset("custom-table", {"knots": knots})
    if kind not in PROFILE_PARAMS:
        raise ConfigError(f"unknown hurst kind {kind!r} in {spec!r}")
    names, defaults = PROFILE_PARAMS[kind]
    lo, hi = len(names) - len(defaults), len(names)
    if not lo <= len(vals) <= hi:
        raise ConfigError(
            f"hurst spec {spec!r} takes {lo}..{hi} parameters, "
            f"got {len(vals)}")
    return hurst_preset(kind, dict(zip(names, vals)))


def read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(
                f"{path}:{i}: expected key=value, got {line!r}")
        if key not in _TYPES or key in ("command", "preset"):
            raise ConfigError(f"{path}:{i}: unknown config key {key!r}")
        out[key] = _coerce(key, value, i, path)
    return out


def _coerce(key, value, lineno, path):
    kind = _TYPES[key]
    if kind is bool:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{path}:{lineno}: bad boolean {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}")


# ------------------------------------------------------------- rendering --

_SERIES_STYLE = (("y1", "#1f77b4"), ("y2", "#d62728"), ("y", "#2ca02c"))


def render_path_svg(sample) -> str:
    """Static self-contained SVG of the three path columns.

    Output is a pure function of the sample, so identical inputs give
    byte-identical files.
    """
    t = np.asarray(sample.t_grid, dtype=float)
    if t.size == 0:
        raise ConfigError("no data rows to render")
    series = [np.asarray(getattr(sample, name), dtype=float)
              for name, _ in _SERIES_STYLE]
    if not all(np.isfinite(col).all() for col in [t] + series):
        raise ConfigError("cannot render non-finite (NaN or inf) values")
    width, height = 920.0, 560.0
    ml, mr, mt, mb = 70.0, 24.0, 44.0, 52.0
    pw, ph = width - ml - mr, height - mt - mb
    t0, t1 = float(t[0]), float(t[-1])
    tspan = t1 - t0 if t1 > t0 else 1.0
    lo = min(float(np.min(s)) for s in series)
    hi = max(float(np.max(s)) for s in series)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(val):
        return ml + (val - t0) / tspan * pw

    def sy(val):
        return mt + (hi - val) / (hi - lo) * ph

    cfg = dict(sample.config)
    desc = json.dumps(cfg, sort_keys=True)
    desc = desc.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    title_bits = []
    for key in ("alpha", "seed", "J_hf", "J_lf", "mode"):
        if key in cfg:
            title_bits.append(f"{key}={cfg[key]}")
    hcfg = cfg.get("hurst", {})
    if isinstance(hcfg, dict) and "kind" in hcfg:
        title_bits.append(f"hurst={hcfg['kind']}")
    if cfg.get("clamped"):
        title_bits.append("clamped")
    title = " ".join(title_bits)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">')
    parts.append(f"<desc>{desc}</desc>")
    parts.append(f'<rect x="0" y="0" width="{width:.0f}" '
                 f'height="{height:.0f}" fill="#ffffff"/>')
    parts.append(
        f'<text x="{ml:.1f}" y="24" font-family="monospace" '
        f'font-size="13" fill="#333333">{title}</text>')
    parts.append(
        f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{pw:.1f}" '
        f'height="{ph:.1f}" fill="none" stroke="#888888"/>')
    for i in range(6):
        frac = i / 5.0
        tx = t0 + frac * tspan
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.3f}" y1="{mt + ph:.3f}" x2="{px:.3f}" '
            f'y2="{mt + ph + 5:.3f}" stroke="#888888"/>')
        parts.append(
            f'<text x="{px:.3f}" y="{mt + ph + 20:.3f}" '
            f'font-family="monospace" font-size="11" fill="#333333" '
            f'text-anchor="middle">{tx:.3g}</text>')
        ty = lo + frac * (hi - lo)
        py = sy(ty)
        parts.append(
            f'<line x1="{ml - 5:.3f}" y1="{py:.3f}" x2="{ml:.3f}" '
            f'y2="{py:.3f}" stroke="#888888"/>')
        parts.append(
            f'<text x="{ml - 9:.3f}" y="{py + 4:.3f}" '
            f'font-family="monospace" font-size="11" fill="#333333" '
            f'text-anchor="end">{ty:.4g}</text>')
    parts.append(
        f'<text x="{ml + pw / 2:.3f}" y="{height - 12:.3f}" '
        f'font-family="monospace" font-size="12" fill="#333333" '
        f'text-anchor="middle">t</text>')
    for idx, ((name, color), vals) in enumerate(zip(_SERIES_STYLE, series)):
        if t.size == 1:
            parts.append(
                f'<circle cx="{sx(t[0]):.3f}" cy="{sy(vals[0]):.3f}" '
                f'r="4" fill="{color}"/>')
        else:
            pts = " ".join(f"{sx(a):.3f},{sy(b):.3f}"
                           for a, b in zip(t, vals))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.2"/>')
        parts.append(
            f'<text x="{ml + pw - 14:.3f}" y="{mt + 18 + 16 * idx:.3f}" '
            f'font-family="monospace" font-size="12" fill="{color}" '
            f'text-anchor="end">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------- workflows --

def _out_paths(config: RunConfig, fallback: str):
    base = config.out or (config.preset or fallback)
    if base.endswith(".csv") or base.endswith(".svg"):
        base = base[:-4]
    return base + ".csv", base + ".svg"


def _check_work(command: str, n_points: int, row_length: int) -> None:
    """Refuse a run whose kernel tables, n_points x the summed length of the
    series rows it evaluates, would pass MAX_TABLE_ENTRIES."""
    work = n_points * row_length
    if work > MAX_TABLE_ENTRIES:
        raise ConfigError(f"{command} needs about 2**{math.log2(work):.2f} "
                          f"table entries, over the {MAX_TABLE_ENTRIES} budget")


def _far_past_study_work(Jmin: int, Jmax: int, points: int) -> int:
    """Work per replicate of ``converge --which lf``, in kernel table
    entries: for every depth step J -> J + 1 and row j, the stretch of
    terms it adds costs R x (its length + points) where
    series.far_past_terms sums it by R Taylor terms (at points up to
    u = 1), else points x its length, a kernel table.  The pyramid's
    4**(Jmax + 1) far-past draws count a quarter entry each (on two cores
    2**24 draws took 0.95 s, 2**24 entries about 4 s)."""
    work = 4 ** max(Jmax, 1)
    for J in range(Jmin, Jmax + 1):
        for j in range(-J, J + 1):
            lo = 1 << (J - abs(j)) if abs(j) < J else 0
            hi = 1 << (J + 1 - abs(j))
            R = _moment_order(j, lo, 1.0)
            work += R * (hi - lo + points) if R else points * (hi - lo)
    return work


def _run_simulate(config: RunConfig) -> int:
    """Synthesize one path to CSV+SVG."""
    H = parse_hurst_spec(config.hurst)
    # depths below the minimum are refused where the pyramid is drawn
    n = (config.n_points if config.n_points is not None
         else (1 << max(config.J_hf, 0)) + 1)
    if not 1 <= n <= MAX_VALUES:
        raise ConfigError(f"n_points must lie in 1..{MAX_VALUES}, got {n}")
    # rows of 2**J_hf and about 3 * 2**J_lf terms in all
    _check_work("simulate", n, (1 << max(config.J_hf, 0))
                + 3 * (1 << max(config.J_lf, 0)))
    t_grid = np.linspace(0.0, 1.0, n)
    sample = synthesize_path(
        config.alpha, H, t_grid=t_grid, J_hf=config.J_hf, J_lf=config.J_lf,
        seed=config.seed, mode=config.mode,
        allow_boundary=config.allow_boundary)
    sample.config["cli"] = _config_echo(config)
    csv_path, svg_path = _out_paths(config, "path")
    write_path_csv(sample, csv_path)
    write_text_atomic(svg_path, render_path_svg(sample))
    print(f"wrote {csv_path} and {svg_path} ({n} points)")
    return 0


def _run_field(config: RunConfig) -> int:
    """Evaluate a (u, v) field to CSV."""
    which = config.which or "total"
    try:
        v_values = sorted(float(x) for x in config.v_values.split(","))
    except ValueError:
        raise ConfigError(f"bad v_values list {config.v_values!r}")
    if config.u_points < 2:
        raise ConfigError(f"u_points must be >= 2, got {config.u_points}")
    if config.J is not None:
        J = config.J
    else:
        J = config.J_hf if which == "hf" else config.J_lf
    # 2**J recent-scales terms, at most 3 * 2**J far-past ones
    _check_work("field", config.u_points * len(v_values),
                {"hf": 1, "total": 4}.get(which, 3) << max(J, 0))
    u_grid = np.linspace(0.0, 1.0, config.u_points)
    pyr = generate_coefficients(
        config.alpha, max(J, config.J_hf, 1), max(J, config.J_lf, 2),
        config.mode, config.seed)
    ps = prefix_sums(pyr)
    values = evaluate_field(u_grid, v_values, pyr, ps, J, which)
    lines = ["# config: " + json.dumps(_config_echo(config), sort_keys=True)]
    lines.append("u," + ",".join(repr(float(v)) for v in v_values))
    for u, vals in zip(u_grid, values):
        row = ",".join(repr(float(x)) for x in vals)
        lines.append(f"{float(u)!r},{row}")
    csv_path, _ = _out_paths(config, "field")
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    print(f"wrote {csv_path} "
          f"({config.u_points}x{len(v_values)} {which} values at J={J})")
    return 0


def _run_converge(config: RunConfig) -> int:
    """Truncation-rate study."""
    which = config.which or "hf"
    # the study draws one pyramid at depth Jmax + 1; one that
    # generate_coefficients would refuse is refused before anything is
    # sized by Jmax (no depth past log2(MAX_VALUES) fits its budget)
    depth = config.Jmax + 1
    if depth > MAX_VALUES.bit_length():
        raise ConfigError(f"--Jmax {config.Jmax}: no pyramid is that deep")
    try:
        _check_budget(*((depth, 2) if which == "hf" else (1, max(depth, 2))),
                      "consistent")
    except ParameterError as exc:
        raise ConfigError(f"--Jmax {config.Jmax}: {exc}") from None
    J_list = list(range(config.Jmin, config.Jmax + 1))
    # per replicate: lf sums the terms each depth step adds at 1025 points,
    # hf convolves at most 4 * 2**J values per depth J; depths the study
    # refuses are left to it
    if which == "lf":
        _check_work("converge", config.replicates,
                    _far_past_study_work(config.Jmin, config.Jmax, 1025))
    else:
        gained = (2 << max(config.Jmax, 0)) - (1 << max(config.Jmin, 0))
        _check_work("converge", config.replicates, 4 * gained)
    report = convergence_study(
        which, config.alpha, (config.v, config.v), J_list,
        config.replicates, config.seed)
    gap = None
    verdict = "NO-SLOPE"
    if report.fitted_slope is not None:
        gap = abs(report.fitted_slope - report.theoretical_slope)
        verdict = "PASS" if gap <= SLOPE_TOLERANCE else "FAIL"
    lines = ["# config: " + json.dumps(_config_echo(config), sort_keys=True)]
    lines.append(f"# grid_spec: {report.grid_spec}")
    if report.fitted_slope is not None:
        lines.append(f"# fitted_slope: {report.fitted_slope!r}")
    lines.append(f"# theoretical_slope: {report.theoretical_slope!r}")
    header = "J,median," + ",".join(f"rep{r}" for r in range(report.replicates))
    lines.append(header)
    for p, J in enumerate(report.J_list):
        cells = [str(J), repr(float(report.medians[p]))]
        cells += [repr(float(x)) for x in report.norms[p]]
        lines.append(",".join(cells))
    csv_path, _ = _out_paths(config, "converge")
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    print(f"convergence study {report.which}: alpha={config.alpha} "
          f"v={config.v} J={config.Jmin}..{config.Jmax} "
          f"replicates={config.replicates} seed={config.seed}")
    if report.fitted_slope is not None:
        print(f"fitted slope: {report.fitted_slope:+.4f}")
    print(f"theoretical slope: {report.theoretical_slope:+.4f}")
    if gap is not None:
        print(f"|fitted - theoretical| = {gap:.4f} "
              f"(tolerance {SLOPE_TOLERANCE}): {verdict}")
    else:
        print("single depth, no slope fitted")
    print(f"wrote {csv_path}")
    return 0


def _run_scale_check(config: RunConfig) -> int:
    """Marginal scale against theory."""
    which = config.which or "hf"
    J = config.J if config.J is not None else (14 if which == "hf" else 9)
    pairs = SCALE_CHECK_PAIRS
    theory = {}
    for (u, v) in pairs:
        theory[u, v] = (x1_theoretical_scale(u, v, config.alpha)
                        if which == "hf"
                        else x2_theoretical_scale(u, v, config.alpha))
    rows = []
    if config.mode == "consistent":
        if which == "hf":
            samples = mc_x1_samples(pairs, config.alpha, J, config.n_samples,
                                    config.seed)
        else:
            samples = mc_x2_samples(pairs, config.alpha, [J],
                                    config.n_samples, config.seed)[J]
        for i, (u, v) in enumerate(pairs):
            est = estimate_scale(samples[:, i], config.alpha)
            rows.append((u, v, est))
        label = f"estimated scale ({config.n_samples} replicates)"
    else:
        # independent mode has a closed-form truncated scale; no sampling
        for (u, v) in pairs:
            fn = truncated_scale_hf if which == "hf" else truncated_scale_lf
            rows.append((u, v, fn(u, v, config.alpha, J, "independent")))
        label = "exact truncated scale"
    lines = ["# config: " + json.dumps(_config_echo(config), sort_keys=True)]
    lines.append("u,v,J,estimate,target,rel_dev")
    print(f"{which} scale check at J={J}, alpha={config.alpha}, "
          f"mode={config.mode} ({label})")
    print(f"{'u':>6} {'v':>6} {'estimate':>12} {'target':>12} {'rel dev':>9}")
    for (u, v, est) in rows:
        tgt = theory[u, v]
        dev = est / tgt - 1.0
        print(f"{u:6.2f} {v:6.2f} {est:12.6f} {tgt:12.6f} {dev:+9.2%}")
        lines.append(f"{float(u)!r},{float(v)!r},{J},{float(est)!r},"
                     f"{float(tgt)!r},{float(dev)!r}")
    csv_path, _ = _out_paths(config, "scale-check")
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    return 0


def _run_render(config: RunConfig) -> int:
    """Path CSV to SVG."""
    if not config.input:
        raise ConfigError("render needs an input CSV path")
    sample = read_path_csv(config.input)
    stem = config.input[:-4] if config.input.endswith(".csv") \
        else config.input
    svg_path = config.out or (stem + ".svg")
    if not svg_path.endswith(".svg"):
        svg_path += ".svg"
    write_text_atomic(svg_path, render_path_svg(sample))
    print(f"wrote {svg_path}")
    return 0


def run(config: RunConfig) -> int:
    """Dispatch a RunConfig checked by build_config; returns the status."""
    if config.command not in TAKES:
        raise ConfigError(f"unknown command {config.command!r}")
    return _HANDLERS[config.command](config)


_HANDLERS = {
    "simulate": _run_simulate,
    "field": _run_field,
    "converge": _run_converge,
    "scale-check": _run_scale_check,
    "render": _run_render,
}


# ------------------------------------------------------------ arg parsing --

class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a ConfigError, so main() reports it on the
    one error line; subparsers are built from the same class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haarlmsm",
        description="Sample-path synthesis and validation for linear "
                    "(multi)fractional stable motion.")
    sub = parser.add_subparsers(dest="command")
    for command, takes in TAKES.items():
        p = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        if command == "render":
            p.add_argument("input", nargs="?", default=None)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default=None)
        choices = _choices(command)
        for name in takes:
            flag = "--" + name.replace("_", "-")
            if _TYPES[name] is bool:
                p.add_argument(flag, dest=name, action="store_true",
                               default=None)
                continue
            help_text = _HURST_HELP if name == "hurst" else None
            if name in choices:
                help_text = "one of " + ", ".join(choices[name])
            p.add_argument(flag, dest=name, type=_TYPES[name], default=None,
                           help=help_text)
    return parser


def build_config(argv) -> RunConfig:
    """Resolve defaults, preset, --config file and flags, later winning,
    then refuse a setting outside its fixed set of names."""
    ns = _build_parser().parse_args(argv)
    if not ns.command:
        raise ConfigError("a command is required")
    config = RunConfig(command=ns.command)
    # an unknown preset name is refused below with the other choices
    for key, value in PRESETS.get(getattr(ns, "preset", None), {}).items():
        setattr(config, key, value)
    if ns.config:
        for key, value in read_config_file(ns.config).items():
            setattr(config, key, value)
    for f in fields(RunConfig):
        value = getattr(ns, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    takes = TAKES[config.command]
    for key, allowed in _choices(config.command).items():
        value = getattr(config, key)
        if key in takes and value is not None and value not in allowed:
            raise ConfigError(
                f"{key} must be one of {allowed}, got {value!r}")
    return config


def main(argv=None) -> int:
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
        return run(config)
    except HaarLmsmError as exc:
        if isinstance(exc, ValueError):
            print(f"error: config: {exc}", file=sys.stderr)
            return 2
        print(f"error: compute: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"error: compute: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
