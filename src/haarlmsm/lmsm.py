"""Path synthesis with a time-varying regularity exponent.

A path is the synthesis field evaluated along the moving exponent: at each
grid time t the two series halves are summed with v = H(t), sharing one
coefficient pyramid across the whole path.  With a constant H this reduces
to the self-similar case; a varying H changes local regularity along the
path while the driving randomness stays fixed.

The admissible exponent band is (1/alpha, 1), open on both sides.  Profiles
that graze or cross the ends can either be rejected (the default, with every
violation spelled out) or clipped to the band with a small safety margin,
in which case the clipping is recorded in the resulting sample's config.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, ParameterError
from .kernels import check_alpha
from .series import x1_partial, x2_partial
from .stable_rng import generate_coefficients, prefix_sums

EPS_MARGIN = 1e-6
_DENSE = 2 ** 12 + 1

# profile kind -> (parameter names in positional order, defaults of the
# trailing ones)
PROFILE_PARAMS = {
    "constant": (("value",), {}),
    "linear": (("start", "slope"), {}),
    "sine": (("amplitude", "offset", "cycles"), {"cycles": 2.0}),
    "logistic": (("low", "height", "rate", "center"),
                 {"rate": 100.0, "center": 0.5}),
    "custom-table": (("knots",), {}),
}


@dataclass(eq=False)
class HurstFunction:
    """A regularity profile t -> H(t) on [0, 1].

    ``declared_bounds`` is the (min, max) the profile claims to stay inside;
    validation checks both the declaration and a dense sampling of the
    actual values.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    declared_bounds: tuple
    params: dict = field(default_factory=dict)

    def __call__(self, t):
        scalar = np.isscalar(t) or getattr(t, "ndim", 0) == 0
        out = np.asarray(self.fn(np.atleast_1d(np.asarray(t, dtype=float))),
                         dtype=float)
        return float(out[0]) if scalar else out


def _need(parameters: dict, name: str):
    keys, defaults = PROFILE_PARAMS[name]
    unknown = set(parameters) - set(keys)
    if unknown:
        raise ParameterError(
            f"unknown parameter(s) {sorted(unknown)} for profile {name!r}")
    out = dict(defaults)
    out.update(parameters)
    missing = [k for k in keys if k not in out]
    if missing:
        raise ParameterError(
            f"profile {name!r} needs parameter(s) {missing}")
    return out


def hurst_preset(name: str, parameters: Optional[dict] = None) -> HurstFunction:
    """Build one of the named regularity profiles.

    constant(value); linear(start, slope); sine(amplitude, offset, cycles=2);
    logistic(low, height, rate=100, center=0.5);
    custom-table(knots=[[t, h], ...]) with linear interpolation ("table"
    is accepted as an alias).
    """
    parameters = dict(parameters or {})
    if name == "constant":
        p = _need(parameters, name)
        v = float(p["value"])
        return HurstFunction("constant", lambda t: np.full_like(t, v),
                             (v, v), p)
    if name == "linear":
        p = _need(parameters, name)
        s, m = float(p["start"]), float(p["slope"])
        ends = (s, s + m)
        return HurstFunction("linear", lambda t: s + m * t,
                             (min(ends), max(ends)), p)
    if name == "sine":
        p = _need(parameters, name)
        a, o, c = float(p["amplitude"]), float(p["offset"]), float(p["cycles"])
        return HurstFunction(
            "sine", lambda t: o + a * np.sin(2.0 * np.pi * c * t),
            (o - abs(a), o + abs(a)), p)
    if name == "logistic":
        p = _need(parameters, name)
        lo, h = float(p["low"]), float(p["height"])
        r, c = float(p["rate"]), float(p["center"])

        def f(t):
            return lo + h / (1.0 + np.exp(r * (t - c)))

        ends = (float(f(np.array([0.0]))[0]), float(f(np.array([1.0]))[0]))
        return HurstFunction("logistic", f, (min(ends), max(ends)), p)
    if name in ("custom-table", "table"):
        p = _need(parameters, "custom-table")
        knots = [(float(a), float(b)) for a, b in p["knots"]]
        if len(knots) < 2:
            raise ParameterError("custom-table needs at least 2 knots")
        ts = np.array([k[0] for k in knots])
        hs = np.array([k[1] for k in knots])
        if np.any(np.diff(ts) <= 0.0):
            raise ParameterError("custom-table knots must be strictly "
                                 "increasing in t")
        return HurstFunction(
            "custom-table", lambda t: np.interp(t, ts, hs),
            (float(hs.min()), float(hs.max())),
            {"knots": [[a, b] for a, b in knots]})
    raise ParameterError(
        f"unknown profile {name!r}; choose from {tuple(PROFILE_PARAMS)}")


def validate_params(alpha: float, H: HurstFunction, *,
                    allow_boundary: bool = False) -> list:
    """Check the profile stays EPS_MARGIN inside both ends of (1/alpha, 1).

    Returns the list of violations (empty when clean).  Unless
    ``allow_boundary`` is set, any violation raises ParameterError with all
    of them listed on one line.  A non-finite declared bound or sampled
    value raises even then, because clipping cannot repair it.
    """
    check_alpha(alpha)
    lo = 1.0 / alpha + EPS_MARGIN
    hi = 1.0 - EPS_MARGIN
    msgs = []
    dlo, dhi = H.declared_bounds
    t = np.linspace(0.0, 1.0, _DENSE)
    vals = H(t)
    non_finite = not np.all(np.isfinite(np.r_[dlo, dhi, vals]))
    if non_finite:
        msgs.append(f"declared bounds ({dlo:.6g}, {dhi:.6g}) or sampled "
                    f"values are not finite")
    if dlo < lo:
        msgs.append(f"declared lower bound {dlo:.6g} is below "
                    f"1/alpha + margin = {lo:.6g}")
    if dhi > hi:
        msgs.append(f"declared upper bound {dhi:.6g} is above "
                    f"1 - margin = {hi:.6g}")
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    if vals[i_min] < lo:
        msgs.append(f"sampled value {vals[i_min]:.6g} at t = {t[i_min]:.4f} "
                    f"is below 1/alpha + margin = {lo:.6g}")
    if vals[i_max] > hi:
        msgs.append(f"sampled value {vals[i_max]:.6g} at t = {t[i_max]:.4f} "
                    f"is above 1 - margin = {hi:.6g}")
    if msgs and (non_finite or not allow_boundary):
        raise ParameterError(
            "regularity profile leaves the admissible band: "
            + "; ".join(msgs))
    return msgs


def clamp_hurst(H: HurstFunction, alpha: float) -> tuple:
    """Clip the profile into [1/alpha + EPS_MARGIN, 1 - EPS_MARGIN].

    Returns (clipped profile, fraction of a dense sampling that moved).
    """
    lo = 1.0 / alpha + EPS_MARGIN
    hi = 1.0 - EPS_MARGIN
    if lo >= hi:
        raise ParameterError(
            f"empty admissible band at alpha = {alpha} with margin "
            f"{EPS_MARGIN}")
    base = H.fn

    def f(t):
        return np.clip(base(t), lo, hi)

    t = np.linspace(0.0, 1.0, _DENSE)
    raw = H(t)
    frac = float(np.mean((raw < lo) | (raw > hi)))
    clipped = HurstFunction(
        kind=H.kind, fn=f,
        declared_bounds=(max(H.declared_bounds[0], lo),
                         min(H.declared_bounds[1], hi)),
        params=dict(H.params))
    return clipped, frac


@dataclass(eq=False)
class PathSample:
    """A synthesized path: the two series halves and their sum, on t_grid.

    ``y`` is stored as the exact float sum y1 + y2.  ``config`` echoes
    everything needed to regenerate the sample byte for byte.
    """

    t_grid: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y: np.ndarray
    config: dict


def synthesize_path(alpha: float, H, t_grid=None, J_hf: int = 12,
                    J_lf: int = 6, seed: int = 0, mode: str = "consistent",
                    *, allow_boundary: bool = False) -> PathSample:
    """Synthesize one path on t_grid (default: 2**J_hf + 1 uniform points).

    ``H`` may be a HurstFunction or a plain number (constant profile).  The
    pyramid is drawn at the evaluation depths, and each half is one series
    call over the whole grid.
    """
    if isinstance(H, (int, float)):
        H = hurst_preset("constant", {"value": float(H)})
    violations = validate_params(alpha, H, allow_boundary=allow_boundary)
    clamp_frac = 0.0
    if violations:
        H, clamp_frac = clamp_hurst(H, alpha)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 2 ** J_hf + 1)
    t_grid = np.asarray(t_grid, dtype=float)
    # the series refuse a t outside [0, 1]
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ParameterError("t_grid must be a nonempty 1-d array")
    pyr = generate_coefficients(alpha, J_hf, J_lf, mode, seed)
    ps = prefix_sums(pyr)
    vs = H(t_grid)
    y1 = x1_partial(t_grid, vs, pyr, ps, J_hf)
    y2 = x2_partial(t_grid, vs, pyr, ps, J_lf)
    config = {
        "alpha": alpha, "J_hf": J_hf, "J_lf": J_lf,
        "pyramid_J_hf": J_hf, "pyramid_J_lf": J_lf,
        "seed": pyr.seed, "mode": mode,
        "hurst": {"kind": H.kind, "params": H.params,
                  "declared_bounds": list(H.declared_bounds)},
        "clamped": bool(violations),
        "n_points": int(t_grid.size),
        "version": __version__,
    }
    if violations:
        config["clamp_fraction"] = clamp_frac
        config["violations"] = violations
    return PathSample(t_grid=t_grid, y1=y1, y2=y2, y=y1 + y2, config=config)


def path_to_csv(sample: PathSample) -> str:
    """Render a path as CSV: a config comment line, a header, then rows.

    Floats are written with repr, which round-trips exactly, so reading the
    file back reproduces the arrays bit for bit.
    """
    lines = ["# config: " + json.dumps(sample.config, sort_keys=True)]
    lines.append("t,y1,y2,y")
    for t, a, b, c in zip(sample.t_grid, sample.y1, sample.y2, sample.y):
        lines.append(f"{float(t)!r},{float(a)!r},{float(b)!r},{float(c)!r}")
    return "\n".join(lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write text through a temp file in the same directory plus a rename,
    so readers never see a partial file.  Newlines are written as given."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_path_csv(sample: PathSample, path) -> None:
    """Atomic write of path_to_csv output."""
    write_text_atomic(path, path_to_csv(sample))


def read_path_csv(path) -> PathSample:
    """Read a file written by write_path_csv; ConfigError on malformed input."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ConfigError(f"{path} lacks the config comment line")
    try:
        config = json.loads(lines[0][len("# config: "):])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad config line in {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config line in {path} is not a JSON object")
    if len(lines) < 2 or lines[1] != "t,y1,y2,y":
        raise ConfigError(f"{path} lacks the t,y1,y2,y header")
    rows = [ln for ln in lines[2:] if ln]
    try:
        data = np.array([[float(x) for x in ln.split(",")] for ln in rows])
    except ValueError as exc:
        raise ConfigError(f"bad data row in {path}: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, 4)
    if data.shape[1] != 4:
        raise ConfigError(f"{path} rows must have 4 columns")
    return PathSample(t_grid=data[:, 0], y1=data[:, 1], y2=data[:, 2],
                      y=data[:, 3], config=config)
