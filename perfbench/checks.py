"""Output checks for the benchmark workloads, run outside the timed region.

Every check returns a list of problems (empty when the output is correct).
They import haarlmsm from the checkout's ``src`` and recompute a sample of
the output through slower public routes:

* simulate: y == y1 + y2 bit for bit, everything finite, and y1/y2 at 16
  grid points equal to the per-point ``x1_partial``/``x2_partial`` with
  ``method="naive"`` within 1e-10 relative (acceptance criterion 3), where
  the error is taken relative to the larger of the point's value and the
  half's largest magnitude along the path.
* converge: every norm finite and positive, and replicate 0's norm at the
  smallest depth at least the per-point ``x2_partial`` refinement
  difference on a subsample of its 1025-point grid.
* scale-check: each estimate within SCALE_BAND of the exact consistent-mode
  truncated scale.
"""

from __future__ import annotations

import math

import numpy as np

from haarlmsm import (
    clamp_hurst,
    generate_coefficients,
    hurst_preset,
    prefix_sums,
    read_path_csv,
    truncated_scale_hf,
    truncated_scale_lf,
    x1_partial,
    x2_partial,
)

ROUTE_RTOL = 1e-10
N_CHECK_POINTS = 16
CONVERGE_SUBSAMPLE = 32  # every 32nd point of the 1025-point grid

# Allowed estimate / exact truncated scale.  The CLI estimates by mean(|x|),
# whose left tail is thin but whose right tail decays only like d**-1.5, so
# the upper end must be far out to never trip by chance (see README.md,
# "Scale band"); it still catches order-of-magnitude scaling errors.
SCALE_BAND = (0.80, 50.0)


def _rel_err(a: float, b: float, scale: float) -> float:
    # A half can pass near zero by cancellation of O(scale) terms, where the
    # two routes still differ by roundoff of O(1e-16 * scale): seed
    # 1605315429 at J_hf 9 gives y2 = 3.2e-4 at t = 0.199 with the routes
    # 7e-14 apart.  Measuring against the path's scale keeps the 1e-10
    # tolerance meaningful there.
    denom = max(abs(a), abs(b), scale)
    return abs(a - b) / denom if denom > 0.0 else 0.0


def check_simulate(csv_path: str) -> list:
    sample = read_path_csv(csv_path)
    cfg = sample.config
    problems = []
    cols = (sample.t_grid, sample.y1, sample.y2, sample.y)
    if not all(np.all(np.isfinite(c)) for c in cols):
        problems.append("non-finite values in the path")
    if not np.array_equal(sample.y, sample.y1 + sample.y2):
        problems.append("y differs from y1 + y2")
    H = hurst_preset(cfg["hurst"]["kind"], cfg["hurst"]["params"])
    if cfg["clamped"]:
        H, _ = clamp_hurst(H, cfg["alpha"])
    pyr = generate_coefficients(cfg["alpha"], cfg["pyramid_J_hf"],
                                cfg["pyramid_J_lf"], cfg["mode"], cfg["seed"])
    ps = prefix_sums(pyr)
    n = sample.t_grid.size
    idx = np.unique(np.linspace(0, n - 1, N_CHECK_POINTS).round().astype(int))
    scale1 = float(np.max(np.abs(sample.y1)))
    scale2 = float(np.max(np.abs(sample.y2)))
    worst = 0.0
    for i in idx:
        t = float(sample.t_grid[i])
        v = float(H(t))
        worst = max(
            worst,
            _rel_err(sample.y1[i],
                     x1_partial(t, v, pyr, ps, cfg["J_hf"], "naive"), scale1),
            _rel_err(sample.y2[i],
                     x2_partial(t, v, pyr, ps, cfg["J_lf"], "naive"), scale2))
    if not worst <= ROUTE_RTOL:
        problems.append(f"path disagrees with the per-point naive route at "
                        f"rel {worst:.3e}")
    return problems


def read_converge_csv(csv_path: str):
    """(config, {J: [norm per replicate]}) from a converge output file."""
    import json
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    config = json.loads(lines[0][len("# config: "):])
    header = next(i for i, ln in enumerate(lines) if ln.startswith("J,"))
    norms = {}
    for ln in lines[header + 1:]:
        cells = ln.split(",")
        norms[int(cells[0])] = [float(x) for x in cells[2:]]
    return config, norms


def check_converge(csv_path: str) -> list:
    config, norms = read_converge_csv(csv_path)
    problems = []
    flat = [x for row in norms.values() for x in row]
    if len(norms) != config["Jmax"] - config["Jmin"] + 1 \
            or any(len(row) != config["replicates"] for row in norms.values()):
        problems.append("norm table has the wrong shape")
    if not all(math.isfinite(x) and x > 0.0 for x in flat):
        problems.append("a norm is not finite and positive")
    if config["which"] != "lf" or problems:
        return problems
    # replicate 0 draws its pyramid exactly as convergence_study does
    alpha, v, J = config["alpha"], config["v"], config["Jmin"]
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config["seed"], spawn_key=(0,))))
    pyr = generate_coefficients(alpha, 1, max(config["Jmax"] + 1, 2),
                                "consistent", gen)
    ps = prefix_sums(pyr)
    u_grid = np.linspace(0.0, 1.0, 1025)[::CONVERGE_SUBSAMPLE]
    sub = max(abs(x2_partial(u, v, pyr, ps, J + 1, "naive")
                  - x2_partial(u, v, pyr, ps, J, "naive")) for u in u_grid)
    if not norms[J][0] >= sub * (1.0 - ROUTE_RTOL):
        problems.append(f"replicate 0 norm {norms[J][0]!r} at J={J} is below "
                        f"the per-point difference {sub!r}")
    return problems


def exact_scales(which: str, alpha: float, J: int, pairs) -> dict:
    fn = truncated_scale_hf if which == "hf" else truncated_scale_lf
    return {(u, v): fn(u, v, alpha, J, "consistent") for u, v in pairs}


def check_scale(csv_path: str, exact: dict) -> list:
    """``exact`` maps (u, v) to the exact truncated scale at the file's J."""
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    header = lines.index("u,v,J,estimate,target,rel_dev")
    problems = []
    seen = 0
    for ln in lines[header + 1:]:
        u, v, _, est = (float(x) for x in ln.split(",")[:4])
        ratio = est / exact[u, v]
        seen += 1
        if not SCALE_BAND[0] <= ratio <= SCALE_BAND[1]:
            problems.append(f"estimate at (u={u}, v={v}) is {ratio:.3f} x "
                            f"the exact truncated scale")
    if seen != len(exact):
        problems.append(f"{seen} estimates where {len(exact)} expected")
    return problems
