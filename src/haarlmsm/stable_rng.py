"""Symmetric-stable sampling and the dyadic coefficient pyramid.

Randomness enters the synthesis in exactly one of two ways.  In
``consistent`` mode a single stable process is sampled on a dyadic grid and
every detail coefficient is read off that one realization through second
differences, so refining the truncation depth never changes coefficients
already drawn.  In ``independent`` mode each coefficient is an independent
standard draw, which is cheaper and matches the coefficients' marginal law
but not their joint law across scales.

All generators are counter-based (Philox) and every grid or row gets its own
spawned stream, so results are reproducible from a single integer seed and
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ParameterError, ResolutionError
from .kernels import check_alpha

MODES = ("consistent", "independent")

# memory guard shared by every routine that sizes an array from a depth or a
# point count: the most float64 values one array (or one pyramid) may hold
MAX_VALUES = 2 ** 26

SeedLike = Union[int, np.random.Generator]


@dataclass(frozen=True)
class StableLaw:
    """Symmetric alpha-stable law with characteristic function
    exp(-(scale*|t|)**alpha)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        if not self.scale > 0.0:
            raise ParameterError(f"scale must be positive, got {self.scale}")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator from an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return make_rng(int(seed))


def sample_sas(law: StableLaw, rng: np.random.Generator, size=None):
    """Draw from a symmetric stable law by the trigonometric method.

    One uniform angle and one unit exponential per variate:

        X = sin(alpha*U) / cos(U)**(1/alpha)
            * (cos((1-alpha)*U) / W)**((1-alpha)/alpha)

    ``size=None`` returns a python float, otherwise an array of that shape.
    """
    a = law.alpha
    scalar = size is None
    n = 1 if scalar else size
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
    w = rng.standard_exponential(size=n)
    x = (np.sin(a * u) / np.cos(u) ** (1.0 / a)
         * (np.cos((1.0 - a) * u) / w) ** ((1.0 - a) / a))
    x *= law.scale
    return float(x[0]) if scalar else x


@dataclass(eq=False)
class LevyGrid:
    """A stable process sampled on a dyadic grid, pinned to 0 at t = 0.

    ``values[i]`` holds the process at t_min + i * 2**-level; the grid must
    straddle the origin so the pinning is exact.
    """

    alpha: float
    t_min: float
    t_max: float
    level: int
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        n = self.values.shape[0]
        return self.t_min + np.arange(n) * 2.0 ** (-self.level)


def build_levy_grid(alpha: float, t_min: float, t_max: float, level: int,
                    rng: SeedLike) -> LevyGrid:
    """Sample a symmetric stable process at spacing 2**-level on [t_min, t_max].

    Increments over each cell are independent stable draws with scale
    2**(-level/alpha); the running sum is then shifted so the value at t = 0
    is exactly zero.
    """
    check_alpha(alpha)
    if not (isinstance(level, (int, np.integer)) and level >= 0):
        raise ParameterError(f"level must be a nonnegative integer, got {level}")
    if not t_min <= 0.0 <= t_max or t_min == t_max:
        raise ParameterError(
            f"grid must straddle 0, got [{t_min}, {t_max}]")
    n_inc_f = (t_max - t_min) * 2.0 ** level
    n_inc = int(round(n_inc_f))
    if abs(n_inc_f - n_inc) > 1e-9 or n_inc <= 0:
        raise ParameterError(
            f"span {t_max - t_min} is not a whole number of steps at level {level}")
    idx0_f = -t_min * 2.0 ** level
    idx0 = int(round(idx0_f))
    if abs(idx0_f - idx0) > 1e-9:
        raise ParameterError(
            f"t_min {t_min} does not sit on the level-{level} grid")
    gen = _as_generator(rng)
    law = StableLaw(alpha, scale=2.0 ** (-level / alpha))
    inc = sample_sas(law, gen, size=n_inc)
    vals = np.empty(n_inc + 1)
    vals[0] = 0.0
    np.cumsum(inc, out=vals[1:])
    vals -= vals[idx0]
    vals[idx0] = 0.0
    return LevyGrid(alpha=alpha, t_min=float(t_min), t_max=float(t_max),
                    level=int(level), values=vals)


def zeta_from_levy(grid: LevyGrid, j: int, k: int) -> float:
    """Detail coefficient at scale j, position k, read from one realization.

    Requires grid resolution at least j + 1 (the midpoint (k + 1/2)/2**j
    must be a grid point) and all three evaluation points inside the grid;
    otherwise raises ResolutionError.
    """
    if grid.level < j + 1:
        raise ResolutionError(
            f"grid level {grid.level} cannot resolve scale {j} "
            f"(needs level >= {j + 1})")
    shift = grid.level - j
    base = int(round(-grid.t_min * 2.0 ** grid.level))
    i0 = k * (1 << shift) + base
    i1 = i0 + (1 << shift)
    imid = i0 + (1 << (shift - 1))
    n = grid.values.shape[0]
    if i0 < 0 or i1 > n - 1:
        raise ResolutionError(
            f"coefficient ({j}, {k}) needs points outside the grid "
            f"[{grid.t_min}, {grid.t_max}]")
    v = grid.values
    coef = -(2.0 ** (j / grid.alpha))
    return float(coef * (v[i0] - 2.0 * v[imid] + v[i1]))


class _Rows:
    """Row lookup by scale, shared by the pyramid and its prefix sums."""

    def hf_row(self, j: int) -> np.ndarray:
        if not 0 <= j < self.J_hf:
            raise ParameterError(f"no coarse-side row {j} (J_hf = {self.J_hf})")
        return self.hf[j]

    def lf_row(self, j: int) -> np.ndarray:
        if not -self.J_lf < j < self.J_lf:
            raise ParameterError(f"no far-past row {j} (J_lf = {self.J_lf})")
        return self.lf[j + self.J_lf - 1]


@dataclass(eq=False)
class CoefficientPyramid(_Rows):
    """Detail coefficients for both halves of the series.

    ``hf[j]`` holds the unit-scale coefficients at positions k = 0..2**j - 1
    for j = 0..J_hf - 1.  ``lf[i]`` holds scale j = i - J_lf + 1 (so j runs
    ascending from 1 - J_lf to J_lf - 1) at negative positions -1..-N with
    N = 2**(J_lf - |j|); entry index i maps to position -(i + 1).  ``z1`` is
    the process value at t = 1 that feeds the leading term.
    """

    alpha: float
    J_hf: int
    J_lf: int
    mode: str
    z1: float
    hf: list = field(default_factory=list)
    lf: list = field(default_factory=list)
    seed: Optional[int] = None
    hf_grid: Optional[LevyGrid] = None
    lf_grid: Optional[LevyGrid] = None


def _pyramid_budget(J_hf: int, J_lf: int, mode: str) -> int:
    coef = (2 ** J_hf - 1) + (3 * 2 ** J_lf - 4) + 1
    if mode == "consistent":
        coef += (2 ** J_hf + 1) + (2 ** (2 * J_lf) + 1)
    return coef


def generate_coefficients(alpha: float, J_hf: int, J_lf: int, mode: str,
                          rng: SeedLike, *,
                          keep_grids: bool = False) -> CoefficientPyramid:
    """Draw every coefficient needed for depth-J_hf / depth-J_lf evaluation.

    In consistent mode two pinned grids are sampled (one on [0, 1] at level
    J_hf, one on [-2**J_lf, 0] at level J_lf) and all rows are second
    differences of them.  In independent mode every coefficient is its own
    standard stable draw.  The total number of float64 values (coefficients
    plus any grids) may not pass MAX_VALUES.
    """
    check_alpha(alpha)
    if not (isinstance(J_hf, (int, np.integer)) and J_hf >= 1):
        raise ParameterError(f"J_hf must be an integer >= 1, got {J_hf}")
    if not (isinstance(J_lf, (int, np.integer)) and J_lf >= 2):
        raise ParameterError(f"J_lf must be an integer >= 2, got {J_lf}")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if keep_grids and mode != "consistent":
        raise ParameterError("keep_grids only makes sense in consistent mode")
    need = _pyramid_budget(J_hf, J_lf, mode)
    if need > MAX_VALUES:
        raise ParameterError(
            f"pyramid would hold {need} values, over the budget of "
            f"{MAX_VALUES}; lower the depths")

    seed_val = None if isinstance(rng, np.random.Generator) else int(rng)
    gen = _as_generator(rng)
    lf_j_range = range(1 - J_lf, J_lf)

    if mode == "consistent":
        g_hf, g_lf = gen.spawn(2)
        hf_grid = build_levy_grid(alpha, 0.0, 1.0, J_hf, g_hf)
        lf_grid = build_levy_grid(alpha, -float(2 ** J_lf), 0.0, J_lf, g_lf)
        v = hf_grid.values
        hf_rows = []
        for j in range(J_hf):
            step = 1 << (J_hf - j)
            half = step >> 1
            z0 = v[0:-1:step]
            zm = v[half::step][: 1 << j]
            z1v = v[step::step]
            coef = -(2.0 ** (j / alpha))
            hf_rows.append(coef * (z0 - 2.0 * zm + z1v))
        z1 = float(v[-1])
        w = lf_grid.values
        base = 1 << (2 * J_lf)
        lf_rows = []
        for j in lf_j_range:
            n_row = 1 << (J_lf - abs(j))
            step = 1 << (J_lf - j)
            ks = np.arange(1, n_row + 1, dtype=np.int64)
            i0 = base - ks * step
            coef = -(2.0 ** (j / alpha))
            lf_rows.append(coef * (w[i0] - 2.0 * w[i0 + (step >> 1)]
                                   + w[i0 + step]))
        return CoefficientPyramid(
            alpha=alpha, J_hf=J_hf, J_lf=J_lf, mode=mode, z1=z1,
            hf=hf_rows, lf=lf_rows, seed=seed_val,
            hf_grid=hf_grid if keep_grids else None,
            lf_grid=lf_grid if keep_grids else None)

    n_lf_rows = 2 * J_lf - 1
    children = gen.spawn(1 + J_hf + n_lf_rows)
    law = StableLaw(alpha, 1.0)
    z1 = sample_sas(law, children[0])
    hf_rows = [sample_sas(law, children[1 + j], size=1 << j)
               for j in range(J_hf)]
    lf_rows = [sample_sas(law, children[1 + J_hf + i],
                          size=1 << (J_lf - abs(j)))
               for i, j in enumerate(lf_j_range)]
    return CoefficientPyramid(alpha=alpha, J_hf=J_hf, J_lf=J_lf, mode=mode,
                              z1=z1, hf=hf_rows, lf=lf_rows, seed=seed_val)


@dataclass(eq=False)
class PrefixSums(_Rows):
    """Running sums of each coefficient row, ready for summation by parts.

    Coarse-side row j holds lambda_k = sum of the first k + 1 coefficients;
    far-past row j holds lambda_k = sum of coefficients at positions
    -1..-k, stored at entry k - 1.
    """

    alpha: float
    J_hf: int
    J_lf: int
    hf: list
    lf: list


def prefix_sums(pyramid: CoefficientPyramid) -> PrefixSums:
    """Cumulative sums of every row of the pyramid."""
    return PrefixSums(alpha=pyramid.alpha, J_hf=pyramid.J_hf,
                      J_lf=pyramid.J_lf,
                      hf=[np.cumsum(r) for r in pyramid.hf],
                      lf=[np.cumsum(r) for r in pyramid.lf])
