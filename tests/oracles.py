"""Test oracles kept here because no command uses them: a whole-array
stable grid and scalar reads of it that the package's streamed grids and
row code must reproduce; the series halves summed by parts one row at a
time, which the packed rows of ``series`` must reproduce; and a probe of
the memory a call holds at its peak."""

import tracemalloc
from dataclasses import dataclass

import numpy as np

from haarlmsm import series
from haarlmsm.errors import HaarLmsmError, ParameterError
from haarlmsm.kernels import KernelParams, big_theta, check_alpha, theta
from haarlmsm.stable_rng import MAX_VALUES, StableLaw, sample_sas


class ResolutionError(HaarLmsmError, ValueError):
    """A requested grid point does not exist on the stored dyadic grid."""


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


def build_levy_grid(alpha, t_min, t_max, level, rng) -> LevyGrid:
    """Sample a symmetric stable process at spacing 2**-level on [t_min,
    t_max] as one array: the increments over each cell are one stable draw
    with scale 2**(-level/alpha), and their cumulative sum is shifted so
    the value at t = 0 is exactly zero.  A grid of more than MAX_VALUES
    values is refused before any draw."""
    check_alpha(alpha)
    if not (isinstance(level, (int, np.integer)) and level >= 0):
        raise ParameterError(f"level must be a nonnegative integer, got {level}")
    if not t_min <= 0.0 <= t_max or t_min == t_max:
        raise ParameterError(f"grid must straddle 0, got [{t_min}, {t_max}]")
    n_inc_f = (t_max - t_min) * 2.0 ** level
    n_inc = int(round(n_inc_f))
    if abs(n_inc_f - n_inc) > 1e-9 or n_inc <= 0:
        raise ParameterError(f"span {t_max - t_min} is not a whole number "
                             f"of steps at level {level}")
    if n_inc + 1 > MAX_VALUES:
        raise ParameterError(f"a grid of {n_inc + 1} values is over the "
                             f"budget of {MAX_VALUES}")
    idx0_f = -t_min * 2.0 ** level
    idx0 = int(round(idx0_f))
    if abs(idx0_f - idx0) > 1e-9:
        raise ParameterError(
            f"t_min {t_min} does not sit on the level-{level} grid")
    inc = sample_sas(StableLaw(alpha, scale=2.0 ** (-level / alpha)), rng,
                     size=n_inc)
    vals = np.empty(n_inc + 1)
    vals[0] = 0.0
    np.cumsum(inc, out=vals[1:])
    vals -= vals[idx0]
    vals[idx0] = 0.0
    return LevyGrid(alpha=alpha, t_min=float(t_min), t_max=float(t_max),
                    level=int(level), values=vals)


def grid_times(grid) -> np.ndarray:
    """The times t_min + i * 2**-level of a LevyGrid's values."""
    return grid.t_min + np.arange(grid.values.shape[0]) * 2.0 ** (-grid.level)


def zeta_from_levy(grid, j: int, k: int) -> float:
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


def x1_abel_rows(u, v, pyramid, prefix, J: int) -> np.ndarray:
    """The recent-scales half summed by parts one row at a time: each row
    is its own big_theta table and its own theta call for the end term.
    u is a 1-d array and v one exponent or one per point, as
    series.check_uv returns them."""
    params = KernelParams(pyramid.alpha)
    q = 1.0 + v - 1.0 / pyramid.alpha
    total = np.power(u, q) / q * pyramid.z1
    for j in range(J):
        x = 2.0 ** j * u
        ks = np.arange(1 << j, dtype=float)
        lam = prefix.hf[j]
        s = lam[-1] * theta(x - ks[-1], v, params) \
            + series._table_sum(big_theta, x, v, -ks[:-1], lam[:-1], params)
        total = total + np.power(2.0, -j * v) * s
    return total


def x2_abel_rows(u, v, pyramid, prefix, J: int, halves) -> np.ndarray:
    """The far-past halves named in ``halves`` ("plus", "minus") summed by
    parts one row at a time, each half on its own and then added; each
    block of points builds the anchor big_theta(k, v) once.  u and v as
    for x1_abel_rows."""
    params = KernelParams(pyramid.alpha)
    ks = np.arange(2, (1 << J) + 1, dtype=float)
    total = np.empty(u.shape)
    step = max(1, series._TABLE_ENTRIES // ks.size)
    for a in range(0, u.shape[0], step):
        ub = u[a:a + step]
        vb = v if v.ndim == 0 else v[a:a + step]
        anchor = big_theta(ks, vb if vb.ndim == 0 else vb[:, None], params)
        block = 0.0
        for half in halves:
            part = np.zeros(ub.shape)
            for j in range(J) if half == "plus" else range(-1, -J, -1):
                n_row = 1 << (J - abs(j))
                x = 2.0 ** j * ub
                lam = prefix.lf_row(j)
                s = lam[n_row - 1] * (theta(x + n_row, vb, params)
                                      - theta(float(n_row), vb, params))
                s = s - series._table_sum(big_theta, x, vb, ks[:n_row - 1],
                                          lam[:n_row - 1], params,
                                          anchor[..., :n_row - 1])
                part = part + np.power(2.0, -j * vb) * s
            block = block + part
        total[a:a + step] = block
    return total


def traced_peak(fn) -> int:
    """Bytes that fn's allocations held at their peak, as tracemalloc sees
    them (numpy reports its data buffers to it, from any thread)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
