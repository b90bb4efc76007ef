"""Test oracles kept here because no command uses them: a whole-array
stable grid and scalar reads of it that the package's streamed grids and
row code must reproduce; the far-past grid as a sorted set, looked up
by searchsorted, which the closed forms of ``stable_rng`` must reproduce;
the series halves summed one row at a time on
either route, which the packed rows of ``series`` must reproduce; probes
of the memory a call holds at its peak and after it returns; theta's Taylor
coefficients one order at a time, which the one tail table of
``kernels.theta_taylor`` must reproduce; and the truncated power, the
independent reference for the recent-scales leading term u**q / q that
``kernels.box`` gives."""

import tracemalloc
from dataclasses import dataclass

import numpy as np

from haarlmsm.errors import HaarLmsmError, ParameterError
from haarlmsm import kernels
from haarlmsm.kernels import KernelParams, big_theta, check_alpha, theta
from haarlmsm.stable_rng import MAX_VALUES, StableLaw, sample_sas


def far_past_union(J: int):
    """The points the depth-J far-past rows read, as the sorted set of every
    (left, mid, right) point of every row, in units of 2**-J, and {j: the
    (3, n) indices of row j's points in it}, found by searchsorted."""
    reads = {}
    for j in range(1 - J, J):
        step = 2 ** (J - j)
        left = -np.arange(1, 2 ** (J - abs(j)) + 1, dtype=np.int64) * step
        reads[j] = (left, left + step // 2, left + step)
    nums = np.unique(np.concatenate([p for abm in reads.values()
                                     for p in abm]))
    return nums, {j: np.stack([np.searchsorted(nums, p) for p in abm])
                  for j, abm in reads.items()}


def truncated_power(s, kappa):
    """Return s**kappa for s > 0 and exactly 0 for s <= 0.

    Total on the real line (an overflow saturates to inf); scalars in,
    scalar out, arrays elementwise, kappa a scalar or broadcast against s.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    mask = s > 0.0
    with np.errstate(over="ignore"):
        out[mask] = np.power(s[mask], kappa if np.ndim(kappa) == 0
                             else np.broadcast_to(kappa, s.shape)[mask])
    return float(out) if out.ndim == 0 else out


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


def _row_sum(kernel, x, v, offsets, coef, params, anchor=None):
    """sum_k coef_k [kernel(x_i + offsets_k, v_i) - anchor_k] at every
    point i, through one table of all the points and the row's terms."""
    table = kernel(x[:, None] + offsets, v if v.ndim == 0 else v[:, None],
                   params)
    if anchor is not None:
        table -= anchor
    return (table * coef).sum(axis=1)


def x1_rows(u, v, pyramid, prefix, J: int, method: str) -> np.ndarray:
    """The recent-scales half one row at a time, each row its own table:
    coefficients against theta (``naive``), or running sums against
    big_theta (``abel``), whose last term is the end term of the summation
    by parts, since theta(x - 2**j) vanishes.  u is a 1-d array and v one
    exponent or one per point, as series.check_uv returns them."""
    params = KernelParams(pyramid.alpha)
    q = 1.0 + v - 1.0 / pyramid.alpha
    total = np.power(u, q) / q * pyramid.z1
    for j in range(J):
        ks = np.arange(1 << j, dtype=float)
        kernel, row = ((theta, pyramid.hf[j]) if method == "naive"
                       else (big_theta, prefix.hf[j]))
        s = _row_sum(kernel, 2.0 ** j * u, v, -ks, row, params)
        total = total + np.power(2.0, -j * v) * s
    return total


def x2_rows(u, v, pyramid, prefix, J: int, halves, method: str) -> np.ndarray:
    """The far-past halves named in ``halves`` ("plus", "minus") one row at
    a time, each half on its own and then added; every term is anchored by
    the kernel at its k, built once for the longest row.  u, v and
    ``method`` as for x1_rows."""
    params = KernelParams(pyramid.alpha)
    naive = method == "naive"
    ks = np.arange(1 if naive else 2, (1 << J) + 1, dtype=float)
    anchor = (theta if naive else big_theta)(
        ks, v if v.ndim == 0 else v[:, None], params)
    total = 0.0
    for half in halves:
        part = np.zeros(u.shape)
        for j in range(J) if half == "plus" else range(-1, -J, -1):
            n = 1 << (J - abs(j))
            x = 2.0 ** j * u
            if naive:
                s = _row_sum(theta, x, v, ks[:n], pyramid.lf_row(j)[:n],
                             params, anchor[..., :n])
            else:
                lam = prefix.lf_row(j)
                s = lam[n - 1] * (theta(x + n, v, params)
                                  - theta(float(n), v, params))
                s = s - _row_sum(big_theta, x, v, ks[:n - 1], lam[:n - 1],
                                 params, anchor[..., :n - 1])
            part = part + np.power(2.0, -j * v) * s
        total = total + part
    return total


def theta_taylor_rows(k, v, R: int, params: KernelParams) -> np.ndarray:
    """kernels.theta_taylor one order r at a time: C(q,r)/q k^(q-r) times
    the tail series at the one exponent q - r."""
    kernels._check_v(v, params.alpha)
    k = np.asarray(k, dtype=float)
    if np.ndim(v) or k.ndim != 1 or not k.min() > params.switch_x:
        raise ParameterError(f"theta_taylor takes one v and k above "
                             f"switch_x = {params.switch_x}")
    q = 1.0 + v - 1.0 / params.alpha
    out = np.empty((R, k.size))
    c = 1.0  # C(q,r)/q
    for r in range(1, R + 1):
        out[r - 1] = c * np.power(k, q - r) * kernels._tail(k, q - r,
                                                             kernels._THETA)
        c = c * (q - r) / (r + 1.0)
    return out


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


def traced_held(fn) -> int:
    """Bytes that fn's allocations still hold after it returns, its return
    value dropped, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
