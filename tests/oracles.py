"""Test oracles for the stable grid: scalar reads that the package's row
code must reproduce, kept here because no command uses them; and a probe
of the memory a call holds at its peak."""

import tracemalloc

import numpy as np

from haarlmsm.errors import HaarLmsmError


class ResolutionError(HaarLmsmError, ValueError):
    """A requested grid point does not exist on the stored dyadic grid."""


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
