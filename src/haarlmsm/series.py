"""Truncated series evaluation of the synthesis field.

``x1_partial`` sums the recent-scales half: a leading term carrying the
process value at t = 1 plus one row per dyadic scale j >= 0, each row pairing
coefficients with the averaged kernel at positions k inside [0, 1].
``x2_partial`` sums the far-past half over positive and negative scales,
where every term is a kernel difference anchored at the origin.  Both take
one (u, v) or arrays of them; each row is one (points x k) kernel table
reduced point by point, so a value does not depend on the array around it.

The ``naive`` route sums coefficient times kernel directly.  The ``abel``
route rearranges each row by summation by parts, so that running sums of
the coefficients (of size O(k^(1/alpha)), like the process at k + 1)
multiply the kernel's first difference, which decays one power faster;
its summands decay fast enough to truncate long rows.  The two agree to
near machine precision on any finite row.  Path synthesis and
``evaluate_field`` take the ``abel`` route; ``naive`` is its check.
"""

from __future__ import annotations

import numpy as np

from .errors import DepthError, ParameterError
from .kernels import KernelParams, big_theta, check_alpha, theta
from .stable_rng import CoefficientPyramid, PrefixSums

METHODS = ("naive", "abel")

# kernel table entries per point block: a (points x k) float64 table of
# about 2 MB, however many points a call evaluates
_TABLE_ENTRIES = 1 << 18


def check_uv(u, v, alpha: float):
    """Refuse alpha outside (1, 2), u outside [0, 1] or v outside (1/alpha,
    1), NaN included, in scalars or equal-length 1-d arrays.  Returns u as
    a 1-d array, v as an array of its own shape (a scalar v stays one
    exponent for all points) and whether both were scalars."""
    check_alpha(alpha)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim > 1 or v.ndim > 1 or (u.ndim and v.ndim and u.size != v.size):
        raise ParameterError(f"u and v must be scalars or equal-length 1-d "
                             f"arrays, got shapes {u.shape} and {v.shape}")
    u1, v1 = np.atleast_1d(u), np.atleast_1d(v)
    bad = ~((0.0 <= u1) & (u1 <= 1.0))
    if bad.any():
        raise ParameterError(f"u must lie in [0, 1], got {u1[bad][0]}")
    bad = ~((1.0 / alpha < v1) & (v1 < 1.0))
    if bad.any():
        raise ParameterError(
            f"v must lie in (1/alpha, 1) = ({1.0 / alpha:.6g}, 1), got "
            f"{v1[bad][0]}")
    return (np.broadcast_to(u1, v.shape) if v.ndim else u1), v, \
        u.ndim == 0 and v.ndim == 0


def _check_call(method: str, J, j_min: int, stored: int, half: str) -> None:
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if not (isinstance(J, (int, np.integer)) and J >= j_min):
        raise ParameterError(f"J must be an integer >= {j_min}, got {J}")
    if J > stored:
        raise DepthError(
            f"depth {J} exceeds the pyramid's {half} depth {stored}")


def _table_sum(kernel, x, v, offsets, coef, params, anchored=False):
    """sum_k coef_k kernel(x_i + offsets_k, v_i) at every point i, less
    kernel(offsets_k, v_i) in each term when ``anchored``.  ``coef`` is one
    row of shape (m,), giving one sum per point, or a stack of rows of
    shape (rows, m), giving one line of sums per row.  Each block of points
    is one table, built once and reduced row by row against every
    coefficient row, never by a matrix product, so a point's sum has the
    same bits alone, in any array, or beside any other rows."""
    rows = np.atleast_2d(coef)
    last = rows.shape[0] - 1
    out = np.zeros((rows.shape[0], x.shape[0]))
    step = max(1, _TABLE_ENTRIES // max(offsets.size, 1))
    anchor = kernel(offsets, v, params) if anchored and v.ndim == 0 else None
    for a in range(0, x.shape[0], step):
        vb = v if v.ndim == 0 else v[a:a + step, None]
        table = kernel(x[a:a + step, None] + offsets, vb, params)
        if anchored:
            table -= kernel(offsets, vb, params) if anchor is None else anchor
        for r, row in enumerate(rows):
            # the last row's product may take the table's place
            prod = np.multiply(table, row, out=table if r == last else None)
            out[r, a:a + step] = prod.sum(axis=1)
    return out if np.ndim(coef) == 2 else out[0]


def far_past_terms(u, v, rows, j: int, lo: int, hi: int,
                   params: KernelParams) -> np.ndarray:
    """Terms k = lo+1..hi of far-past row j, summed term by term and
    weighted by 2**(-j v), at the points that check_uv returns.  ``rows``
    is row j of one pyramid (one sum per point) or that row of several
    pyramids stacked, shape (pyramids, n) (one line of sums per pyramid);
    each kernel table is built once for all of them."""
    ks = np.arange(lo + 1, hi + 1, dtype=float)
    s = _table_sum(theta, 2.0 ** j * u, v, ks, rows[..., lo:hi], params,
                   anchored=True)
    return np.power(2.0, -j * v) * s


def x1_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
               J: int, method: str = "abel"):
    """Recent-scales half truncated at depth J (J = 0: the leading term
    only).  u and v are scalars (a float is returned) or equal-length 1-d
    arrays, or one of each; each row is summed for all points at once."""
    _check_call(method, J, 0, pyramid.J_hf, "recent-scales")
    u, v, scalar = check_uv(u, v, pyramid.alpha)
    params = KernelParams(pyramid.alpha)
    q = 1.0 + v - 1.0 / pyramid.alpha
    total = np.power(u, q) / q * pyramid.z1
    for j in range(J):
        x = 2.0 ** j * u
        ks = np.arange(1 << j, dtype=float)
        if method == "naive":
            s = _table_sum(theta, x, v, -ks, pyramid.hf[j], params)
        else:
            lam = prefix.hf[j]
            s = lam[-1] * theta(x - ks[-1], v, params) \
                + _table_sum(big_theta, x, v, -ks[:-1], lam[:-1], params)
        total = total + np.power(2.0, -j * v) * s
    return float(total[0]) if scalar else total


def _x2(u, v, pyramid, prefix, J, method, halves):
    """Far-past rows of the named halves ("plus": scales 0..J-1, "minus":
    scales -1..1-J), each half summed on its own and then added."""
    _check_call(method, J, 2 if halves == ("minus",) else 1, pyramid.J_lf,
                "far-past")
    u, v, scalar = check_uv(u, v, pyramid.alpha)
    params = KernelParams(pyramid.alpha)
    total = 0.0
    for half in halves:
        part = np.zeros(u.shape)
        for j in range(J) if half == "plus" else range(-1, -J, -1):
            n_row = 1 << (J - abs(j))
            if method == "naive":
                part = part + far_past_terms(u, v, pyramid.lf_row(j), j, 0,
                                            n_row, params)
                continue
            x = 2.0 ** j * u
            lam = prefix.lf_row(j)
            s = lam[n_row - 1] * (theta(x + n_row, v, params)
                                  - theta(float(n_row), v, params))
            s = s - _table_sum(big_theta, x, v,
                               np.arange(2, n_row + 1, dtype=float),
                               lam[:n_row - 1], params, anchored=True)
            part = part + np.power(2.0, -j * v) * s
        total = total + part
    return float(total[0]) if scalar else total


def x2_plus_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
                    J: int, method: str = "abel"):
    """Far-past half over nonnegative scales 0..J-1, rows of length
    2**(J-j); u and v as for x1_partial."""
    return _x2(u, v, pyramid, prefix, J, method, ("plus",))


def x2_minus_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
                     J: int, method: str = "abel"):
    """Far-past half over negative scales -1..1-J; needs J >= 2 to be
    nonempty.  u and v as for x1_partial."""
    return _x2(u, v, pyramid, prefix, J, method, ("minus",))


def x2_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
               J: int, method: str = "abel"):
    """Whole far-past half at depth J (scales |j| <= J - 1); u and v as
    for x1_partial."""
    return _x2(u, v, pyramid, prefix, J, method, ("plus", "minus"))


# the series behind each ``which`` name, summed when there are two
_HALVES = {"hf": (x1_partial,), "lf_plus": (x2_plus_partial,),
           "lf_minus": (x2_minus_partial,), "lf": (x2_partial,),
           "total": (x1_partial, x2_partial)}
WHICH = tuple(_HALVES)


def evaluate_field(u_grid, v_grid, pyramid: CoefficientPyramid,
                   prefix: PrefixSums, J: int, which: str) -> np.ndarray:
    """One series half (or their sum) at every (u, v) of u_grid x v_grid.

    Returns an array with ``values[i, j]`` at (u_grid[i], v_grid[j]).
    ``which = "total"`` evaluates both halves at the same depth J, which must
    then fit both stored depths.
    """
    if which not in WHICH:
        raise ParameterError(f"which must be one of {WHICH}, got {which!r}")
    values = np.empty((len(u_grid), len(v_grid)))
    for iv, v in enumerate(v_grid):
        values[:, iv] = sum(f(u_grid, v, pyramid, prefix, J)
                            for f in _HALVES[which])
    return values
