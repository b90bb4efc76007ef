"""Truncated series evaluation of the synthesis field.

``x1_partial`` sums the recent-scales half: a leading term carrying the
process value at t = 1 plus one row per dyadic scale j >= 0, each row pairing
coefficients with the averaged kernel at positions k inside [0, 1].
``x2_partial`` sums the far-past half over positive and negative scales,
where every term is a kernel difference anchored at the origin.  Both take
one (u, v) or arrays of them; each row is a (points x k) kernel table
reduced point by point, so a value does not depend on the array around it.

The ``naive`` route sums coefficient times kernel directly, one kernel
call per row.  The ``abel`` route rearranges each row by summation by
parts, so that running sums of the coefficients (of size O(k^(1/alpha)),
like the process at k + 1) multiply the kernel's first difference, which
decays one power faster; its summands decay fast enough to truncate long
rows.  The two agree to near machine precision on any finite row.  Path
synthesis and ``evaluate_field`` take the ``abel`` route; ``naive`` is its
check.

The ``abel`` route packs the tables of consecutive rows into one
big_theta call while that call holds at most _PACK_ENTRIES (2**13)
entries, and evaluates the rows' end terms in shared theta calls under
the same cap; a row over the cap is its own call, in point blocks of
_TABLE_ENTRIES.  A short row then does not pay a kernel call's set-up
alone, and the cap keeps the kernel's temporaries small (uncapped
calls raised the heap peak of a 129-point path from 0.87 to 2.07 MB).
Each row is still reduced on its own, as (table * lam).sum(axis=1) and
then the weighted running sum, so packing moves no bit.

``far_past_terms`` sums a stretch k = lo+1..hi of one far-past row for the
convergence study.  A long stretch far from the kernel's kinks (lo >= 16
and rho = 2**j max(u) / lo <= 1/8) is summed by Taylor moments: theta is
analytic beyond 1, so sum_k c_k [theta(eps + k) - theta(k)] is the power
series sum_r eps^r D_r in eps = 2**j u, with D_r = sum_k c_k
theta^(r)(k)/r! and R = ceil(log 1e-17 / log rho) <= 19 terms.  Its cost
is R x (hi - lo) derivative values plus R per point, not a points x
(hi - lo) table, and it is more accurate than the table, whose
theta(eps + k) - theta(k) cancels when eps << k.  Every other stretch,
and the ``naive`` route, keeps the table.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DepthError, ParameterError
from .kernels import KernelParams, big_theta, check_alpha, theta, theta_taylor
from .stable_rng import CoefficientPyramid, PrefixSums

METHODS = ("naive", "abel")

# kernel table entries per point block: a (points x k) float64 table of
# about 2 MB, however many points a call evaluates
_TABLE_ENTRIES = 1 << 18

# table entries one packed abel call holds at most (module docstring)
_PACK_ENTRIES = 1 << 13

# far_past_terms sums a stretch by Taylor moments from this lo on, where
# 2**j max(u) is at most _MOMENT_RHO of lo
_MOMENT_LO = 16
_MOMENT_RHO = 0.125


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
    lo = 1.0 / float(alpha)
    bad = ~((lo < v1) & (v1 < 1.0))
    if bad.any():
        raise ParameterError(
            f"v must lie in (1/alpha, 1) = ({lo:.6g}, 1), got "
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


def _table_sum(kernel, x, v, offsets, coef, params, anchor=None):
    """sum_k coef_k kernel(x_i + offsets_k, v_i) at every point i, less
    ``anchor`` (kernel(offsets_k, v) of shape (m,) for one v, or
    kernel(offsets_k, v_i) of shape (points, m)) in each term when one is
    given.  ``coef`` is one row of shape (m,), giving one sum per point, or
    a stack of rows of shape (rows, m), giving one line of sums per row.
    Each block of points is one table, built once and reduced row by row
    against every coefficient row, never by a matrix product, so a point's
    sum has the same bits alone, in any array, or beside any other rows."""
    rows = np.atleast_2d(coef)
    last = rows.shape[0] - 1
    out = np.zeros((rows.shape[0], x.shape[0]))
    step = max(1, _TABLE_ENTRIES // max(offsets.size, 1))
    for a in range(0, x.shape[0], step):
        vb = v if v.ndim == 0 else v[a:a + step, None]
        table = kernel(x[a:a + step, None] + offsets, vb, params)
        if anchor is not None:
            table -= anchor if anchor.ndim == 1 else anchor[a:a + step]
        for r, row in enumerate(rows):
            # the last row's product may take the table's place
            prod = np.multiply(table, row, out=table if r == last else None)
            out[r, a:a + step] = prod.sum(axis=1)
    return out if np.ndim(coef) == 2 else out[0]


def _packed_sums(kernel, u, js, offsets, coefs, v, params, anchor=None):
    """Yields, row by row, sum_k coefs[r]_k kernel(2**js[r] u_i +
    offsets[r]_k, v_i) at every point i (less ``anchor`` cut to the row's
    width, as in _table_sum), with _table_sum's bits: consecutive rows
    share one kernel call while its table holds at most _PACK_ENTRIES
    entries, and each row's columns are reduced on their own, as
    _table_sum reduces them.  A row over the cap alone goes to
    _table_sum."""
    points = u.shape[0]
    widths = [o.size for o in offsets]
    r = 0
    while r < len(js):
        end, cols = r + 1, widths[r]
        while end < len(js) and \
                (cols + widths[end]) * points <= _PACK_ENTRIES:
            cols += widths[end]
            end += 1
        if cols * points > _PACK_ENTRIES:
            yield _table_sum(
                kernel, 2.0 ** js[r] * u, v, offsets[r], coefs[r], params,
                None if anchor is None else anchor[..., :widths[r]])
            r = end
            continue
        x = np.empty((points, cols))
        c = 0
        for i in range(r, end):
            np.add((2.0 ** js[i] * u)[:, None], offsets[i],
                   out=x[:, c:c + widths[i]])
            c += widths[i]
        table = kernel(x, v if v.ndim == 0 else v[:, None], params)
        c = 0
        for i in range(r, end):
            part = table[:, c:c + widths[i]]
            if anchor is not None:
                part -= anchor[..., :widths[i]]
            yield (part * coefs[i]).sum(axis=1)
            c += widths[i]
        r = end


def _row_ends(kernel, args, rows: int, width: int, points: int, v,
              params):
    """Yields, for rows 0..rows-1 in order, the kernel at the row's
    ``width`` end-term arguments at every point, a (points, width) array.
    ``args(sl)`` gives the arguments of the rows in slice sl side by side,
    a (points, width * rows in sl) table.  Runs of rows share one call of
    at most _PACK_ENTRIES entries (a run of one row is cut into point
    blocks to fit), so no more than one run's values are held."""
    run = max(1, _PACK_ENTRIES // max(points * width, 1))
    step = max(1, _PACK_ENTRIES // (run * width))
    for r in range(0, rows, run):
        x = args(slice(r, r + run))
        values = np.empty(x.shape)
        for a in range(0, points, step):
            values[a:a + step] = kernel(
                x[a:a + step], v if v.ndim == 0 else v[a:a + step, None],
                params)
        del x  # not held while the run's rows are consumed
        for i in range(0, values.shape[1], width):
            yield values[:, i:i + width]


def _anchor(kernel, ks, v, params):
    """kernel(k, v) for the anchor of far-past terms: one row for one v,
    one row per point for a v per point."""
    return kernel(ks, v if v.ndim == 0 else v[:, None], params)


def _far_past_table(u, v, rows, j: int, lo: int, hi: int,
                    params: KernelParams, anchor=None) -> np.ndarray:
    """far_past_terms summed term by term, through kernel tables.
    ``anchor`` holds theta(k, v) for k = lo+1..hi (see _table_sum), if the
    caller has it; else it is built here."""
    ks = np.arange(lo + 1, hi + 1, dtype=float)
    if anchor is None:
        anchor = _anchor(theta, ks, v, params)
    s = _table_sum(theta, 2.0 ** j * u, v, ks, rows[..., lo:hi], params,
                   anchor)
    return np.power(2.0, -j * v) * s


def _moment_order(j: int, lo: int, u_max: float) -> int:
    """Taylor terms R that far_past_terms sums a stretch of row j from
    k = lo+1 by, at points u <= u_max and one v; 0 where a kernel table
    sums it (the module docstring's rule)."""
    rho = 2.0 ** j * u_max / max(lo, 1)
    if lo < _MOMENT_LO or not 0.0 < rho <= _MOMENT_RHO:
        return 0
    return math.ceil(math.log(1e-17) / math.log(rho))


def far_past_terms(u, v, rows, j: int, lo: int, hi: int,
                   params: KernelParams) -> np.ndarray:
    """Terms k = lo+1..hi of far-past row j, weighted by 2**(-j v), at the
    points that check_uv returns: by Taylor moments where the module
    docstring's rule allows (one v for all points), else term by term.
    ``rows`` is row j of one pyramid (one sum per point) or that row of
    several pyramids stacked, shape (pyramids, n) (one line of sums per
    pyramid); each kernel or derivative table is built once for all of
    them and reduced row by row, so a pyramid's sums have the same bits
    alone or stacked."""
    R = 0 if np.ndim(v) else _moment_order(j, lo,
                                           float(np.max(u, initial=0.0)))
    if not R:
        return _far_past_table(u, v, rows, j, lo, hi, params)
    d = theta_taylor(np.arange(lo + 1, hi + 1, dtype=float), v, R, params)
    coef = np.atleast_2d(rows[..., lo:hi])
    moments = np.stack([(d * row).sum(axis=1) for row in coef])
    eps = 2.0 ** j * u
    # Horner's rule, elementwise in the points and the pyramids
    out = np.zeros((coef.shape[0], u.shape[0]))
    for r in range(R - 1, -1, -1):
        out += moments[:, r, None]
        out *= eps
    out *= np.power(2.0, -j * v)
    return out if np.ndim(rows) == 2 else out[0]


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
    if method == "naive":
        for j in range(J):
            s = _table_sum(theta, 2.0 ** j * u, v,
                           -np.arange(1 << j, dtype=float), pyramid.hf[j],
                           params)
            total = total + np.power(2.0, -j * v) * s
    elif J:
        # row j: the end term lam[-1] theta(x - k_last) at x = 2**j u and
        # k_last = 2**j - 1, plus the big_theta table over k < k_last
        scale = np.ldexp(1.0, np.arange(J))
        ends = _row_ends(
            theta, lambda sl: u[:, None] * scale[sl] - (scale[sl] - 1.0),
            J, 1, u.shape[0], v, params)
        sums = _packed_sums(
            big_theta, u, range(J),
            [-np.arange((1 << j) - 1, dtype=float) for j in range(J)],
            [lam[:-1] for lam in prefix.hf[:J]], v, params)
        for j, (table, end) in enumerate(zip(sums, ends)):
            s = prefix.hf[j][-1] * end[:, 0] + table
            total = total + np.power(2.0, -j * v) * s
    return float(total[0]) if scalar else total


def _x2(u, v, pyramid, prefix, J, method, halves):
    """Far-past rows of the named halves ("plus": scales 0..J-1, "minus":
    scales -1..1-J), each half summed on its own and then added.  Every
    term is anchored by the kernel at its k alone, kernel(k, v), which
    does not depend on the row: each block of points builds it once for
    the longest row's k, and each row takes its first columns."""
    _check_call(method, J, 2 if halves == ("minus",) else 1, pyramid.J_lf,
                "far-past")
    u, v, scalar = check_uv(u, v, pyramid.alpha)
    params = KernelParams(pyramid.alpha)
    naive = method == "naive"
    scales = {"plus": range(J), "minus": range(-1, -J, -1)}
    js = [j for half in halves for j in scales[half]]
    ns = [1 << (J - abs(j)) for j in js]
    # k = 1..2**J for the coefficients, 2..2**J for the running sums
    ks = np.arange(1 if naive else 2, (1 << J) + 1, dtype=float)
    total = np.empty(u.shape)
    step = max(1, _TABLE_ENTRIES // ks.size)
    for a in range(0, u.shape[0], step):
        ub = u[a:a + step]
        vb = v if v.ndim == 0 else v[a:a + step]
        anchor = _anchor(theta if naive else big_theta, ks, vb, params)
        if naive:
            terms = (_far_past_table(ub, vb, pyramid.lf_row(j), j, 0, n,
                                     params, anchor[..., :n])
                     for j, n in zip(js, ns))
        else:
            terms = _x2_abel_terms(ub, vb, prefix, js, ns, ks, anchor,
                                   params)
        block = 0.0
        for half in halves:
            part = np.zeros(ub.shape)
            for term in itertools.islice(terms, len(scales[half])):
                part = part + term
            block = block + part
        total[a:a + step] = block
    return float(total[0]) if scalar else total


def _x2_abel_terms(u, v, prefix, js, ns, ks, anchor, params):
    """Yields far-past rows js (of lengths ns) summed by parts at one
    block of points, weighted by 2**(-j v): the end term lam_n (theta(x +
    n) - theta(n)) at x = 2**j u, less the running sums lam_k against
    big_theta(x + k) - big_theta(k) for k < n."""
    scale, n = np.ldexp(1.0, np.array(js)), np.array(ns, dtype=float)

    def args(sl):
        # x + n beside n, row by row
        x = np.empty((u.size, n[sl].size, 2))
        x[..., 0] = u[:, None] * scale[sl] + n[sl]
        x[..., 1] = n[sl]
        return x.reshape(u.size, -1)

    lams = [prefix.lf_row(j) for j in js]
    ends = _row_ends(theta, args, len(js), 2, u.size, v, params)
    sums = _packed_sums(big_theta, u, js, [ks[:m - 1] for m in ns],
                        [lam[:m - 1] for lam, m in zip(lams, ns)], v,
                        params, anchor)
    for j, m, lam, table, end in zip(js, ns, lams, sums, ends):
        s = lam[m - 1] * (end[:, 0] - end[:, 1])
        s = s - table
        yield np.power(2.0, -j * v) * s


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
