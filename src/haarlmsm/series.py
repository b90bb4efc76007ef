"""Truncated series evaluation of the synthesis field.

``x1_partial`` sums the recent-scales half: a leading term carrying the
process value at t = 1 plus one row per dyadic scale j >= 0, each row pairing
coefficients with the averaged kernel at positions k inside [0, 1].
``x2_partial`` sums the far-past half over positive and negative scales,
where every term is a kernel difference anchored at the origin.  Both take
one (u, v) or arrays of them; each row is a (points x k) kernel table
reduced point by point, so a value does not depend on the array around it.

The ``naive`` route sums coefficient times kernel directly.  The ``abel``
route rearranges each row by summation by parts, so that running sums of
the coefficients (of size O(k^(1/alpha)), like the process at k + 1)
multiply the kernel's first difference, which decays one power faster; its
summands decay fast enough to truncate long rows.  The two agree to near
machine precision on any finite row.  Path synthesis and
``evaluate_field`` take the ``abel`` route; ``naive`` is its check.  A
recent-scales abel row is one big_theta table: its last term is the end
term, as theta(x - 2**j) vanishes at x = 2**j u.

Every kernel table, on both routes and in ``far_past_terms``, is built and
reduced by one routine, ``_row_sums``, which alone splits the points into
blocks and builds the far-past anchor kernel(k, v).  A block holds
_TABLE_ENTRIES (2**18) entries of the longest row and one anchor at that
row's k.  In a block, consecutive rows share one kernel call while it
holds at most _PACK_ENTRIES (2**13) entries; a row over the cap is its own
call.  A short row then does not pay a kernel call's set-up alone, and the
cap keeps the kernel's temporaries small (uncapped calls raised the heap
peak of a 129-point path from 0.87 to 2.07 MB).  Each row is reduced on
its own, as (part * coef).sum(axis=1), so blocking and packing move no
bit.

``far_past_terms`` sums a stretch k = lo+1..hi of one far-past row for the
convergence study.  A long stretch far from the kernel's kinks (lo >= 16
and rho = 2**j max(u) / lo <= 1/8) is summed by Taylor moments: theta is
analytic beyond 1, so sum_k c_k [theta(eps + k) - theta(k)] is the power
series sum_r eps^r D_r in eps = 2**j u, with D_r = sum_k c_k
theta^(r)(k)/r! and R = ceil(log 1e-17 / log rho) <= 19 terms.  Its cost
is one (R, hi - lo) table of derivative values, every order summed in
one tail pass, plus R per point, not a points x (hi - lo) kernel table,
and it is more accurate than the table, whose
theta(eps + k) - theta(k) cancels when eps << k.  Every other stretch
keeps the table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DepthError, ParameterError
from .kernels import (KernelParams, big_theta, box, check_alpha, theta,
                      theta_taylor)
from .stable_rng import (CoefficientPyramid, PrefixSums, _lf_rows,
                         check_depth, check_size)

METHODS = ("naive", "abel")

# entries of the longest row per point block: a (points x k) float64
# table of about 2 MB, however many points a call evaluates
_TABLE_ENTRIES = 1 << 18

# table entries one packed kernel call holds at most (module docstring)
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


# the least depth of each ``which`` name's series: the far past's rows
# |j| < J hold a negative scale only from J = 2, and "total" sums both
# halves at one depth
DEPTH_FLOOR = {"hf": 0, "lf_plus": 1, "lf_minus": 2, "lf": 1, "total": 1}


def _check_call(method: str, J, which: str, pyramid: CoefficientPyramid,
                prefix: PrefixSums) -> None:
    """Refuse an unknown method, a J below the floor of ``which`` or past
    the depth the pyramid stores for its half, or running sums of another
    pyramid."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    check_depth("J", J, DEPTH_FLOOR[which])
    half, stored = (("recent-scales", pyramid.J_hf) if which == "hf"
                    else ("far-past", pyramid.J_lf))
    if J > stored:
        raise DepthError(
            f"depth {J} exceeds the pyramid's {half} depth {stored}")
    if prefix.pyramid is not pyramid:
        raise ParameterError("prefix sums of another pyramid: pass "
                             "prefix_sums(pyramid)")


def _row_sums(kernel, u, v, rows, params, anchored=False):
    """Returns, for each row (scale, offsets, coef) of ``rows`` in order,
    sum_k coef_k [kernel(scale_k u_i + offsets_k, v_i) - anchor_k] at every
    point i.  ``scale`` is one number or one per term; ``coef`` is one row
    of shape (m,), giving one sum per point, or a stack (stack, m), giving
    one line of sums per line of the stack.  The anchor is 0, or with
    ``anchored`` kernel(offsets_k, v_i): each block of points builds it
    once, at the longest row's offsets, and every row takes its first
    columns, so every row's offsets must be a prefix of the longest's.
    Points go in blocks of _TABLE_ENTRIES // (terms of the longest row);
    in a block, consecutive rows share one kernel call while it holds at
    most _PACK_ENTRIES entries.  Each row's part of a table is reduced on
    its own, as (part * coef).sum(axis=1), never by a matrix product, so a
    point's sum has the same bits alone, in any array, under any packing
    or blocking."""
    longest = max((offsets for _, offsets, _ in rows), key=np.size,
                  default=np.empty(0))
    step = max(1, _TABLE_ENTRIES // max(longest.size, 1))
    blocks = []
    # one block even with no points, so that every row yields its sums
    for a in range(0, max(u.size, 1), step):
        ub = u[a:a + step, None]
        vb = v if v.ndim == 0 else v[a:a + step, None]
        anchor = kernel(longest, vb, params) if anchored else None
        sums, r = [], 0
        while r < len(rows):
            end, cols = r + 1, rows[r][1].size
            while end < len(rows) and \
                    (cols + rows[end][1].size) * ub.size <= _PACK_ENTRIES:
                cols += rows[end][1].size
                end += 1
            x = np.empty((ub.size, cols))
            c = 0
            for scale, offsets, _ in rows[r:end]:
                np.add(ub * scale, offsets, out=x[:, c:c + offsets.size])
                c += offsets.size
            table = kernel(x, vb, params)
            del x  # not held while the table is reduced
            c = 0
            for _, offsets, coef in rows[r:end]:
                part = table[:, c:c + offsets.size]
                c += offsets.size
                if anchored:
                    part -= anchor[..., :offsets.size]
                # np.add.reduce is .sum(axis=1) without its Python-level
                # wrapper; one coefficient row's product takes the part's
                # place
                sums.append(np.add.reduce(np.multiply(part, coef, out=part),
                                          axis=1) if coef.ndim == 1
                            else np.stack([np.add.reduce(part * line, axis=1)
                                           for line in coef]))
            r = end
        blocks.append(sums)
    if len(blocks) == 1:
        return blocks[0]
    return [np.concatenate(parts, axis=-1) for parts in zip(*blocks)]


def _far_past_table(u, v, rows, j: int, lo: int, hi: int,
                    params: KernelParams) -> np.ndarray:
    """far_past_terms summed term by term, through kernel tables."""
    ks = np.arange(lo + 1, hi + 1, dtype=float)
    s, = _row_sums(theta, u, v, [(2.0 ** j, ks, rows[..., lo:hi])], params,
                   anchored=True)
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
    _check_call(method, J, "hf", pyramid, prefix)
    u, v, scalar = check_uv(u, v, pyramid.alpha)
    params = KernelParams(pyramid.alpha)
    total = box(u, v, params) * pyramid.z1
    # abel: the table's last term is the end term (module docstring)
    kernel, rows = ((theta, pyramid.hf) if method == "naive"
                    else (big_theta, prefix.hf))
    sums = _row_sums(kernel, u, v, [
        (2.0 ** j, -np.arange(1 << j, dtype=float), row)
        for j, row in enumerate(rows[:J])], params)
    for j, s in enumerate(sums):
        total = total + np.power(2.0, -j * v) * s
    return float(total[0]) if scalar else total


def _lf_parts(J: int, which: str) -> list:
    """The far-past rows (j, n) that ``which`` sums at depth J, one list
    per half, each in the order its terms are added: the rows j >= 0
    ascending (lf_plus), the rows j < 0 descending (lf_minus), both (lf,
    total) or none (hf)."""
    plus = [r for r in _lf_rows(J) if r[0] >= 0]
    minus = [r for r in _lf_rows(J)[::-1] if r[0] < 0]
    return {"hf": [], "lf_plus": [plus], "lf_minus": [minus]}.get(
        which, [plus, minus])


def _x2(u, v, pyramid, prefix, J, method, which):
    """Far-past rows of the halves that ``which`` names, as _lf_parts
    lists them, each half summed on its own and then added.  Every term is
    anchored by the kernel at its k alone, kernel(k, v), which does not
    depend on the row: every row's k are a prefix of one ks, so _row_sums
    builds the anchor once per block of points."""
    _check_call(method, J, which, pyramid, prefix)
    u, v, scalar = check_uv(u, v, pyramid.alpha)
    params = KernelParams(pyramid.alpha)
    naive = method == "naive"
    parts = _lf_parts(J, which)
    rows = [r for part in parts for r in part]
    # row j's table holds k = 1..n against the coefficients (naive), or
    # k = 2..n against the running sums (abel); lams holds either row
    first, kernel = (1, theta) if naive else (2, big_theta)
    ks = np.arange(first, max(n for _, n in rows) + 1, dtype=float)
    lams = [(pyramid if naive else prefix).lf_row(j) for j, _ in rows]
    sums = _row_sums(kernel, u, v, [
        (2.0 ** j, ks[:n + 1 - first], lam[:n + 1 - first])
        for (j, n), lam in zip(rows, lams)], params, anchored=True)
    if not naive:
        # abel: the end term lam_n (theta(x + n) - theta(n)) at x = 2**j u,
        # one row of two terms, less the running sums lam_k against
        # big_theta(x + k) - big_theta(k) for k < n
        end_sums = _row_sums(theta, u, v, [
            (np.array([2.0 ** j, 0.0]), np.array([n, n], dtype=float),
             np.array([1.0, -1.0])) for j, n in rows], params)
        sums = (lam[n - 1] * end - table for (_, n), lam, end, table in
                zip(rows, lams, end_sums, sums))
    terms = [np.power(2.0, -j * v) * s for (j, _), s in zip(rows, sums)]
    total = 0.0
    for part in parts:
        # sum adds left to right from zeros, like a loop of +
        total = total + sum(terms[:len(part)], np.zeros(u.shape))
        terms = terms[len(part):]
    return float(total[0]) if scalar else total


def x2_plus_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
                    J: int, method: str = "abel"):
    """Far-past half over nonnegative scales 0..J-1, rows of length
    2**(J-j); u and v as for x1_partial."""
    return _x2(u, v, pyramid, prefix, J, method, "lf_plus")


def x2_minus_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
                     J: int, method: str = "abel"):
    """Far-past half over negative scales -1..1-J; needs J >= 2 to be
    nonempty.  u and v as for x1_partial."""
    return _x2(u, v, pyramid, prefix, J, method, "lf_minus")


def x2_partial(u, v, pyramid: CoefficientPyramid, prefix: PrefixSums,
               J: int, method: str = "abel"):
    """Whole far-past half at depth J (scales |j| <= J - 1); u and v as
    for x1_partial."""
    return _x2(u, v, pyramid, prefix, J, method, "lf")


# the series behind each ``which`` name, summed when there are two
_HALVES = {"hf": (x1_partial,), "lf_plus": (x2_plus_partial,),
           "lf_minus": (x2_minus_partial,), "lf": (x2_partial,),
           "total": (x1_partial, x2_partial)}
WHICH = tuple(_HALVES)


def terms_per_point(J: int, which: str) -> int:
    """Kernel table terms one point of ``which`` costs at depth J: 2**J for
    the recent scales (the box leading term and the rows of 2**j, j < J)
    and n for each far-past row (j, n) that _lf_parts lists."""
    hf = 1 << J if x1_partial in _HALVES[which] else 0
    return hf + sum(n for part in _lf_parts(J, which) for _, n in part)


def evaluate_field(u_grid, v_grid, pyramid: CoefficientPyramid,
                   prefix: PrefixSums, J: int, which: str) -> np.ndarray:
    """One series half (or their sum) at every (u, v) of u_grid x v_grid.

    Returns an array with ``values[i, j]`` at (u_grid[i], v_grid[j]).
    ``which = "total"`` evaluates both halves at the same depth J, which must
    then fit both stored depths.
    """
    if which not in WHICH:
        raise ParameterError(f"which must be one of {WHICH}, got {which!r}")
    check_size(len(u_grid) * len(v_grid), "a field of")
    values = np.empty((len(u_grid), len(v_grid)))
    for iv, v in enumerate(v_grid):
        values[:, iv] = sum(f(u_grid, v, pyramid, prefix, J)
                            for f in _HALVES[which])
    return values
