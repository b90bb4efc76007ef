"""Truncated series evaluation of the synthesis field.

``x1_partial`` sums the recent-scales half: a leading term carrying the
process value at t = 1 plus one row per dyadic scale j >= 0, each row pairing
coefficients with the averaged kernel at positions k inside [0, 1].
``x2_partial`` sums the far-past half over positive and negative scales,
where every term is a kernel difference anchored at the origin.

Each evaluator offers two routes.  The ``naive`` route sums coefficient
times kernel directly.  The ``abel`` route first rearranges the row by
summation by parts so that running sums of the coefficients (whose size at
position k matches the underlying process at k + 1, staying O(k^(1/alpha))
rather than fluctuating term by term) multiply the kernel's first
difference, which decays one power faster.  The two routes agree to
near machine precision on any finite row; the rearranged one is the useful
form when rows get long, since its summands decay fast enough to truncate.
Path synthesis and ``evaluate_field`` always take the ``abel`` route; the
``naive`` route stays as its term-by-term check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DepthError, ParameterError
from .kernels import (KernelParams, big_theta, check_alpha, theta,
                      truncated_power)
from .stable_rng import CoefficientPyramid, PrefixSums

METHODS = ("naive", "abel")
WHICH = ("hf", "lf_plus", "lf_minus", "lf", "total")


def check_uv(u: float, v: float, alpha: float) -> None:
    """Refuse alpha outside (1, 2), u outside [0, 1], v outside (1/alpha, 1)."""
    check_alpha(alpha)
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"u must lie in [0, 1], got {u}")
    if not 1.0 / alpha < v < 1.0:
        raise ParameterError(
            f"v must lie in (1/alpha, 1) = ({1.0 / alpha:.6g}, 1), got {v}")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")


def x1_partial(u: float, v: float, pyramid: CoefficientPyramid,
               prefix: PrefixSums, J: int, method: str = "abel") -> float:
    """Recent-scales half truncated at depth J.

    J = 0 keeps only the leading term.  Positions k with no kernel support
    (k >= 2**j * u) are skipped, so cost scales with u.
    """
    _check_method(method)
    check_uv(u, v, pyramid.alpha)
    if not (isinstance(J, (int, np.integer)) and J >= 0):
        raise ParameterError(f"J must be a nonnegative integer, got {J}")
    if J > pyramid.J_hf:
        raise DepthError(
            f"depth {J} exceeds the pyramid's recent-scales depth "
            f"{pyramid.J_hf}")
    alpha = pyramid.alpha
    q = 1.0 + v - 1.0 / alpha
    params = KernelParams(alpha)
    total = truncated_power(u, q) / q * pyramid.z1
    for j in range(J):
        x = 2.0 ** j * u
        n_row = 1 << j
        kmax = min(n_row - 1, math.ceil(x) - 1)
        if kmax < 0:
            continue
        if method == "naive":
            ks = np.arange(kmax + 1, dtype=float)
            s = float(np.dot(pyramid.hf[j][: kmax + 1],
                             theta(x - ks, v, params)))
        else:
            lam = prefix.hf[j]
            last = n_row - 1
            s = 0.0
            if x > last:
                s += lam[last] * theta(x - last, v, params)
            kmax_d = min(last - 1, kmax)
            if kmax_d >= 0:
                ks = np.arange(kmax_d + 1, dtype=float)
                s += float(np.dot(lam[: kmax_d + 1],
                                  big_theta(x - ks, v, params)))
        total += 2.0 ** (-j * v) * s
    return float(total)


def _x2_rows(u: float, v: float, pyramid: CoefficientPyramid,
             prefix: PrefixSums, J: int, scales, method: str) -> float:
    params = KernelParams(pyramid.alpha)
    total = 0.0
    for j in scales:
        x = 2.0 ** j * u
        n_row = 1 << (J - abs(j))
        ks = np.arange(1, n_row + 1, dtype=float)
        if method == "naive":
            w = theta(x + ks, v, params) - theta(ks, v, params)
            s = float(np.dot(pyramid.lf_row(j)[:n_row], w))
        else:
            lam = prefix.lf_row(j)
            s = lam[n_row - 1] * (theta(x + n_row, v, params)
                                  - theta(float(n_row), v, params))
            if n_row >= 2:
                kd = ks[1:]
                w = big_theta(x + kd, v, params) - big_theta(kd, v, params)
                s -= float(np.dot(lam[: n_row - 1], w))
        total += 2.0 ** (-j * v) * s
    return total


def _check_x2_depth(J: int, pyramid: CoefficientPyramid, j_min: int) -> None:
    if not (isinstance(J, (int, np.integer)) and J >= j_min):
        raise ParameterError(f"J must be an integer >= {j_min}, got {J}")
    if J > pyramid.J_lf:
        raise DepthError(
            f"depth {J} exceeds the pyramid's far-past depth {pyramid.J_lf}")


def x2_plus_partial(u: float, v: float, pyramid: CoefficientPyramid,
                    prefix: PrefixSums, J: int, method: str = "abel") -> float:
    """Far-past half over nonnegative scales 0..J-1, rows of length 2**(J-j)."""
    _check_method(method)
    check_uv(u, v, pyramid.alpha)
    _check_x2_depth(J, pyramid, 1)
    return _x2_rows(u, v, pyramid, prefix, J, range(J), method)


def x2_minus_partial(u: float, v: float, pyramid: CoefficientPyramid,
                     prefix: PrefixSums, J: int, method: str = "abel") -> float:
    """Far-past half over negative scales -1..1-J; needs J >= 2 to be nonempty."""
    _check_method(method)
    check_uv(u, v, pyramid.alpha)
    _check_x2_depth(J, pyramid, 2)
    return _x2_rows(u, v, pyramid, prefix, J, range(-1, -J, -1), method)


def x2_partial(u: float, v: float, pyramid: CoefficientPyramid,
               prefix: PrefixSums, J: int, method: str = "abel") -> float:
    """Whole far-past half at depth J (scales |j| <= J - 1)."""
    _check_method(method)
    check_uv(u, v, pyramid.alpha)
    _check_x2_depth(J, pyramid, 1)
    total = _x2_rows(u, v, pyramid, prefix, J, range(J), method)
    if J >= 2:
        total += _x2_rows(u, v, pyramid, prefix, J, range(-1, -J, -1), method)
    return total


_DISPATCH = {
    "hf": x1_partial,
    "lf_plus": x2_plus_partial,
    "lf_minus": x2_minus_partial,
    "lf": x2_partial,
}


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
    for iu, u in enumerate(u_grid):
        for iv, v in enumerate(v_grid):
            if which == "total":
                val = x1_partial(u, v, pyramid, prefix, J) \
                    + x2_partial(u, v, pyramid, prefix, J)
            else:
                val = _DISPATCH[which](u, v, pyramid, prefix, J)
            values[iu, iv] = val
    return values
