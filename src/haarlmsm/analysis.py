"""Validation harness: scale identities and convergence rates.

Scale identities.  At a fixed position u the limiting laws of the two
series halves are symmetric stable with computable scales:
``x1_theoretical_scale`` is closed-form, ``x2_theoretical_scale`` integrates
the defining kernel integral with one fixed double-exponential (tanh-sinh)
rule, checked against the same rule at twice the step.  A truncation of
either half at a fixed (u, v) is a weight vector over independent standard
stable draws (``_weights``; the coefficients in independent mode, the
driving process's increments in consistent mode), checked against the
series evaluators pathwise in the test suite.  Its exact scale is the
alpha-norm of the weights (``truncated_scale_hf``, ``truncated_scale_lf``),
and a Monte Carlo replicate (``mc_x1_samples``, ``mc_x2_samples``) is
their product with one draw, orders of magnitude cheaper than evaluating
the series per replicate.

Convergence rates.  ``convergence_study`` measures sup-norm differences
between consecutive truncation depths across independent replicates and
fits a dyadic-log slope to the medians.  For the recent-scales half the
depth-J difference is a single coefficient row, evaluated on a dyadic grid
through FFT convolutions of the coefficient row with kernel value tables.
For the far-past half the difference is the set of terms added when the
depth steps up, summed on a fixed uniform grid by ``series.far_past_terms``
over just the k-range each row gains: by Taylor moments where that range
starts at k >= 16 and 2**j stays within 1/8 of its start (at depth J >= 4
the rows 4 - J <= j <= (J - 3)/2), term by term through a kernel table
elsewhere; up to depth 9 no table passes 1025 x 32 entries.  A kernel or
derivative table depends on the grid, the exponent, the depth and the row,
never on the draw, so every replicate's pyramid is drawn first and each
table (or, for the recent scales, each kernel spectrum) is built once per
(depth, exponent, row) and reduced against every replicate's coefficient
row.

A caveat worth knowing before reading far-past rate numbers at shallow
depths: the averaged kernel has a one-sided corner at 1 (its slope jumps
by 1 - 2**(1-p), p = v - 1/alpha), and the first neglected far-past terms
evaluate the kernel at 1 + eps with eps = 2**-K u.  The resulting
difference eps**q / q - |1 - 2**(1-p)| eps (q = 1 + p) makes the effective
constant in front of the theoretical 2**(-K(1-v)) decay grow like
c1 - c2 * 2**(-K p) across small K.  At alpha = 1.5, v = 0.75 (p = 1/12)
that growth contributes about +0.22 per depth step to the fitted dyadic-log
slope over K = 4..9, almost exactly cancelling the asymptotic -0.25; the
measured slope there sits near -0.02 and the asymptotic rate only becomes
visible at depths far beyond what the quadratically growing far-past grid
allows.  The recent-scales half has no such corner term and shows its
asymptotic rate already at J = 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ParameterError, StatisticsError
from .kernels import KernelParams, box, check_alpha, theta
from .series import DEPTH_FLOOR, _moment_order, check_uv, far_past_terms
from .stable_rng import (
    MODES,
    StableLaw,
    _LfUnion,
    _lf_counts,
    _lf_rows,
    _lf_steps,
    _lf_union,
    check_depth,
    check_seed,
    check_size,
    generate_coefficients,
    make_rng,
    sample_sas,
)
# unused here, but perfbench/spans.py patches analysis.prefix_sums
from .stable_rng import prefix_sums  # noqa: F401

# Monte Carlo replicates drawn per stable-draw block; fixed, because every
# seed's stream depends on them
_MC_HF_CHUNK = 1024
_MC_LF_CHUNK = 4096

# the convergence study's grids: dyadic of level min(J + 1, _HF_LEVEL) for
# the recent scales, _LF_POINTS uniform points for the far past
_HF_LEVEL = 15
_LF_POINTS = 1025

# Tanh-sinh rule on (0, 1) (Takahasi & Mori, Publ. RIMS 9, 1974): nodes
# s = 1 / (1 + exp(-pi sinh t)) at t = k/64, |t| <= 4, with weights
# (pi/64) cosh t s (1 - s).  s and 1 - s are each formed without a
# difference, so the nodes reach 6e-38 at the left end, where both
# integrands of x2_theoretical_scale have their singular derivative.
_TS_T = np.arange(-256, 257) / 64.0
_TS_NODES = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TS_T)))
_TS_WEIGHTS = (np.pi / 64.0 * np.cosh(_TS_T) * _TS_NODES
               / (1.0 + np.exp(np.pi * np.sinh(_TS_T))))


# ---------------------------------------------------------------- scales --

def first_abs_moment(alpha: float) -> float:
    """E|X| for the unit-scale symmetric stable law: (2/pi) Gamma(1 - 1/alpha)."""
    check_alpha(alpha)
    return 2.0 / math.pi * math.gamma(1.0 - 1.0 / alpha)


def check_scale_samples(n: int) -> None:
    """Refuse fewer than the 1000 samples a scale estimate needs."""
    if n < 1000:
        raise StatisticsError(
            f"need at least 1000 samples for a scale estimate, got {n}")


def estimate_scale(samples, alpha: float) -> float:
    """Scale estimate mean(|x|) / E|X_standard|; needs the samples that
    check_scale_samples admits."""
    samples = np.asarray(samples, dtype=float).ravel()
    check_scale_samples(samples.size)
    return float(np.mean(np.abs(samples)) / first_abs_moment(alpha))


def _scale_point(u, v, alpha) -> tuple:
    """u, v and alpha of one scale point as floats, after refusing an
    array u or v (a scale function computes one point) and whatever
    check_uv refuses.  numpy float32 inputs would keep the formulas in
    float32."""
    if np.ndim(u) or np.ndim(v):
        raise ParameterError(f"u and v must be scalars, got shapes "
                             f"{np.shape(u)} and {np.shape(v)}")
    check_uv(u, v, alpha)
    return float(u), float(v), float(alpha)


def x1_theoretical_scale(u: float, v: float, alpha: float) -> float:
    """Limiting scale of the recent-scales half: u**v * (alpha*v)**(-1/alpha)."""
    u, v, alpha = _scale_point(u, v, alpha)
    if u == 0.0:
        return 0.0
    return float(u ** v * (alpha * v) ** (-1.0 / alpha))


def x2_theoretical_scale(u: float, v: float, alpha: float) -> float:
    """Limiting scale of the far-past half: u**v * I**(1/alpha).

    The alpha-th power of the scale is the integral over r > 0 of
    ((u + r)**p - r**p)**alpha, p = v - 1/alpha; r = u s turns it into
    u**(alpha v) I, I the integral over s > 0 of ((1 + s)**p - s**p)**alpha.
    The piece of I on (0, 1) is integrated as it stands.  On (1, inf),
    s = 1/t gives g(0)/(beta + 1) plus the integral over (0, 1) of
    t**beta (g(t) - g(0)), where g(t) = (expm1(p log1p t) / t)**alpha and
    beta = alpha (1 - v) - 1.  Both pieces take the tanh-sinh rule
    ``_TS_NODES``; a non-finite I, or one that differs from the same rule
    on every other node (twice the step) by more than 1e-12 relative,
    raises ComputeError.  p is the exact v - 1/alpha rounded once, so its
    relative error stays at one rounding next to the band edge; a v that
    does not exceed 1/alpha exactly raises ParameterError.
    """
    u, v, alpha = _scale_point(u, v, alpha)
    # p correctly rounded: v - 1.0 / alpha would carry the rounding of
    # 1/alpha, a large share of p next to the band edge.  fractions is
    # imported here to keep decimal off every command's start-up.
    from fractions import Fraction
    p_exact = Fraction(v) - 1 / Fraction(alpha)
    if p_exact <= 0:
        raise ParameterError(
            f"v must exceed 1/alpha exactly, got v={v}, alpha={alpha}")
    if u == 0.0:
        return 0.0
    p = float(p_exact)
    c = alpha * (1.0 - v)  # beta + 1
    s = _TS_NODES
    # (1 + s)**p - 1 and s**p - 1, so no difference cancels
    lead = np.expm1(p * np.log1p(s))
    g0 = p ** alpha
    f = ((lead - np.expm1(p * np.log(s))) ** alpha
         + s ** (c - 1.0) * ((lead / s) ** alpha - g0)) * _TS_WEIGHTS
    fine = g0 / c + math.fsum(f)
    coarse = g0 / c + 2.0 * math.fsum(f[::2])
    if not (math.isfinite(fine) and abs(fine - coarse) <= 1e-12 * fine):
        raise ComputeError(
            f"far-past scale integral failed at (u={u}, v={v}, "
            f"alpha={alpha}): value {fine}, step-doubling change "
            f"{fine - coarse}")
    return u ** v * fine ** (1.0 / alpha)


# ------------------------------------------------- truncated-sum weights --

def _weights(which: str, u: float, v: float, alpha: float, J: int,
             mode: str, union: _LfUnion = None):
    """Yields, in blocks, the weights W of the depth-J truncation of
    ``which`` ("hf" or "lf") at (u, v): the truncation is sum W_i X_i over
    independent standard stable X_i.

    Independent mode: one block per coefficient row, against its unit
    coefficients; for hf box(u) (against z1), then 2**(-j v)
    theta(2**j u - k) for each j < J; for lf 2**(-j v) (theta(2**j u + k)
    - theta(k)), k = 1..n, for each row (j, n) of _lf_rows(J).

    Consistent mode: one block, against the process increments over their
    scales.  For hf, the 2**J cell averages of the kernel,
    2**(-J p) box(2**J u - i) with p = v - 1/alpha (the tail series far
    left of u, no cancelling difference), times 2**(-J/alpha).  For lf,
    -C_i gap_i**(1/alpha) over the gaps of ``union`` (the depth-J one by
    default; a shallower one is refused): each coefficient puts its factor
    on the three points it reads, and C is their running sum.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    params = KernelParams(alpha)
    if which == "hf" and mode == "consistent":
        x = u * 2.0 ** J - np.arange(1 << J, dtype=float)
        yield (2.0 ** (-J * (v - 1.0 / alpha)) * box(x, v, params)
               * 2.0 ** (-J / alpha))
    elif which == "hf":
        yield np.atleast_1d(box(u, v, params))
        for j in range(J):
            ks = np.arange(1 << j, dtype=float)
            yield 2.0 ** (-j * v) * theta(2.0 ** j * u - ks, v, params)
    else:
        if mode == "consistent":
            union = _lf_union(J) if union is None else union
            if union.J < J:
                raise ParameterError(
                    f"union built at depth {union.J} cannot serve depth {J}")
            c = np.zeros(union.nums.shape[0])
        for j, n in _lf_rows(J):
            ks = np.arange(1, n + 1, dtype=float)
            w = theta(2.0 ** j * u + ks, v, params) - theta(ks, v, params)
            if mode == "independent":
                yield 2.0 ** (-j * v) * w
                continue
            g = -(2.0 ** (j / alpha)) * 2.0 ** (-j * v) * w
            for ix, weight in zip(union.row_maps[j], (g, -2.0 * g, g)):
                np.add.at(c, ix[:n], weight)
        if mode == "consistent":
            yield -np.cumsum(c)[:-1] * union.gaps ** (1.0 / alpha)


def _weight_evals(which: str, J: int) -> int:
    """Kernel values one pair's _weights take at depth J: 2**J box or
    theta values for hf, two theta values per coefficient for lf."""
    return 1 << J if which == "hf" else 2 * _lf_counts(J).coefficients


def _truncated_scale(which: str, u, v, alpha, J, mode: str) -> float:
    """The alpha-norm of the depth-J truncation's _weights: its exact
    stable scale."""
    u, v, alpha = _scale_point(u, v, alpha)
    J = check_depth("J", J, DEPTH_FLOOR[which])
    # consistent lf builds the union, three points per far-past
    # coefficient; every other block is at most 2**J long
    check_size(3 * _lf_counts(J).coefficients
               if which == "lf" and mode == "consistent" else 1 << J,
               f"depth J = {J} needs an array of about")
    acc = sum(float(np.sum(np.abs(w) ** alpha))
              for w in _weights(which, u, v, alpha, J, mode))
    return acc ** (1.0 / alpha)


def truncated_scale_hf(u: float, v: float, alpha: float, J: int,
                       mode: str = "consistent") -> float:
    """Exact stable scale of the depth-J recent-scales truncation (J >= 0)."""
    return _truncated_scale("hf", u, v, alpha, J, mode)


def truncated_scale_lf(u: float, v: float, alpha: float, J: int,
                       mode: str = "consistent") -> float:
    """Exact stable scale of the depth-J far-past truncation (J >= 1)."""
    return _truncated_scale("lf", u, v, alpha, J, mode)


# ----------------------------------------------------- Monte Carlo drivers --

def mc_columns(which: str, J: int) -> int:
    """Stable draws one Monte Carlo replicate of ``which`` ("hf" or "lf")
    makes at depth J, one per row of its weights: the 2**J cells of [0, 1],
    or the gaps of the depth-J far-past union."""
    return 1 << J if which == "hf" else _lf_counts(J).gaps


def _mc_replicates(alpha: float, seed: int, n: int, chunk: int,
                   weights: list) -> list:
    """n replicates of S @ W for every W in weights, one shared draw.

    S holds standard stable draws, one row per replicate and one column per
    row of each W.  Each chunk of ``chunk`` replicates is one
    ``sample_sas`` draw of shape (rows, columns), so a seed's stream is
    fixed by n and the chunk; the draw hands its blocks of whole rows to a
    consumer that writes their products with every W into the outputs, so
    S is never held.  The blocks depend only on the draw's shape, so the
    outputs do not depend on the thread count.  An n whose outputs
    check_size refuses, counted in all, is refused before any draw.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    check_size(n * sum(W.shape[1] for W in weights),
               f"{n} replicates need outputs of")
    law = StableLaw(alpha)
    gen = make_rng(seed)
    out = [np.empty((n, W.shape[1])) for W in weights]
    for done in range(0, n, chunk):
        def product(start, block, done=done):
            rows = slice(done + start, done + start + block.shape[0])
            for o, W in zip(out, weights):
                np.matmul(block, W, out=o[rows])

        sample_sas(law, gen, size=(min(chunk, n - done), weights[0].shape[0]),
                   consume=product)
    return out


def _mc_samples(which: str, pairs, alpha: float, J_list, n: int,
                seed: int) -> dict:
    """{J: (n, len(pairs)) replicates} of the consistent-mode depth-J
    truncations of ``which``, each pair's weights at every depth of J_list
    against one draw over the deepest depth's increments."""
    J_list = sorted(check_depth("J", J, DEPTH_FLOOR[which]) for J in J_list)
    if not J_list:
        raise ParameterError("J_list must hold integers >= 1")
    chunk = _MC_HF_CHUNK if which == "hf" else _MC_LF_CHUNK
    # one chunk's draw is chunk replicates' columns
    check_size(chunk * mc_columns(which, J_list[-1]),
               f"depth J = {J_list[-1]} needs an array of about")
    points = [_scale_point(u, v, alpha) for u, v in pairs]
    if not points:
        raise ParameterError("pairs must hold at least one (u, v)")
    # one weight column per pair and depth, each a row per draw column
    check_size(len(J_list) * len(points) * mc_columns(which, J_list[-1]),
               f"{len(points)} pairs at {len(J_list)} depths need weights of")
    union = _lf_union(J_list[-1]) if which == "lf" else None
    W = [np.stack([next(_weights(which, u, v, alpha, J, "consistent", union))
                   for u, v, _ in points], axis=1) for J in J_list]
    return dict(zip(J_list, _mc_replicates(alpha, seed, n, chunk, W)))


def mc_x1_samples(pairs, alpha: float, J: int, n: int,
                  seed: int) -> np.ndarray:
    """Replicates of the consistent-mode depth-J recent-scales truncation.

    Returns an (n, len(pairs)) array; column order follows ``pairs`` (a
    sequence of (u, v)).  All columns share one standard-stable draw
    matrix, so estimates across pairs use common random numbers.  J must
    be >= 0; a pair that the scale functions refuse is refused here too,
    and so is an empty ``pairs``.
    """
    return _mc_samples("hf", pairs, alpha, [J], n, seed).popitem()[1]


def mc_x2_samples(pairs, alpha: float, J_list, n: int, seed: int) -> dict:
    """Replicates of consistent-mode far-past truncations at several depths.

    Returns {J: (n, len(pairs)) array}.  All depths and pairs share one
    draw of the increments over the union grid of the deepest truncation,
    so depth-to-depth comparisons are common-random-number comparisons.
    Depths must be >= 1; pairs that the scale functions refuse, and an
    empty ``pairs``, are refused.
    """
    return _mc_samples("lf", pairs, alpha, J_list, n, seed)


# ------------------------------------------------------ convergence study --

def _x1_row_on_dyadic(rows: np.ndarray, j: int, v: float, L: int,
                      params: KernelParams) -> np.ndarray:
    """Scale-j row sum at every u = m / 2**L, via one FFT convolution per
    row of ``rows`` (shape (replicates, 2**j)), one output line per row.

    The kernel arguments 2**j u - k = (m - k R) / R live on the lattice of
    step 1/R, R = 2**max(L - j, 0), so each row zero-stuffed by R convolved
    with a kernel table at that step gives the sum at every m / (R 2**j);
    every 2**max(j - L, 0)-th value is a grid point.  The table and its
    transform are computed once for all the rows.
    """
    R = 1 << max(L - j, 0)
    n = rows.shape[1] * R
    # the full linear convolution has 2n values, and 2n is a power of two
    kernel_spec = np.fft.rfft(theta(np.arange(n + 1) / R, v, params), 2 * n)
    out = np.empty((rows.shape[0], (1 << L) + 1))
    stuffed = np.zeros(n)
    for o, row in zip(out, rows):
        stuffed[::R] = row
        cv = np.fft.irfft(np.fft.rfft(stuffed, 2 * n) * kernel_spec, 2 * n)
        o[:] = cv[::1 << max(j - L, 0)][: (1 << L) + 1]
    return out


def _row_medians(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=1)``, bit for bit and NaN rows included, without
    the ``numpy.ma`` import that np.median makes to check for masks."""
    s = np.sort(a, axis=1)
    m = a.shape[1]
    mid = 0.5 * (s[:, (m - 1) // 2] + s[:, m // 2])
    return np.where(np.isnan(s[:, -1]), np.nan, mid)


@dataclass(eq=False)
class ConvergenceReport:
    """Depth-refinement difference norms and the fitted decay slope.

    ``norms[p, r]`` is the sup-grid norm of the depth J_list[p] + 1 field
    minus the depth J_list[p] field in replicate r, maximized over the
    exponent grid.  ``fitted_slope`` is the least-squares slope of
    log2(median norm) against J, or None when J_list has a single entry.
    """

    which: str
    alpha: float
    v_grid: np.ndarray
    J_list: list
    norms: np.ndarray
    medians: np.ndarray
    fitted_slope: float
    theoretical_slope: float
    grid_spec: str
    seeds: list
    replicates: int


def convergence_study(which: str, alpha: float, v_range, J_list,
                      replicates: int, seed: int) -> ConvergenceReport:
    """Measure decay of one-step depth refinements across replicates.

    For every J in J_list the study evaluates the difference between the
    depth-(J+1) and depth-J truncations of one realization (the same
    pyramid, drawn once per replicate at depth max(J_list) + 1, each from
    its own Philox stream spawned from ``seed``) and takes its sup over the
    evaluation grid.  All pyramids are drawn before any kernel work; each
    kernel table or spectrum is then built once per (depth, exponent, row)
    and shared by the replicates, which changes no bit of the norms against
    evaluating each replicate on its own.  ``v_range`` is (a, b); norms are
    maximized over the exponents {a, (a+b)/2, b}.  Fewer than 8 replicates
    raises StatisticsError; a single-entry J_list yields no slope.  The
    fitted slope is compared against -(a - 1/alpha) for the recent-scales
    half (its slowest decay sits at the lower exponent) and -(1 - b) for
    the far past.  A study whose stacked rows, or lines of differences,
    would hold more than MAX_VALUES values in all is refused before any
    draw.
    """
    if which not in ("hf", "lf"):
        raise ParameterError(f"which must be 'hf' or 'lf', got {which!r}")
    check_alpha(alpha)
    check_seed(seed)
    if replicates < 8:
        raise StatisticsError(
            f"need at least 8 replicates for median norms, got {replicates}")
    a, b = float(v_range[0]), float(v_range[1])
    if not 1.0 / alpha < a <= b < 1.0:
        raise ParameterError(
            f"v_range must satisfy 1/alpha < a <= b < 1, got ({a}, {b})")
    J_list = [check_depth(f"{which} depth", J, DEPTH_FLOOR[which])
              for J in J_list]
    if not J_list or J_list != sorted(set(J_list)):
        raise ParameterError("J_list must be non-empty, strictly increasing")
    # not np.unique, which imports numpy.ma
    v_grid = np.array(sorted({a, 0.5 * (a + b), b}))
    params = KernelParams(alpha)
    depth = J_list[-1] + 1
    u_grid = np.linspace(0.0, 1.0, _LF_POINTS)
    # each replicate's rows, stacked, and its lines of differences
    if which == "hf":
        per_rep = max(sum(1 << J for J in J_list),
                      (1 << min(depth, _HF_LEVEL)) + 1)
    else:
        per_rep = max(_lf_counts(depth).coefficients, u_grid.size)
    check_size(replicates * per_rep, f"{replicates} replicates need arrays of")
    seeds = [[seed, rep] for rep in range(replicates)]
    norms = np.empty((len(J_list), replicates))
    stacks = {}
    for rep in range(replicates):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        gen = np.random.Generator(np.random.Philox(ss))
        if which == "hf":
            pyr = generate_coefficients(alpha, depth, 2, "consistent", gen)
            rows = {J: pyr.hf[J] for J in J_list}
        else:
            pyr = generate_coefficients(alpha, 1, depth, "consistent", gen)
            rows = {j: pyr.lf_row(j) for j, _ in _lf_rows(depth)}
        for key, row in rows.items():
            stacks.setdefault(key, np.empty((replicates, row.size)))[rep] = row
    for p, J in enumerate(J_list):
        best = np.zeros(replicates)
        for v in v_grid:
            if which == "hf":
                # row J on the dyadic grid of level min(J + 1, _HF_LEVEL)
                diff = 2.0 ** (-J * v) * _x1_row_on_dyadic(
                    stacks[J], J, v, min(J + 1, _HF_LEVEL), params)
            else:
                # the terms the depth step J -> J + 1 adds to each row
                diff = sum(far_past_terms(u_grid, v, stacks[j], j, lo, hi,
                                          params)
                           for j, lo, hi in _lf_steps(J))
            best = np.maximum(best, np.max(np.abs(diff), axis=1))
        norms[p] = best
    medians = _row_medians(norms)
    if len(J_list) >= 2:
        fitted = float(np.polyfit(np.array(J_list, dtype=float),
                                  np.log2(medians), 1)[0])
    else:
        fitted = None
    theoretical = -(a - 1.0 / alpha) if which == "hf" else -(1.0 - b)
    grid_spec = (f"dyadic level min(J+1, {_HF_LEVEL}) on [0, 1]"
                 if which == "hf" else f"uniform {_LF_POINTS} points on [0, 1]")
    return ConvergenceReport(
        which=which, alpha=alpha, v_grid=v_grid, J_list=J_list, norms=norms,
        medians=medians, fitted_slope=fitted, theoretical_slope=theoretical,
        grid_spec=grid_spec, seeds=seeds, replicates=replicates)


def far_past_study_work(J_list) -> tuple:
    """(kernel table entries, stable draws) of one replicate and exponent
    of ``convergence_study("lf", ...)``, with nothing drawn or evaluated.
    Each stretch a depth step of J_list adds to a row costs R x (its
    length + _LF_POINTS) where far_past_terms sums it by R Taylor terms,
    else _LF_POINTS x its length; the draws are the far-past walk of the
    depth-(max(J_list) + 1) pyramid."""
    entries = 0
    for J in J_list:
        for j, lo, hi in _lf_steps(J):
            R = _moment_order(j, lo, 1.0)
            entries += R * (hi - lo + _LF_POINTS) if R else \
                _LF_POINTS * (hi - lo)
    return entries, (_lf_counts(max(J_list) + 1).steps if J_list else 0)
