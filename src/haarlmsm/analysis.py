"""Validation harness: scale identities and convergence rates.

Scale identities.  At a fixed position u the limiting laws of the two
series halves are symmetric stable with computable scales:
``x1_theoretical_scale`` is closed-form, ``x2_theoretical_scale`` integrates
the defining kernel integral with one fixed double-exponential (tanh-sinh)
rule, checked against the same rule at twice the step.  The *truncated* sums
are also stable for each fixed truncation depth, and in consistent mode
their exact scales follow from rewriting the sum as a weighted integral of
the driving process; ``truncated_scale_hf`` / ``truncated_scale_lf`` return
them.  Monte Carlo drivers (``mc_x1_samples``, ``mc_x2_samples``) draw many
replicates of the truncated sums through the same weighted-increment
rewriting, which is orders of magnitude cheaper than evaluating the series
per replicate and is validated against the series evaluators pathwise in
the test suite.

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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ComputeError, ParameterError, StatisticsError
from .kernels import KernelParams, check_alpha, theta, truncated_power
from .series import check_uv, far_past_terms
from .stable_rng import (
    MAX_VALUES,
    StableLaw,
    _LfUnion,
    _lf_rows,
    _lf_steps,
    _lf_union,
    check_seed,
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

@lru_cache(maxsize=None)
def first_abs_moment(alpha: float) -> float:
    """E|X| for the unit-scale symmetric stable law: (2/pi) Gamma(1 - 1/alpha)."""
    check_alpha(alpha)
    return 2.0 / math.pi * math.gamma(1.0 - 1.0 / alpha)


def estimate_scale(samples, alpha: float) -> float:
    """Scale estimate mean(|x|) / E|X_standard|; needs at least 1000 samples."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 1000:
        raise StatisticsError(
            f"need at least 1000 samples for a scale estimate, got "
            f"{samples.size}")
    return float(np.mean(np.abs(samples)) / first_abs_moment(alpha))


def x1_theoretical_scale(u: float, v: float, alpha: float) -> float:
    """Limiting scale of the recent-scales half: u**v * (alpha*v)**(-1/alpha)."""
    check_uv(u, v, alpha)
    # numpy float32 inputs would keep the formula in float32
    u, v, alpha = float(u), float(v), float(alpha)
    if u == 0.0:
        return 0.0
    return float(u ** v * (alpha * v) ** (-1.0 / alpha))


@lru_cache(maxsize=None)
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
    check_uv(u, v, alpha)
    # float32 inputs would run in float32, and equal float keys hit the cache
    u, v, alpha = float(u), float(v), float(alpha)
    # p correctly rounded: v - 1.0 / alpha would carry the rounding of
    # 1/alpha, a large share of p next to the band edge.  fractions is
    # imported here to keep decimal off every command's start-up.
    from fractions import Fraction
    p_exact = Fraction(float(v)) - 1 / Fraction(float(alpha))
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


# ------------------------------------------------ truncated-sum rewriting --

def _check_depth(J, j_min: int, per_level: int) -> None:
    """Refuse a depth below j_min, or one whose largest array or stable
    draw, of about per_level * 2**J values, would exceed MAX_VALUES."""
    if not (isinstance(J, (int, np.integer)) and J >= j_min):
        raise ParameterError(f"J must be an integer >= {j_min}, got {J}")
    if per_level << int(J) > MAX_VALUES:
        raise ParameterError(
            f"depth J = {J} needs an array of about {per_level << int(J)} "
            f"values, over the budget of {MAX_VALUES}")


def _hf_cell_averages(u: float, v: float, alpha: float, J: int) -> np.ndarray:
    """Averages of s -> (u - s)_+**p over the 2**J dyadic cells of [0, 1].

    The depth-J consistent truncation equals the integral of the cellwise
    average of the kernel against the driving process, so these averages
    times the cell increments reproduce it exactly.
    """
    q = 1.0 + v - 1.0 / alpha
    t = np.linspace(0.0, 1.0, (1 << J) + 1)
    anti = truncated_power(u - t, q) / q
    return (1 << J) * (anti[:-1] - anti[1:])


def _lf_row_factors(u: float, v: float, J: int, params: KernelParams):
    """Yields (j, n, theta(2**j u + k) - theta(k) at k = 1..n) for each
    far-past row (j, n) of depth J: the factors of its coefficients."""
    for j, n in _lf_rows(J):
        ks = np.arange(1, n + 1, dtype=float)
        yield j, n, theta(2.0 ** j * u + ks, v, params) - theta(ks, v, params)


def _lf_cumulative_weights(union: _LfUnion, u: float, v: float, alpha: float,
                           J_eval: int, params: KernelParams) -> np.ndarray:
    """Weights C with depth-J_eval far-past sum = -sum_i C_i dZ_i.

    Each coefficient contributes its kernel-difference factor at the three
    points it reads; expressing the process values through the increments
    between consecutive union points gives one weight per increment.
    """
    if J_eval > union.J:
        raise ParameterError(
            f"union built at depth {union.J} cannot serve depth {J_eval}")
    c = np.zeros(union.nums.shape[0])
    for j, n, w in _lf_row_factors(u, v, J_eval, params):
        g = -(2.0 ** (j / alpha)) * 2.0 ** (-j * v) * w
        for ix, weight in zip(union.row_maps[j], (g, -2.0 * g, g)):
            np.add.at(c, ix[:n], weight)
    return np.cumsum(c)[:-1]


def truncated_scale_hf(u: float, v: float, alpha: float, J: int,
                       mode: str = "consistent") -> float:
    """Exact stable scale of the depth-J recent-scales truncation (J >= 0)."""
    check_uv(u, v, alpha)
    u, v, alpha = float(u), float(v), float(alpha)
    _check_depth(J, 0, 1)
    if mode == "consistent":
        w = _hf_cell_averages(u, v, alpha, J)
        return float(np.sum(np.abs(w) ** alpha) * 2.0 ** (-J)) ** (1.0 / alpha)
    if mode == "independent":
        q = 1.0 + v - 1.0 / alpha
        params = KernelParams(alpha)
        acc = (u ** q / q) ** alpha
        for j in range(J):
            ks = np.arange(1 << j, dtype=float)
            w = theta(2.0 ** j * u - ks, v, params)
            acc += 2.0 ** (-j * v * alpha) * float(np.sum(np.abs(w) ** alpha))
        return acc ** (1.0 / alpha)
    raise ParameterError(f"unknown mode {mode!r}")


def truncated_scale_lf(u: float, v: float, alpha: float, J: int,
                       mode: str = "consistent") -> float:
    """Exact stable scale of the depth-J far-past truncation (J >= 1)."""
    check_uv(u, v, alpha)
    u, v, alpha = float(u), float(v), float(alpha)
    # the union is built from three points per far-past coefficient
    _check_depth(J, 1, 9)
    params = KernelParams(alpha)
    if mode == "consistent":
        union = _lf_union(J)
        C = _lf_cumulative_weights(union, u, v, alpha, J, params)
        return float(np.sum(np.abs(C) ** alpha * union.gaps)) ** (1.0 / alpha)
    if mode == "independent":
        acc = 0.0
        for j, _, w in _lf_row_factors(u, v, J, params):
            acc += 2.0 ** (-j * v * alpha) * float(np.sum(np.abs(w) ** alpha))
        return acc ** (1.0 / alpha)
    raise ParameterError(f"unknown mode {mode!r}")


# ----------------------------------------------------- Monte Carlo drivers --

def _mc_replicates(alpha: float, seed: int, n: int, chunk: int,
                   weights: list) -> list:
    """n replicates of S @ W for every W in weights, one shared draw.

    S holds standard stable draws, one row per replicate and one column per
    row of each W.  Each chunk of ``chunk`` replicates is one
    ``sample_sas`` draw of shape (rows, columns), so a seed's stream is
    fixed by n and the chunk; the draw hands its blocks of whole rows to a
    consumer that writes their products with every W into the outputs, so
    S is never held.  The blocks depend only on the draw's shape, so the
    outputs do not depend on the thread count.  An n whose outputs would
    hold more than MAX_VALUES values in all is refused before any draw.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    size = n * sum(W.shape[1] for W in weights)
    if size > MAX_VALUES:
        raise ParameterError(
            f"{n} replicates need {size} output values, over the budget of "
            f"{MAX_VALUES}")
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


def mc_x1_samples(pairs, alpha: float, J: int, n: int,
                  seed: int) -> np.ndarray:
    """Replicates of the consistent-mode depth-J recent-scales truncation.

    Returns an (n, len(pairs)) array; column order follows ``pairs`` (a
    sequence of (u, v)).  All columns share one standard-stable draw
    matrix, so estimates across pairs use common random numbers.  J must
    be >= 0.
    """
    # one chunk's draw is _MC_HF_CHUNK x 2**J values
    _check_depth(J, 0, _MC_HF_CHUNK)
    W = np.stack([_hf_cell_averages(u, v, alpha, J) * 2.0 ** (-J / alpha)
                  for u, v in pairs], axis=1)
    return _mc_replicates(alpha, seed, n, _MC_HF_CHUNK, [W])[0]


def mc_x2_samples(pairs, alpha: float, J_list, n: int, seed: int) -> dict:
    """Replicates of consistent-mode far-past truncations at several depths.

    Returns {J: (n, len(pairs)) array}.  All depths and pairs share one
    draw of the increments over the union grid of the deepest truncation,
    so depth-to-depth comparisons are common-random-number comparisons.
    """
    J_list = sorted(int(J) for J in J_list)
    if not J_list or J_list[0] < 1:
        raise ParameterError("J_list must hold integers >= 1")
    # one chunk's draw is _MC_LF_CHUNK x the union grid's 3 * 2**J - 2 gaps
    _check_depth(J_list[-1], 1, 3 * _MC_LF_CHUNK)
    params = KernelParams(alpha)
    union = _lf_union(J_list[-1])
    root = union.gaps ** (1.0 / alpha)
    W = [np.stack([-_lf_cumulative_weights(union, u, v, alpha, J, params)
                   * root for u, v in pairs], axis=1) for J in J_list]
    return dict(zip(J_list,
                    _mc_replicates(alpha, seed, n, _MC_LF_CHUNK, W)))


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
    log2(median norm) against J, or None when J_list has a single entry
    (flagged ``no_slope``).
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
    flags: list = field(default_factory=list)


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
    raises StatisticsError; a single-entry J_list yields no slope and is
    flagged.  The fitted slope is compared against -(a - 1/alpha) for the
    recent-scales half (its slowest decay sits at the lower exponent) and
    -(1 - b) for the far past.  A study whose stacked rows, or lines of
    differences, would hold more than MAX_VALUES values in all is refused
    before any draw.
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
    J_list = [int(J) for J in J_list]
    if not J_list or J_list != sorted(set(J_list)):
        raise ParameterError("J_list must be non-empty, strictly increasing")
    j_floor = 0 if which == "hf" else 1
    if J_list[0] < j_floor:
        raise ParameterError(
            f"{which} depths must be >= {j_floor}, got {J_list[0]}")
    # not np.unique, which imports numpy.ma
    v_grid = np.array(sorted({a, 0.5 * (a + b), b}))
    params = KernelParams(alpha)
    flags = []
    depth = J_list[-1] + 1
    u_grid = np.linspace(0.0, 1.0, 1025)
    # each replicate's rows, stacked, and its lines of differences
    if which == "hf":
        per_rep = max(sum(1 << J for J in J_list), (1 << min(depth, 15)) + 1)
    else:
        per_rep = max(3 * (1 << depth) - 4, u_grid.size)
    if replicates * per_rep > MAX_VALUES:
        raise ParameterError(
            f"{replicates} replicates need arrays of {replicates * per_rep} "
            f"values, over the budget of {MAX_VALUES}")
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
                # row J on the dyadic grid of level min(J + 1, 15)
                diff = 2.0 ** (-J * v) * _x1_row_on_dyadic(
                    stacks[J], J, v, min(J + 1, 15), params)
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
        flags.append("no_slope")
    theoretical = -(a - 1.0 / alpha) if which == "hf" else -(1.0 - b)
    grid_spec = ("dyadic level min(J+1, 15) on [0, 1]" if which == "hf"
                 else "uniform 1025 points on [0, 1]")
    return ConvergenceReport(
        which=which, alpha=alpha, v_grid=v_grid, J_list=J_list, norms=norms,
        medians=medians, fitted_slope=fitted, theoretical_slope=theoretical,
        grid_spec=grid_spec, seeds=seeds, replicates=replicates, flags=flags)
