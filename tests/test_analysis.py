"""Tests for scale oracles, Monte Carlo drivers, and convergence studies."""

import ast
import os

import numpy as np
import pytest

from haarlmsm import analysis, series, stable_rng
from haarlmsm.analysis import (
    ConvergenceReport,
    convergence_study,
    estimate_scale,
    first_abs_moment,
    mc_x1_samples,
    mc_x2_samples,
    truncated_scale_hf,
    truncated_scale_lf,
    x1_theoretical_scale,
    x2_theoretical_scale,
    _row_medians,
    _weights,
    _x1_row_on_dyadic,
)
from haarlmsm.errors import ParameterError, StatisticsError
from haarlmsm.kernels import KernelParams, theta
from haarlmsm.lmsm import synthesize_path
from haarlmsm.series import far_past_terms, x1_partial, x2_partial
from haarlmsm.stable_rng import (
    MODES,
    generate_coefficients,
    make_rng,
    prefix_sums,
    sample_sas,
    StableLaw,
    _lf_points,
    _lf_rows,
)
from oracles import build_levy_grid, traced_held, traced_peak

ALPHA = 1.5

# absolute first moments of the standard law, frozen from the closed form
# (2/pi)Gamma(1-1/alpha) after cross-checking against large Monte Carlo runs
M1_FROZEN = {1.3: 2.512000940386, 1.5: 1.705465240152, 1.7: 1.370884423793}

# quadrature values of the far-past limiting scale at alpha=1.5, frozen from
# an independent splitting of the same integral run before the build
X2_SCALE_FROZEN = {
    (0.25, 0.7): 0.029748525710,
    (0.25, 0.8): 0.120351874139,
    (0.5, 0.7): 0.048326622588,
    (0.5, 0.8): 0.209544783481,
    (1.0, 0.7): 0.078506830022,
    (1.0, 0.8): 0.364838658789,
    (1.0, 0.75): 0.208312268271,
}

# far-past limiting scale at u = 1, frozen from 40-digit mpmath 1.3.0
# quadrature of the split form of x2_theoretical_scale's docstring (the
# piece on (0, 1), plus g(0)/(beta + 1) and the t**beta (g(t) - g(0))
# integral), at v = 1/alpha + 0.002, the band midpoint and 0.998
X2_SCALE_40_DIGITS = {
    (1.05, 0.9543809523809523): 0.037832838588486268,
    (1.05, 0.9761904761904762): 0.81818848143119398,
    (1.05, 0.998): 16.228260366879927,
    (1.2, 0.8353333333333334): 0.0091715272466258893,
    (1.2, 0.9166666666666667): 0.61699223960224738,
    (1.2, 0.998): 25.153327878508155,
    (1.5, 0.6686666666666666): 0.0045926271781676149,
    (1.5, 0.8333333333333333): 0.49624591174722631,
    (1.5, 0.998): 15.958203809639946,
    (1.8, 0.5575555555555556): 0.0037849874453936904,
    (1.8, 0.7777777777777778): 0.46247433276477422,
    (1.8, 0.998): 10.09830304860269,
    (1.95, 0.5148205128205129): 0.0036493089675568594,
    (1.95, 0.7564102564102564): 0.4564649675053951,
    (1.95, 0.998): 8.3565425723718365,
}
# the same quadrature next to the band edge, at v = 1/alpha + 2e-7..1e-6,
# where p = v - 1/alpha formed in floating point is off by up to 2e-10
X2_SCALE_40_DIGITS_EDGE = {
    (1.5, 0.6666671666666666): 1.1466160049161138295e-6,
    (1.2, 0.8333343333333334): 4.5502341411493478554e-6,
    (1.8, 0.5555557555555556): 3.786981472969910792e-7,
    (1.05, 0.9523819523809524): 0.000018196968395131366365,
    (1.95, 0.5128210128205128): 9.1332843965426862674e-7,
}

# exact consistent-mode far-past truncation scales at depths 7, 8, 9
LF_TRUNCATED_FROZEN = {
    (0.25, 0.7): (0.027888340110, 0.028653036554, 0.029169091332),
    (0.5, 0.7): (0.043591418380, 0.045338298225, 0.046562728339),
    (1.0, 0.8): (0.264042436192, 0.286029555638, 0.303782014667),
}


def test_first_abs_moment_frozen_values():
    for alpha, ref in M1_FROZEN.items():
        assert abs(first_abs_moment(alpha) - ref) < 1e-9
    with pytest.raises(ParameterError):
        first_abs_moment(2.0)
    with pytest.raises(ParameterError):
        first_abs_moment(1.0)


def test_estimate_scale_contract():
    assert estimate_scale(np.zeros(2000), ALPHA) == 0.0
    with pytest.raises(StatisticsError):
        estimate_scale(np.ones(999), ALPHA)
    draws = sample_sas(StableLaw(ALPHA), make_rng(11), size=100_000)
    est = estimate_scale(3.7 * draws, ALPHA)
    assert abs(est / 3.7 - 1.0) < 0.02


def test_estimate_scale_on_pyramid_row():
    # detail coefficients are standard draws, so a long row estimates to 1.
    # The absolute-mean estimator keeps a ~4% spread even at this length
    # (heavy tails), so the seed is frozen to one with a typical draw and
    # the sharper median-based check below pins the scale itself.
    pyr = generate_coefficients(ALPHA, 15, 2, "consistent", 24)
    row = pyr.hf[14]
    assert row.shape[0] >= 10_000
    assert abs(estimate_scale(row, ALPHA) - 1.0) < 0.05
    med_std = 0.9689331817  # median |X| of the standard alpha=1.5 law
    assert abs(np.median(np.abs(row)) / med_std - 1.0) < 0.03


def test_x1_scale_closed_form():
    assert x1_theoretical_scale(0.0, 0.75, ALPHA) == 0.0
    assert x1_theoretical_scale(1.0, 0.75, ALPHA) == pytest.approx(
        1.125 ** (-2.0 / 3.0), abs=1e-15)
    # scale(u) / u**v does not depend on u
    us = np.array([0.1, 0.3, 0.6, 1.0])
    ratios = [x1_theoretical_scale(u, 0.7, ALPHA) / u ** 0.7 for u in us]
    assert np.ptp(ratios) < 1e-12
    with pytest.raises(ParameterError):
        x1_theoretical_scale(1.5, 0.75, ALPHA)
    with pytest.raises(ParameterError):
        x1_theoretical_scale(0.5, 0.5, ALPHA)
    # a numpy float32 alpha gives the float call's bits
    got = x1_theoretical_scale(0.5, 0.75, np.float32(1.7))
    assert type(got) is float
    assert got == x1_theoretical_scale(0.5, 0.75, float(np.float32(1.7)))


def test_x2_scale_quadrature_frozen_values():
    for (u, v), ref in X2_SCALE_FROZEN.items():
        assert abs(x2_theoretical_scale(u, v, ALPHA) - ref) < 1e-9


def test_x2_scale_matches_40_digit_references():
    for (alpha, v), ref in {**X2_SCALE_40_DIGITS,
                            **X2_SCALE_40_DIGITS_EDGE}.items():
        assert abs(x2_theoretical_scale(1.0, v, alpha) / ref - 1.0) <= 1e-13
    # u enters only as the factor u**v
    for (alpha, v), ref in list(X2_SCALE_40_DIGITS.items())[::4]:
        got = x2_theoretical_scale(0.37, v, alpha)
        assert abs(got / (0.37 ** v * ref) - 1.0) <= 1e-13
    # v above the float32 rounding of 1/alpha, but not above 1/alpha:
    # check_uv forms 1/alpha in float64 and refuses it
    alpha32 = np.float32(1.7)
    with pytest.raises(ParameterError, match="v must lie"):
        x2_theoretical_scale(1.0, float(1.0 / alpha32) + 1e-9, alpha32)


def test_x2_scale_defined_across_the_band():
    # the step-doubling gate holds, and the scale grows with v, everywhere
    # from next to 1/alpha to next to 1
    for alpha in np.linspace(1.01, 1.99, 12):
        lo = 1.0 / alpha
        vals = [x2_theoretical_scale(0.5, float(v), float(alpha))
                for v in lo + (1.0 - lo) * np.linspace(0.001, 0.999, 12)]
        assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) > 0.0)


def test_x2_scale_zero_and_monotone():
    assert x2_theoretical_scale(0.0, 0.75, ALPHA) == 0.0
    for v in (0.7, 0.8):
        vals = [x2_theoretical_scale(u, v, ALPHA) for u in (0.25, 0.5, 1.0)]
        assert vals[0] < vals[1] < vals[2]


def test_truncated_hf_scale_approaches_theory():
    # the cell-average construction projects the kernel, so its scale gap
    # closes quickly with depth
    for (u, v) in ((0.25, 0.7), (1.0, 0.75)):
        s12 = truncated_scale_hf(u, v, ALPHA, 12)
        assert abs(s12 / x1_theoretical_scale(u, v, ALPHA) - 1.0) < 5e-3
    with pytest.raises(ParameterError):
        truncated_scale_hf(0.5, 0.75, ALPHA, 8, mode="exotic")


_SCALE_CALLS = [
    (x1_theoretical_scale, ()), (x2_theoretical_scale, ()),
    (truncated_scale_hf, (6, "consistent")),
    (truncated_scale_hf, (6, "independent")),
    (truncated_scale_lf, (6, "consistent")),
    (truncated_scale_lf, (6, "independent"))]


@pytest.mark.parametrize("fn, args", _SCALE_CALLS)
def test_scales_of_float32_points_are_the_float_scales(fn, args):
    # each scale is computed in float64
    u, v = np.float32(0.3), np.float32(0.8)
    got = fn(u, v, ALPHA, *args)
    want = fn(float(u), float(v), ALPHA, *args)
    assert type(got) is float and got == want


@pytest.mark.parametrize("fn, args", _SCALE_CALLS)
@pytest.mark.parametrize("u, v", [
    (np.array([0.3, 0.5]), 0.8), (np.array([0.3]), 0.8),
    (0.3, np.array([0.8, 0.9])), (0.3, np.array([0.8]))])
def test_scales_refuse_array_points(fn, args, u, v):
    """A scale function computes one point: an array u or v, one element
    long too, is refused as a ParameterError."""
    with pytest.raises(ParameterError, match="must be scalars"):
        fn(u, v, ALPHA, *args)


def test_truncated_lf_scale_frozen_regression():
    for (u, v), refs in LF_TRUNCATED_FROZEN.items():
        for J, ref in zip((7, 8, 9), refs):
            assert abs(truncated_scale_lf(u, v, ALPHA, J) - ref) < 1e-10


def _weight_route_points(alpha):
    # (u, v) across the band (1/alpha, 1) of each alpha
    lo = 1.0 / alpha
    return [(u, lo + t * (1.0 - lo))
            for u, t in ((0.25, 0.2), (0.63, 0.5), (1.0, 0.9))]


def _assert_weights_reproduce(which, alpha, J, mode, drivers, series_at):
    # the weights dotted with the standardized drivers of the realization
    # give the naive series on it, to roundoff of their terms
    for u, v in _weight_route_points(alpha):
        w = np.concatenate(list(_weights(which, u, v, alpha, J, mode)))
        direct = series_at(u, v)
        assert w.size == drivers.size
        assert abs(float(w @ drivers) - direct) <= \
            1e-13 * float(np.sum(np.abs(w * drivers))), (u, v)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("mode", MODES)
def test_hf_weight_route_reproduces_series(mode, alpha):
    # consistent: the cell increments over their scale 2**(-J/alpha);
    # independent: z1, then the rows
    J = 10
    pyr = generate_coefficients(alpha, J, 6, mode, 314)
    ps = prefix_sums(pyr)
    drivers = (np.diff(pyr.hf_values) * 2.0 ** (J / alpha)
               if mode == "consistent" else
               np.concatenate([[pyr.z1], *pyr.hf]))
    _assert_weights_reproduce(
        "hf", alpha, J, mode, drivers,
        lambda u, v: x1_partial(u, v, pyr, ps, J, method="naive"))


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("mode", MODES)
def test_lf_weight_route_reproduces_series(mode, alpha):
    # consistent: the increments between union points over their scales
    # gap**(1/alpha); independent: the rows in _lf_rows order
    J = 6
    pyr = generate_coefficients(alpha, 10, J, mode, 314)
    ps = prefix_sums(pyr)
    gaps = np.diff(_lf_points(J) * 2.0 ** (-J))
    drivers = (np.diff(pyr.lf_values) / gaps ** (1.0 / alpha)
               if mode == "consistent" else np.concatenate(pyr.lf))
    _assert_weights_reproduce(
        "lf", alpha, J, mode, drivers,
        lambda u, v: x2_partial(u, v, pyr, ps, J, method="naive"))


def test_weights_refuse_a_shallower_union():
    # a deeper union serves a shallower depth, never the other way round
    next(_weights("lf", 0.5, 0.8, ALPHA, 5, "consistent", 6))
    with pytest.raises(ParameterError, match="depth 5 cannot serve depth 6"):
        next(_weights("lf", 0.5, 0.8, ALPHA, 6, "consistent", 5))


def test_exact_lf_scale_holds_nothing_after_it_returns():
    # the far-past grid is indexed in closed form as each row is read, and
    # nothing of it is cached, so nothing of it outlives the call
    held = traced_held(
        lambda: truncated_scale_lf(0.5, 0.75, ALPHA, 14, "consistent"))
    assert held <= 2 ** 20


def test_kernels_are_called_only_for_weights_and_dyadic_rows():
    # the scales and the Monte Carlo take every kernel value through
    # _weights, so its count prices them all; the convergence study's FFT
    # rows are the one other caller
    with open(analysis.__file__) as fh:
        tree = ast.parse(fh.read(), analysis.__file__)

    def calls(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) in ("box", "theta")]

    allowed = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
               and n.name in ("_weights", "_x1_row_on_dyadic")]
    assert len(allowed) == 2
    inside = [line for fn in allowed for line in calls(fn)]
    assert inside and sorted(inside) == sorted(calls(tree))


def test_mc_x1_matches_exact_scale():
    pairs = [(0.25, 0.7), (1.0, 0.75)]
    samples = mc_x1_samples(pairs, ALPHA, 8, 20_000, seed=42)
    assert samples.shape == (20_000, 2)
    for i, (u, v) in enumerate(pairs):
        est = estimate_scale(samples[:, i], ALPHA)
        ref = truncated_scale_hf(u, v, ALPHA, 8)
        assert abs(est / ref - 1.0) < 0.05
    again = mc_x1_samples(pairs, ALPHA, 8, 64, seed=42)
    assert np.array_equal(again, mc_x1_samples(pairs, ALPHA, 8, 64, seed=42))


def test_mc_holds_no_chunk(cpus):
    # each chunk's draw hands its blocks straight to the products, so the
    # Monte Carlo holds its outputs, its weights and a few blocks
    pairs = [(0.25, 0.7), (1.0, 0.75)]
    J, n = 9, 4096
    peak = traced_peak(lambda: mc_x1_samples(pairs, ALPHA, J, n, seed=5))
    assert peak <= 8 * len(pairs) * (n + 2 ** J) + 2 ** 20
    depths = [5, 7]
    peak = traced_peak(lambda: mc_x2_samples(pairs, ALPHA, depths, n, 6))
    gaps = 3 * 2 ** depths[-1] - 2
    assert peak <= 8 * len(pairs) * len(depths) * (n + gaps) + 2 ** 20


@pytest.mark.parametrize("which", ["hf", "lf"])
def test_streamed_mc_matches_the_chunk_product(which, monkeypatch):
    # against one chunk's draw times the weights, formed whole: equal up
    # to the roundoff of a matrix product taken over fewer rows, and bit
    # for bit the same on one CPU and on two
    pairs = [(0.25, 0.7), (0.5, 0.8), (1.0, 0.75)]
    W = []

    def keep_weights(alpha, seed, n, chunk, weights):
        W.extend(weights)
        return replicates(alpha, seed, n, chunk, weights)

    replicates = analysis._mc_replicates
    monkeypatch.setattr(analysis, "_mc_replicates", keep_weights)
    runs = {}
    for cpus in (2, 1):
        W.clear()
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if which == "hf":
            runs[cpus] = [mc_x1_samples(pairs, ALPHA, 8, 1500, seed=11)]
            chunk = analysis._MC_HF_CHUNK
        else:
            by_J = mc_x2_samples(pairs, ALPHA, [4, 6], 5000, seed=12)
            runs[cpus] = [by_J[4], by_J[6]]
            chunk = analysis._MC_LF_CHUNK
    for a, b in zip(runs[2], runs[1]):
        assert np.array_equal(a, b)
    gen = make_rng(11 if which == "hf" else 12)
    n = runs[1][0].shape[0]
    for done in range(0, n, chunk):
        m = min(chunk, n - done)
        S = sample_sas(StableLaw(ALPHA), gen, size=(m, W[0].shape[0]))
        for got, w in zip(runs[1], W):
            want = S @ w
            tol = 1e-13 * np.max(np.abs(want), axis=0)
            assert np.all(np.abs(got[done:done + m] - want) <= tol)


def test_row_medians_match_numpy_median():
    rng = np.random.default_rng(8)
    for m in range(1, 12):
        a = np.abs(rng.standard_cauchy((6, m)))
        a[2, m // 2] = np.nan
        assert np.array_equal(_row_medians(a), np.median(a, axis=1),
                              equal_nan=True)


def test_mc_x2_matches_exact_scale_with_common_draws():
    pairs = [(0.25, 0.7), (1.0, 0.75)]
    out = mc_x2_samples(pairs, ALPHA, [5, 6], 20_000, seed=43)
    devs = {}
    for J in (5, 6):
        for i, (u, v) in enumerate(pairs):
            est = estimate_scale(out[J][:, i], ALPHA)
            ref = truncated_scale_lf(u, v, ALPHA, J)
            devs[J, i] = est / ref - 1.0
            assert abs(devs[J, i]) < 0.08
    # depths share the draw matrix, so their estimator noise nearly cancels
    for i in range(len(pairs)):
        assert abs(devs[5, i] - devs[6, i]) < 0.025


@pytest.mark.parametrize("call", [
    lambda: mc_x1_samples([(2.0, 0.7)], ALPHA, 4, 4, 1),
    lambda: mc_x1_samples([(0.5, 0.3)], ALPHA, 4, 4, 1),
    lambda: mc_x2_samples([(-3.0, 0.7)], ALPHA, [2], 4, 1),
    lambda: mc_x1_samples([], ALPHA, 4, 4, 1),
    lambda: mc_x2_samples([], ALPHA, [2], 4, 1),
    # stacked weights (pairs x depths x the deepest depth's draw columns)
    # over MAX_VALUES, though one chunk's draw is not
    lambda: mc_x1_samples([(0.5, 0.75)] * 3000, ALPHA, 15, 1000, 1),
    lambda: mc_x2_samples([(0.5, 0.75)] * 600, ALPHA, range(3, 13), 1000, 1),
], ids=["hf u past 1", "hf v below 1/alpha", "lf u below 0", "hf no pairs",
        "lf no pairs", "hf weights over the budget",
        "lf weights over the budget"])
def test_mc_drivers_refuse_what_the_scales_refuse(call, monkeypatch):
    # refused before any weight is built or any draw made
    def no_draw(*args, **kwargs):
        raise AssertionError("drew")

    monkeypatch.setattr(analysis, "sample_sas", no_draw)
    monkeypatch.setattr(analysis, "_weights", no_draw)
    with pytest.raises(ParameterError):
        call()


def _pyramid_and_sums():
    pyr = generate_coefficients(ALPHA, 3, 3, "independent", 5)
    return pyr, prefix_sums(pyr)


# every library entry point that sizes anything by a depth J
_DEPTH_CALLS = {
    "generate_coefficients J_hf":
        lambda J: generate_coefficients(ALPHA, J, 2, "consistent", 0),
    "generate_coefficients J_lf":
        lambda J: generate_coefficients(ALPHA, 3, J, "consistent", 0),
    "synthesize_path J_hf": lambda J: synthesize_path(ALPHA, 0.75, J_hf=J),
    "synthesize_path J_lf": lambda J: synthesize_path(ALPHA, 0.75, J_lf=J),
    "x1_partial": lambda J: x1_partial(0.5, 0.75, *_pyramid_and_sums(), J),
    "x2_partial": lambda J: x2_partial(0.5, 0.75, *_pyramid_and_sums(), J),
    "truncated_scale_hf consistent":
        lambda J: truncated_scale_hf(0.5, 0.75, ALPHA, J, "consistent"),
    "truncated_scale_hf independent":
        lambda J: truncated_scale_hf(0.5, 0.75, ALPHA, J, "independent"),
    "truncated_scale_lf consistent":
        lambda J: truncated_scale_lf(0.5, 0.75, ALPHA, J, "consistent"),
    "truncated_scale_lf independent":
        lambda J: truncated_scale_lf(0.5, 0.75, ALPHA, J, "independent"),
    "mc_x1_samples": lambda J: mc_x1_samples([(0.5, 0.75)], ALPHA, J, 8, 1),
    "mc_x2_samples":
        lambda J: mc_x2_samples([(0.5, 0.75)], ALPHA, [2, J], 8, 1),
    "convergence_study hf":
        lambda J: convergence_study("hf", ALPHA, (0.75, 0.75), [4, J], 8, 1),
    "convergence_study lf":
        lambda J: convergence_study("lf", ALPHA, (0.75, 0.75), [4, J], 8, 1),
}


@pytest.mark.parametrize("J", [15000, 10 ** 9])
@pytest.mark.parametrize("call", list(_DEPTH_CALLS))
def test_depths_past_the_budget_are_parameter_errors(call, J):
    # refused by the one depth check before any 2**J is formed (2**15000
    # has more digits than an int may print)
    with pytest.raises(ParameterError, match="over the budget"):
        _DEPTH_CALLS[call](J)


def test_truncated_lf_scale_sizes_each_mode_by_its_arrays(monkeypatch):
    # consistent mode builds the union, three points per far-past
    # coefficient, so J 23 is over the budget; independent mode builds one
    # row of factors at a time, the longest of 2**J, so J 23 to 26 pass the
    # size check and reach their first kernel call
    def admitted(*args, **kwargs):
        raise RuntimeError("admitted")

    monkeypatch.setattr(analysis, "theta", admitted)
    with pytest.raises(ParameterError, match="over the budget"):
        truncated_scale_lf(0.5, 0.75, ALPHA, 23, "consistent")
    for J in (23, 26):
        with pytest.raises(RuntimeError, match="admitted"):
            truncated_scale_lf(0.5, 0.75, ALPHA, J, "independent")
    with pytest.raises(ParameterError, match="over the budget"):
        truncated_scale_lf(0.5, 0.75, ALPHA, 27, "independent")


def test_convergence_study_validation():
    with pytest.raises(StatisticsError):
        convergence_study("hf", ALPHA, (0.75, 0.75), [4, 5], 7, 1)
    with pytest.raises(ParameterError):
        convergence_study("both", ALPHA, (0.75, 0.75), [4, 5], 8, 1)
    with pytest.raises(ParameterError):
        convergence_study("hf", ALPHA, (0.5, 0.75), [4, 5], 8, 1)
    with pytest.raises(ParameterError):
        convergence_study("hf", ALPHA, (0.75, 0.75), [5, 4], 8, 1)
    with pytest.raises(ParameterError):
        convergence_study("lf", ALPHA, (0.75, 0.75), [0, 1], 8, 1)
    # the replicates' stacked rows would pass MAX_VALUES: refused undrawn
    for which in ("hf", "lf"):
        with pytest.raises(ParameterError, match="replicates need arrays"):
            convergence_study(which, ALPHA, (0.75, 0.75), [4, 5], 10 ** 12, 1)


def test_far_past_study_sizes_its_stacks_by_the_row_list(monkeypatch):
    # per replicate, the stacked depth-(J+1) rows (closed form) or the
    # 1025-point lines of differences, whichever is longer
    monkeypatch.setattr(stable_rng, "MAX_VALUES", 0)
    for J in range(1, 15):
        with pytest.raises(ParameterError) as info:
            convergence_study("lf", ALPHA, (0.75, 0.75), [J], 8, 1)
        per_rep = max(sum(n for _, n in _lf_rows(J + 1)), 1025)
        assert f"need arrays of {8 * per_rep} values" in str(info.value)


def test_convergence_study_single_depth_flagged():
    rep = convergence_study("hf", ALPHA, (0.75, 0.75), [3], 8, 2)
    assert rep.fitted_slope is None
    assert rep.norms.shape == (1, 8)
    assert np.all(rep.norms > 0)


def test_convergence_norms_match_direct_series():
    # replicate 0 of the study must equal a brute-force evaluation of the
    # same realization through the series evaluators
    rep = convergence_study("hf", ALPHA, (0.7, 0.8), [3], 8, 5)
    ss = np.random.SeedSequence(entropy=5, spawn_key=(0,))
    pyr = generate_coefficients(ALPHA, 4, 2, "consistent",
                                np.random.Generator(np.random.Philox(ss)))
    ps = prefix_sums(pyr)
    us = np.arange((1 << 4) + 1) / (1 << 4)
    best = 0.0
    for v in (0.7, 0.75, 0.8):
        diffs = x1_partial(us, v, pyr, ps, 4) - x1_partial(us, v, pyr, ps, 3)
        best = max(best, float(np.max(np.abs(diffs))))
    assert rep.norms[0, 0] == pytest.approx(best, rel=1e-9)

    rep_lf = convergence_study("lf", ALPHA, (0.7, 0.8), [2], 8, 5)
    pyr2 = generate_coefficients(ALPHA, 1, 3, "consistent",
                                 np.random.Generator(
                                     np.random.Philox(
                                         np.random.SeedSequence(
                                             entropy=5, spawn_key=(0,)))))
    ps2 = prefix_sums(pyr2)
    ug = np.linspace(0.0, 1.0, 1025)
    best = 0.0
    for v in (0.7, 0.75, 0.8):
        diffs = (x2_partial(ug, v, pyr2, ps2, 3)
                 - x2_partial(ug, v, pyr2, ps2, 2))
        best = max(best, float(np.max(np.abs(diffs))))
    assert rep_lf.norms[0, 0] == pytest.approx(best, rel=1e-9)


def _per_replicate_norms(which, alpha, v_grid, J_list, replicates, seed):
    """Study norms with each replicate drawn and evaluated on its own: one
    far-past table or one kernel spectrum per row call and replicate."""
    params = KernelParams(alpha)
    depth = J_list[-1] + 1
    u_grid = np.linspace(0.0, 1.0, 1025)
    norms = np.empty((len(J_list), replicates))
    for rep in range(replicates):
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))
        if which == "hf":
            pyr = generate_coefficients(alpha, depth, 2, "consistent", gen)
        else:
            pyr = generate_coefficients(alpha, 1, max(depth, 2),
                                        "consistent", gen)
        for p, J in enumerate(J_list):
            best = 0.0
            for v in v_grid:
                if which == "hf":
                    diff = 2.0 ** (-J * v) * _x1_row_on_dyadic(
                        pyr.hf[J][None], J, v, min(J + 1, 15), params)[0]
                else:
                    diff = sum(far_past_terms(
                        u_grid, v, pyr.lf_row(j), j,
                        1 << (J - abs(j)) if abs(j) < J else 0,
                        1 << (J + 1 - abs(j)), params)
                        for j in range(-J, J + 1))
                best = max(best, float(np.max(np.abs(diff))))
            norms[p, rep] = best
    return norms


@pytest.mark.parametrize("which", ["hf", "lf"])
def test_shared_tables_match_per_replicate_loop(which):
    rep = convergence_study(which, ALPHA, (0.7, 0.8), [2, 3, 4], 8, 11)
    oracle = _per_replicate_norms(which, ALPHA, rep.v_grid, [2, 3, 4], 8, 11)
    assert np.array_equal(rep.norms, oracle)


def test_kernel_tables_shared_across_replicates(monkeypatch):
    # every kernel table (lf) or kernel spectrum (hf) is built once per
    # depth, exponent and row, so more replicates make no more theta calls
    calls = [0]

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(series, "theta", counting(series.theta))
    monkeypatch.setattr(analysis, "theta", counting(analysis.theta))
    for which in ("hf", "lf"):
        counts = []
        for replicates in (8, 16):
            calls[0] = 0
            convergence_study(which, ALPHA, (0.7, 0.8), [2, 3, 4],
                              replicates, 3)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0, (which, counts)


def test_far_past_study_tables_stay_small(monkeypatch):
    """At the benchmark's settings (J 4..8) the long far-past rows take the
    moment route, so no kernel table of the study passes 1025 x 32."""
    sizes = []

    def recording(x, v, params):
        sizes.append(np.size(x))
        return theta(x, v, params)

    monkeypatch.setattr(series, "theta", recording)
    convergence_study("lf", ALPHA, (0.75, 0.75), list(range(4, 9)), 8, 0)
    assert 0 < max(sizes) <= 1025 * 32


def test_convergence_report_fields():
    rep = convergence_study("hf", ALPHA, (0.7, 0.8), [2, 3, 4], 8, 9)
    assert isinstance(rep, ConvergenceReport)
    assert rep.J_list == [2, 3, 4]
    assert rep.norms.shape == (3, 8)
    assert rep.medians.shape == (3,)
    assert rep.fitted_slope is not None
    assert rep.theoretical_slope == pytest.approx(-(0.7 - 1.0 / ALPHA))
    assert rep.seeds == [[9, r] for r in range(8)]
    assert np.array_equal(rep.v_grid, np.array([0.7, 0.75, 0.8]))
    rep_lf = convergence_study("lf", ALPHA, (0.7, 0.8), [2, 3], 8, 9)
    assert rep_lf.theoretical_slope == pytest.approx(-(1.0 - 0.8))


def test_lf_rate_measurable_away_from_kink_transient():
    # At alpha = 1.5, v = 0.75 the shallow-depth lf rate is masked by the
    # kernel-corner transient (see the module docstring).  The transient
    # constant scales like 2**(-J*(v - 1/alpha)), so at alpha = 1.9 it has
    # largely faded by depth 6 and the -(1 - v) rate becomes measurable.
    rep = convergence_study("lf", 1.9, (0.75, 0.75), list(range(6, 12)),
                            16, 1908)
    assert rep.theoretical_slope == pytest.approx(-0.25)
    assert abs(rep.fitted_slope - rep.theoretical_slope) <= 0.15
    # frozen draw; measured -0.2250 when the seed was locked in
    assert rep.fitted_slope == pytest.approx(-0.2250, abs=5e-4)


def test_growth_sup_matches_driving_process_surrogate():
    # running sums of one row share their law with the driving process at
    # integer times, so the normalized row sup must match a surrogate
    # computed directly from sampled process values
    n_rep = 300
    inv = 1.0 / ALPHA
    w = (1.0 + np.arange(32.0)) ** inv \
        * np.log(3.0 + np.arange(32.0)) ** (inv + 0.05)
    gen = make_rng(77)
    from_rows = np.empty(n_rep)
    for i in range(n_rep):
        pyr = generate_coefficients(ALPHA, 6, 2, "consistent", gen)
        lam = prefix_sums(pyr).hf_row(5)
        from_rows[i] = np.max(np.abs(lam) / w)
    gen2 = make_rng(78)
    from_grid = np.empty(n_rep)
    for i in range(n_rep):
        grid = build_levy_grid(ALPHA, 0.0, 32.0, 0, gen2)
        z = grid.values[1:]
        from_grid[i] = np.max(np.abs(z) / w)
    for q in (0.25, 0.5, 0.75):
        qa = np.quantile(from_rows, q)
        qb = np.quantile(from_grid, q)
        assert abs(qa / qb - 1.0) < 0.25
