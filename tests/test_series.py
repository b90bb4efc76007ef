from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import x1_abel_rows, x2_abel_rows

from haarlmsm import series
from haarlmsm.errors import DepthError, ParameterError
from haarlmsm.kernels import KernelParams, big_theta, theta, truncated_power
from haarlmsm.series import (
    evaluate_field,
    x1_partial,
    x2_minus_partial,
    x2_partial,
    x2_plus_partial,
)
from haarlmsm.stable_rng import (
    CoefficientPyramid,
    generate_coefficients,
    prefix_sums,
)

ALPHA = 1.5


def tiny_pyramid():
    """Hand-filled coefficients small enough to sum by hand."""
    return CoefficientPyramid(
        alpha=ALPHA, J_hf=2, J_lf=2, mode="independent", z1=0.5,
        hf=[np.array([1.0]), np.array([2.0, -1.0])],
        lf=[np.array([0.3, -0.2]),
            np.array([1.0, 0.5, -0.5, 0.25]),
            np.array([-0.7, 0.1])])


def manual_x1(u, v, pyr, J):
    params = KernelParams(pyr.alpha)
    q = 1.0 + v - 1.0 / pyr.alpha
    out = truncated_power(u, q) / q * pyr.z1
    for j in range(J):
        row = pyr.hf[j]
        s = sum(row[k] * theta(2.0 ** j * u - k, v, params)
                for k in range(len(row)))
        out += 2.0 ** (-j * v) * s
    return out


def manual_x2(u, v, pyr, J):
    params = KernelParams(pyr.alpha)
    out = 0.0
    for j in range(1 - J, J):
        row = pyr.lf_row(j)
        n = 2 ** (J - abs(j))
        s = sum(row[k - 1] * (theta(2.0 ** j * u + k, v, params)
                              - theta(float(k), v, params))
                for k in range(1, n + 1))
        out += 2.0 ** (-j * v) * s
    return out


def test_x1_lead_term_only():
    pyr = tiny_pyramid()
    ps = prefix_sums(pyr)
    for u, v in [(0.0, 0.8), (0.37, 0.7), (1.0, 0.9)]:
        q = 1.0 + v - 1.0 / ALPHA
        want = truncated_power(u, q) / q * 0.5
        assert x1_partial(u, v, pyr, ps, 0, "naive") == want
        assert x1_partial(u, v, pyr, ps, 0, "abel") == want


def test_x1_matches_manual():
    pyr = tiny_pyramid()
    ps = prefix_sums(pyr)
    for u in (0.0, 0.23, 0.6, 1.0):
        for v in (0.7, 0.85):
            want = manual_x1(u, v, pyr, 2)
            assert x1_partial(u, v, pyr, ps, 2, "naive") == pytest.approx(
                want, abs=1e-14)
            assert x1_partial(u, v, pyr, ps, 2, "abel") == pytest.approx(
                want, abs=1e-13)


def test_x2_matches_manual():
    pyr = tiny_pyramid()
    ps = prefix_sums(pyr)
    for u in (0.0, 0.23, 0.6, 1.0):
        for v in (0.7, 0.85):
            want = manual_x2(u, v, pyr, 2)
            assert x2_partial(u, v, pyr, ps, 2, "naive") == pytest.approx(
                want, abs=1e-13)
            assert x2_partial(u, v, pyr, ps, 2, "abel") == pytest.approx(
                want, abs=1e-13)
            total = (x2_plus_partial(u, v, pyr, ps, 2, "abel")
                     + x2_minus_partial(u, v, pyr, ps, 2, "abel"))
            assert total == x2_partial(u, v, pyr, ps, 2, "abel")


def test_vanishes_at_origin():
    pyr = generate_coefficients(ALPHA, 5, 4, "consistent", 81)
    ps = prefix_sums(pyr)
    for method in ("naive", "abel"):
        assert x1_partial(0.0, 0.75, pyr, ps, 5, method) == 0.0
        assert x2_partial(0.0, 0.75, pyr, ps, 4, method) == 0.0


def test_depth_additivity():
    """Adding one scale adds exactly that scale's row sum."""
    pyr = generate_coefficients(ALPHA, 6, 2, "consistent", 82)
    ps = prefix_sums(pyr)
    params = KernelParams(ALPHA)
    u, v = 0.77, 0.8
    for J in range(1, 7):
        j = J - 1
        ks = np.arange(2 ** j, dtype=float)
        row_sum = 2.0 ** (-j * v) * float(
            np.dot(pyr.hf[j], theta(2.0 ** j * u - ks, v, params)))
        gap = x1_partial(u, v, pyr, ps, J, "naive") \
            - x1_partial(u, v, pyr, ps, J - 1, "naive")
        assert gap == pytest.approx(row_sum, rel=1e-12, abs=1e-15)


def test_routes_agree_on_random_pyramids():
    """Direct and summation-by-parts sums agree to 1e-10 relative."""
    rng = np.random.default_rng(83)
    for trial in range(12):
        mode = "consistent" if trial % 2 else "independent"
        J_hf = int(rng.integers(1, 8))
        J_lf = int(rng.integers(2, 7))
        pyr = generate_coefficients(ALPHA, J_hf, J_lf, mode, int(rng.integers(1 << 30)))
        ps = prefix_sums(pyr)
        for _ in range(4):
            u = float(rng.uniform(0.05, 1.0))
            v = float(rng.uniform(0.7, 0.95))
            # small absolute floor: a total that cancels to near zero can
            # make pure roundoff look large in relative terms
            a = x1_partial(u, v, pyr, ps, J_hf, "naive")
            b = x1_partial(u, v, pyr, ps, J_hf, "abel")
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)) + 1e-11
            c = x2_partial(u, v, pyr, ps, J_lf, "naive")
            d = x2_partial(u, v, pyr, ps, J_lf, "abel")
            assert abs(c - d) <= 1e-10 * max(abs(c), abs(d)) + 1e-11


def _summand_mass(fam, u, v, pyr, ps, J):
    """Larger of the naive and abel routes' sums of |coefficient * kernel|
    over the terms each route adds up, the scale of their roundoff."""
    params = KernelParams(pyr.alpha)
    if fam == "hf":
        q = 1.0 + v - 1.0 / pyr.alpha
        naive = abel = abs(truncated_power(u, q) / q * pyr.z1)
        for j in range(J):
            x, w = 2.0 ** j * u, 2.0 ** (-j * v)
            ks = np.arange(1 << j, dtype=float)
            naive += w * np.sum(np.abs(pyr.hf[j] * theta(x - ks, v, params)))
            lam = ps.hf[j]
            abel += w * (abs(lam[-1] * theta(x - ks[-1], v, params))
                         + np.sum(np.abs(lam[:-1]
                                         * big_theta(x - ks[:-1], v, params))))
        return max(naive, abel)
    scales = range(J) if fam == "lf_plus" else range(-1, -J, -1)
    naive = abel = 0.0
    for j in scales:
        x, n, w = 2.0 ** j * u, 1 << (J - abs(j)), 2.0 ** (-j * v)
        ks = np.arange(1, n + 1, dtype=float)
        naive += w * np.sum(np.abs(pyr.lf_row(j)[:n] * (
            theta(x + ks, v, params) - theta(ks, v, params))))
        lam = ps.lf_row(j)
        abel += w * (abs(lam[n - 1] * (theta(x + n, v, params)
                                       - theta(float(n), v, params)))
                     + np.sum(np.abs(lam[:n - 1] * (
                         big_theta(x + ks[1:], v, params)
                         - big_theta(ks[1:], v, params)))))
    return max(naive, abel)


_FAMILIES = {"hf": x1_partial, "lf_plus": x2_plus_partial,
             "lf_minus": x2_minus_partial}


def _assert_routes_agree(fam, alpha, J, mode, seed, u, v):
    # criterion 3 of the acceptance gate draws pyramids this way
    if fam == "hf":
        pyr = generate_coefficients(alpha, J, 2, mode, seed)
    else:
        pyr = generate_coefficients(alpha, 1, max(J, 2), mode, seed)
    ps = prefix_sums(pyr)
    a = _FAMILIES[fam](u, v, pyr, ps, J, "naive")
    b = _FAMILIES[fam](u, v, pyr, ps, J, "abel")
    assert abs(a - b) <= 1e-10 * _summand_mass(fam, u, v, pyr, ps, J)


# Instances of the acceptance gate's criterion 3 sampling, replayed at
# generator seeds 7 and 8, where naive and abel differ by more than 1e-10
# relative to the result (up to 1.6e-9): the far-past sums cancel to far
# below their summands, so only the summands bound the roundoff.
@pytest.mark.parametrize("alpha,J,mode,seed,u,v", [
    (1.0666911706126496, 9, "independent", 511651594,
     0.1772472087498297, 0.9584213998258699),
    (1.6139657377064869, 7, "consistent", 1041481425,
     0.34562620757326257, 0.7227644047407664),
    (1.1728005799742942, 10, "independent", 1634768927,
     0.5330052462076945, 0.8848545947101567),
    (1.5462497304851481, 9, "independent", 1931329357,
     0.49196090638660017, 0.6920382212136996),
    (1.7962504958698977, 10, "independent", 1648209271,
     0.5525510672881654, 0.6223238458639624),
])
def test_routes_agree_where_the_sum_cancels(alpha, J, mode, seed, u, v):
    _assert_routes_agree("lf_minus", alpha, J, mode, seed, u, v)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(fam=st.sampled_from(sorted(_FAMILIES)),
       alpha=st.floats(1.05, 1.95), J=st.integers(1, 10),
       mode=st.sampled_from(["consistent", "independent"]),
       seed=st.integers(0, 2 ** 31 - 1), u=st.floats(0.0, 1.0),
       v_frac=st.floats(0.0, 1.0))
def test_routes_agree_relative_to_summands(fam, alpha, J, mode, seed, u,
                                           v_frac):
    # criterion 3's ranges: v in [1/alpha + 0.01, 0.99], J >= 2 for lf
    v = 1.0 / alpha + 0.01 + v_frac * (0.98 - 1.0 / alpha)
    _assert_routes_agree(fam, alpha, max(J, 1 if fam == "hf" else 2), mode,
                         seed, u, v)


def _far_past_scale(u, v, coef, j, lo, hi, params):
    """2**(-j v) sum_k |c_k| (|theta(x + k)| + |theta(k)|) over the terms
    k = lo+1..hi of far-past row j, x = 2**j u, at every point of u: the
    scale of a term-by-term sum's roundoff, which no cancellation of the
    terms against each other shrinks."""
    ks = np.arange(lo + 1, hi + 1, dtype=float)
    moved = theta(2.0 ** j * np.atleast_1d(u)[:, None] + ks, v, params)
    return 2.0 ** (-j * v) * np.sum(
        np.abs(coef[lo:hi]) * (np.abs(moved) + np.abs(theta(ks, v, params))),
        axis=1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(fam=st.sampled_from(["lf_plus", "lf_minus"]),
       alpha=st.floats(1.05, 1.95), J=st.integers(2, 10),
       mode=st.sampled_from(["consistent", "independent"]),
       seed=st.integers(0, 2 ** 31 - 1), u=st.floats(0.0, 1.0),
       v_frac=st.floats(0.0, 1.0))
def test_far_past_routes_agree_relative_to_coefficient_scale(
        fam, alpha, J, mode, seed, u, v_frac):
    """Naive and abel far-past sums agree to 1e-11 of the coefficient
    summand scale, over criterion 3's ranges and for any seed: unlike
    the result, that scale does not shrink when the terms cancel."""
    v = 1.0 / alpha + 0.01 + v_frac * (0.98 - 1.0 / alpha)
    pyr = generate_coefficients(alpha, 1, J, mode, seed)
    ps = prefix_sums(pyr)
    params = KernelParams(alpha)
    fn = _FAMILIES[fam]
    a = fn(u, v, pyr, ps, J, "naive")
    b = fn(u, v, pyr, ps, J, "abel")
    scales = range(J) if fam == "lf_plus" else range(-1, -J, -1)
    scale = sum(_far_past_scale(u, v, pyr.lf_row(j), j, 0,
                                1 << (J - abs(j)), params)[0]
                for j in scales)
    assert abs(a - b) <= 1e-11 * scale


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=st.floats(1.05, 1.95), v_frac=st.floats(0.0, 1.0),
       j=st.integers(-8, 5), lo=st.integers(16, 512),
       span=st.integers(1, 512), reach=st.floats(1e-3, 1.0),
       stack=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1))
def test_moment_route_matches_the_table(alpha, v_frac, j, lo, span, reach,
                                        stack, seed):
    """Where far_past_terms sums by Taylor moments (lo >= 16, 2**j max(u)
    <= lo / 8), it agrees with the term-by-term table to 1e-12 of the
    summand scale, and a pyramid's sums have the same bits alone or
    stacked with others."""
    v = 1.0 / alpha + 0.01 + v_frac * (0.98 - 1.0 / alpha)
    rng = np.random.default_rng(seed)
    params = KernelParams(alpha)
    top = reach * min(1.0, lo / 2.0 ** (j + 3))
    u, v, _ = series.check_uv(
        np.concatenate([[0.0, top], rng.uniform(0.0, top, 15)]), v, alpha)
    rows = rng.standard_cauchy((stack, lo + span))
    hi = lo + span
    # the moment route builds no theta table
    with mock.patch.object(series, "theta", side_effect=AssertionError):
        got = series.far_past_terms(u, v, rows, j, lo, hi, params)
        alone = [series.far_past_terms(u, v, row, j, lo, hi, params)
                 for row in rows]
    want = series._far_past_table(u, v, rows, j, lo, hi, params)
    assert got.shape == (stack, u.size)
    for g, w, a, row in zip(got, want, alone, rows):
        assert np.array_equal(g, a)
        scale = _far_past_scale(u, v, row, j, lo, hi, params)
        assert np.all(np.abs(g - w) <= 1e-12 * scale)


def test_far_past_terms_keeps_the_table_off_the_moment_rule():
    """Short or near stretches, and a per-point v, are summed term by
    term, with the bits of the table route."""
    rng = np.random.default_rng(5)
    params = KernelParams(ALPHA)
    rows = rng.standard_normal((3, 64))
    for j, lo, hi, v in ((0, 15, 30, 0.8), (2, 16, 32, 0.8),
                         (0, 32, 64, np.full(9, 0.8))):
        u, v, _ = series.check_uv(np.linspace(0.0, 1.0, 9), v, ALPHA)
        assert np.array_equal(
            series.far_past_terms(u, v, rows, j, lo, hi, params),
            series._far_past_table(u, v, rows, j, lo, hi, params))


_ALL = dict(_FAMILIES, lf=x2_partial)


def _profile_points(rng, alpha, n, constant):
    """n + 3 positions including both ends, with v at every point (or one
    constant v) inside (1/alpha, 1); 1/alpha + 1e-3 is always among them."""
    lo = 1.0 / alpha + 1e-3
    u = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, n)])
    if constant:
        return u, lo
    return u, np.concatenate([[lo, rng.uniform(lo, 0.999), lo],
                              rng.uniform(lo, 0.999, n)])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(fam=st.sampled_from(sorted(_ALL)), alpha=st.floats(1.05, 1.95),
       J=st.integers(2, 7), mode=st.sampled_from(["consistent",
                                                   "independent"]),
       method=st.sampled_from(["naive", "abel"]),
       seed=st.integers(0, 2 ** 31 - 1), n=st.integers(0, 12),
       constant=st.booleans(), entries=st.sampled_from([1, 5, 64, 1 << 18]))
def test_array_call_matches_point_calls(fam, alpha, J, mode, method, seed, n,
                                        constant, entries):
    """An array call gives each point the bits of its own scalar call, for
    any split of the kernel tables into point blocks."""
    rng = np.random.default_rng(seed)
    pyr = generate_coefficients(alpha, J, J, mode, seed)
    ps = prefix_sums(pyr)
    u, v = _profile_points(rng, alpha, n, constant)
    fn = _ALL[fam]
    with mock.patch.object(series, "_TABLE_ENTRIES", entries):
        got = fn(u, v, pyr, ps, J, method)
    assert got.shape == u.shape
    vs = np.broadcast_to(v, u.shape)
    for i in range(u.size):
        one = fn(u[i], vs[i], pyr, ps, J, method)
        assert isinstance(one, float)
        assert one == got[i], (i, u[i], vs[i])


_ABEL_ROWS = {"hf": (x1_partial, None), "lf": (x2_partial, ("plus", "minus")),
              "lf_plus": (x2_plus_partial, ("plus",)),
              "lf_minus": (x2_minus_partial, ("minus",))}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(fam=st.sampled_from(sorted(_ABEL_ROWS)), alpha=st.floats(1.05, 1.95),
       J=st.integers(0, 8), mode=st.sampled_from(["consistent",
                                                  "independent"]),
       seed=st.integers(0, 2 ** 31 - 1), n=st.integers(0, 300),
       constant=st.booleans(), entries=st.sampled_from([1, 7, 300, 1 << 18]),
       pack=st.sampled_from([1, 40, 700, 1 << 13]))
def test_packed_rows_match_the_per_row_sums(fam, alpha, J, mode, seed, n,
                                            constant, entries, pack):
    """The abel route packs rows into shared kernel calls; every point
    keeps the bits of the per-row sums (tests/oracles.py), for any split
    of the rows into packed calls and of the points into blocks."""
    fn, halves = _ABEL_ROWS[fam]
    J = max(J, {"hf": 0, "lf_minus": 2}.get(fam, 1))
    rng = np.random.default_rng(seed)
    pyr = generate_coefficients(alpha, max(J, 1), max(J, 2), mode, seed)
    ps = prefix_sums(pyr)
    u, v = _profile_points(rng, alpha, max(n - 3, 0), constant)
    u, v, _ = series.check_uv(u[:n], v if constant else v[:n], alpha)
    with mock.patch.object(series, "_TABLE_ENTRIES", entries), \
            mock.patch.object(series, "_PACK_ENTRIES", pack):
        got = fn(u, v, pyr, ps, J, "abel")
        want = x1_abel_rows(u, v, pyr, ps, J) if halves is None \
            else x2_abel_rows(u, v, pyr, ps, J, halves)
    assert got.shape == u.shape
    assert np.array_equal(got, want)


def _random_pyramid(rng, J):
    return CoefficientPyramid(
        alpha=ALPHA, J_hf=J, J_lf=J, mode="independent",
        z1=float(rng.standard_normal()),
        hf=[rng.standard_normal(1 << j) for j in range(J)],
        lf=[rng.standard_normal(1 << (J - abs(j))) for j in range(1 - J, J)])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(fam=st.sampled_from(sorted(_FAMILIES)),
       method=st.sampled_from(["naive", "abel"]), J=st.integers(2, 6),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 31 - 1), constant=st.booleans())
def test_each_half_is_linear_in_the_pyramid(fam, method, J, a, b, seed,
                                            constant):
    """f(a P1 + b P2) = a f(P1) + b f(P2) up to roundoff of the summands."""
    rng = np.random.default_rng(seed)
    p1, p2 = _random_pyramid(rng, J), _random_pyramid(rng, J)
    mix = CoefficientPyramid(
        alpha=ALPHA, J_hf=J, J_lf=J, mode="independent",
        z1=a * p1.z1 + b * p2.z1,
        hf=[a * r1 + b * r2 for r1, r2 in zip(p1.hf, p2.hf)],
        lf=[a * r1 + b * r2 for r1, r2 in zip(p1.lf, p2.lf)])
    u, v = _profile_points(rng, ALPHA, 5, constant)
    fn = _FAMILIES[fam]
    f1, f2, f = (fn(u, v, p, prefix_sums(p), J, method)
                 for p in (p1, p2, mix))
    vs = np.broadcast_to(v, u.shape)
    for i in range(u.size):
        scale = sum(abs(c) * _summand_mass(fam, u[i], vs[i], p,
                                           prefix_sums(p), J)
                    for c, p in ((a, p1), (b, p2)))
        assert abs(f[i] - (a * f1[i] + b * f2[i])) <= 1e-12 * scale


@pytest.mark.parametrize("method", ["naive", "abel"])
def test_far_past_anchor_is_built_once_per_point_block(method, monkeypatch):
    """kernel(k, v) anchors every far-past term whatever its row, so each
    block of points builds it once for all rows, and a point's value does
    not depend on how the points are blocked."""
    pyr = generate_coefficients(ALPHA, 2, 5, "consistent", 88)
    ps = prefix_sums(pyr)
    u = np.linspace(0.0, 1.0, 40)
    v = np.linspace(0.7, 0.9, 40)
    name = "theta" if method == "naive" else "big_theta"
    kernel = getattr(series, name)
    whole = x2_partial(u, v, pyr, ps, 5, method)
    for entries, blocks in ((series._TABLE_ENTRIES, 1), (64, 20)):
        monkeypatch.setattr(series, "_TABLE_ENTRIES", entries)
        anchors = []

        def count_anchors(x, v, params):
            # the tables take a column of points plus the k, the anchor
            # the k alone
            if np.ndim(x) == 1 and np.size(x) > 1:
                anchors.append(np.shape(v))
            return kernel(x, v, params)

        with mock.patch.object(series, name, side_effect=count_anchors):
            got = x2_partial(u, v, pyr, ps, 5, method)
        assert np.array_equal(got, whole)
        assert anchors == [(40 // blocks, 1)] * blocks


def test_x2_depth_one_has_no_negative_scales():
    pyr = generate_coefficients(ALPHA, 2, 3, "independent", 84)
    ps = prefix_sums(pyr)
    u, v = 0.5, 0.8
    assert x2_partial(u, v, pyr, ps, 1) == x2_plus_partial(u, v, pyr, ps, 1)
    with pytest.raises(ParameterError):
        x2_minus_partial(u, v, pyr, ps, 1)


def test_depth_and_argument_errors():
    pyr = generate_coefficients(ALPHA, 3, 3, "independent", 85)
    ps = prefix_sums(pyr)
    with pytest.raises(DepthError):
        x1_partial(0.5, 0.8, pyr, ps, 4)
    with pytest.raises(DepthError):
        x2_partial(0.5, 0.8, pyr, ps, 4)
    with pytest.raises(ParameterError):
        x1_partial(0.5, 0.8, pyr, ps, -1)
    with pytest.raises(ParameterError):
        x2_partial(0.5, 0.8, pyr, ps, 0)
    with pytest.raises(ParameterError):
        x1_partial(1.5, 0.8, pyr, ps, 2)
    with pytest.raises(ParameterError):
        x1_partial(0.5, 0.5, pyr, ps, 2)  # v below 1/alpha
    with pytest.raises(ParameterError):
        x1_partial(0.5, 1.0, pyr, ps, 2)
    with pytest.raises(ParameterError):
        x1_partial(0.5, 0.8, pyr, ps, 2, method="exact")


def test_evaluate_field_matches_scalars():
    pyr = generate_coefficients(ALPHA, 4, 3, "consistent", 86)
    ps = prefix_sums(pyr)
    u_grid, v_grid = np.array([0.0, 0.25, 0.9]), np.array([0.7, 0.8])
    hf = evaluate_field(u_grid, v_grid, pyr, ps, 3, "hf")
    assert hf.shape == (3, 2)
    for iu, u in enumerate(u_grid):
        for iv, v in enumerate(v_grid):
            assert hf[iu, iv] == x1_partial(u, v, pyr, ps, 3)
    tot = evaluate_field(u_grid, v_grid, pyr, ps, 3, "total")
    lf = evaluate_field(u_grid, v_grid, pyr, ps, 3, "lf")
    assert np.array_equal(tot, hf + lf)
    plus = evaluate_field(u_grid, v_grid, pyr, ps, 3, "lf_plus")
    minus = evaluate_field(u_grid, v_grid, pyr, ps, 3, "lf_minus")
    assert np.array_equal(lf, plus + minus)


def test_evaluate_field_validation():
    pyr = generate_coefficients(ALPHA, 3, 3, "independent", 87)
    ps = prefix_sums(pyr)
    with pytest.raises(ParameterError):
        evaluate_field([0.5], [0.8], pyr, ps, 2, "everything")
    with pytest.raises(ParameterError):
        evaluate_field([0.5], [0.6], pyr, ps, 2, "hf")  # v below 1/alpha
    for which in ("hf", "lf", "total"):
        with pytest.raises(ParameterError):
            evaluate_field([np.nan], [0.8], pyr, ps, 2, which)
        with pytest.raises(ParameterError):
            evaluate_field([0.5], [np.nan], pyr, ps, 2, which)


def test_domain_validation():
    pyr = generate_coefficients(ALPHA, 3, 3, "independent", 87)
    ps = prefix_sums(pyr)
    with pytest.raises(ParameterError):
        evaluate_field([0.0, 1.2], [0.8], pyr, ps, 2, "hf")
    with pytest.raises(ParameterError):
        evaluate_field([0.5], [1.0], pyr, ps, 2, "lf")
    with pytest.raises(ParameterError):
        evaluate_field([-np.inf], [0.8], pyr, ps, 2, "lf")
