import numpy as np
import pytest

from haarlmsm.errors import DepthError, ParameterError
from haarlmsm.kernels import KernelParams, theta, truncated_power
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
