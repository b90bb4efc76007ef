import hashlib
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from haarlmsm import kernels
from haarlmsm.errors import ParameterError
from haarlmsm.kernels import (
    D5,
    KernelParams,
    big_theta,
    dbig_theta_dx,
    dtheta_dx,
    theta,
    theta_quadrature_oracle,
    theta_taylor,
    truncated_power,
)
from haarlmsm.series import check_uv

ALL_FUNCS = (theta, big_theta, dtheta_dx, dbig_theta_dx)


def test_truncated_power_basics():
    assert truncated_power(-1.0, 0.5) == 0.0
    assert truncated_power(0.0, 0.5) == 0.0
    assert truncated_power(4.0, 0.5) == 2.0
    out = truncated_power(np.array([-2.0, 0.0, 9.0]), 0.5)
    assert out.tolist() == [0.0, 0.0, 3.0]


@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(min_value=-0.9, max_value=3.0))
def test_truncated_power_total(s, kappa):
    """Defined and finite for every float input, zero on the closed left half."""
    val = truncated_power(s, kappa)
    if s <= 0.0:
        assert val == 0.0
    else:
        assert not np.isnan(val)
        assert val >= 0.0


def test_weights_moments_vanish():
    # the first three moment sums of the five-term weights are what kill
    # the head of the large-x expansion
    l = np.arange(5.0)
    for m in range(3):
        assert np.dot(np.asarray(D5), l ** m) == pytest.approx(0.0, abs=1e-14)


def test_zero_on_left_half_line():
    params = KernelParams(alpha=1.5)
    xs = np.array([-3.0, -1e-9, 0.0])
    for f in ALL_FUNCS:
        out = f(xs, 0.75, params)
        assert np.all(out == 0.0)
        assert f(0.0, 0.75, params) == 0.0
        assert f(-2.5, 0.75, params) == 0.0


def test_frozen_values():
    # quadrature-derived reference points, alpha = 1.25, v = 0.9
    params = KernelParams(alpha=1.25)
    assert theta(0.5, 0.9, params) == pytest.approx(0.424105905244, abs=1e-9)
    assert theta(1.0, 0.9, params) == pytest.approx(0.060879098603, abs=1e-9)


def test_oracle_matches_closed_form():
    params = KernelParams(alpha=1.5)
    xs = np.concatenate([np.linspace(0.05, 8.0, 24),
                         np.geomspace(1e-3, 8.0, 24)])
    for v in (0.6, 0.75, 0.9):
        want = np.array([theta_quadrature_oracle(x, v, 1.5) for x in xs])
        got = theta(xs, v, params)
        assert np.max(np.abs(got - want)) < 1e-8


def test_oracle_left_half_and_decay():
    assert theta_quadrature_oracle(0.0, 0.8, 1.5) == 0.0
    assert theta_quadrature_oracle(-4.0, 0.8, 1.5) == 0.0
    # decay exponent p - 1 = v - 1/alpha - 1
    p = 0.8 - 1.0 / 1.5
    assert abs(theta_quadrature_oracle(1e3, 0.8, 1.5)) <= 1e3 ** (p - 1.0)


def test_big_theta_is_first_difference():
    params = KernelParams(alpha=1.5)
    xs = np.linspace(0.1, 50.0, 173)
    for v in (0.62, 0.75, 0.9):
        lhs = big_theta(xs, v, params)
        rhs = theta(xs, v, params) - theta(xs - 1.0, v, params)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        lhs_d = dbig_theta_dx(xs, v, params)
        rhs_d = dtheta_dx(xs, v, params) - dtheta_dx(xs - 1.0, v, params)
        assert np.max(np.abs(lhs_d - rhs_d)) < 1e-12


def test_derivative_matches_finite_difference():
    params = KernelParams(alpha=1.5)
    h = 1e-5
    for x in (0.7, 1.3, 2.6):
        fd = (theta(x + h, 0.8, params) - theta(x - h, 0.8, params)) / (2 * h)
        assert dtheta_dx(x, 0.8, params) == pytest.approx(fd, rel=1e-5)
        fd2 = (big_theta(x + h, 0.8, params)
               - big_theta(x - h, 0.8, params)) / (2 * h)
        assert dbig_theta_dx(x, 0.8, params) == pytest.approx(fd2, rel=1e-5)


def test_tail_series_agrees_with_direct():
    """Crossover at 8 against pure closed forms, all four kernels.

    The window stops at 32 because beyond that the closed forms themselves
    start losing digits to cancellation (2-3 decimal digits per decade of x)
    and would no longer serve as a 1e-9 reference.
    """
    early = KernelParams(alpha=1.5, switch_x=8.0)
    late = KernelParams(alpha=1.5, switch_x=1e9)
    xs = np.geomspace(8.01, 24.0, 200)
    for v in (0.62, 0.7, 0.75, 0.9):
        for f in ALL_FUNCS:
            a = f(xs, v, early)
            b = f(xs, v, late)
            rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-300)
            assert np.max(rel) < 1e-9, (f.__name__, v)


def _stencil_50_digits(x, e, weights, divide):
    """sum_l w_l (x - l/2)_+^e (divided by e for the theta pair) to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        xd, ed = Decimal(float(x)), Decimal(float(e))
        acc = Decimal(0)
        for l, w in enumerate(weights):
            s = xd - Decimal(l) / 2
            if w and s > 0:
                acc += Decimal(w) * s ** ed
        return float(acc / ed if divide else acc)


def test_kernels_match_high_precision_closed_form():
    """All four kernels against the closed form in 50-digit decimal.

    The tail series must hold full double precision everywhere beyond
    switch_x, including just past it in a call whose other arguments are
    huge, since the term count is fixed per call from the smallest one.
    """
    cases = ((theta, (1.0, -2.0, 1.0), True), (big_theta, D5, True),
             (dtheta_dx, (1.0, -2.0, 1.0), False), (dbig_theta_dx, D5, False))
    near = 1.0 + np.array([1e-12, 1e-6, 1e-2])
    xs = np.concatenate([np.geomspace(1e-3, 1e6, 64), 4.0 * near, 8.0 * near])
    for alpha in (1.05, 1.5, 1.95):
        for v in (1.0 / alpha + 0.01, 0.75, 0.99):
            for f, weights, divide in cases:
                e = (1.0 + v - 1.0 / alpha) if divide else v - 1.0 / alpha
                want = np.array([_stencil_50_digits(x, e, weights, divide)
                                 for x in xs])
                for switch_x in (4.0, 8.0):
                    got = f(xs, v, KernelParams(alpha, switch_x))
                    rel = np.abs(got - want) / np.abs(want)
                    tail = xs > switch_x
                    assert np.max(rel[tail]) <= 4e-15, (f.__name__, alpha, v)
                    assert np.max(rel[~tail]) <= 1e-10, (f.__name__, alpha, v)


def test_large_x_power_law():
    params = KernelParams(alpha=1.5, switch_x=1e3)
    v = 0.75
    p = v - 1.0 / 1.5
    x = 1e5
    lead3 = 0.25 * p * x ** (p - 1.0)
    assert theta(x, v, params) / lead3 == pytest.approx(1.0, rel=0.02)
    lead5 = 0.25 * p * (p - 1.0) * x ** (p - 2.0)
    assert big_theta(x, v, params) / lead5 == pytest.approx(1.0, rel=0.02)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        KernelParams(alpha=1.0)
    with pytest.raises(ParameterError):
        KernelParams(alpha=2.0)
    with pytest.raises(ParameterError):
        KernelParams(alpha=1.5, switch_x=2.0)
    params = KernelParams(alpha=1.5)
    with pytest.raises(ParameterError):
        theta(1.0, 1.0, params)
    with pytest.raises(ParameterError):
        theta(1.0, 1.0 / 1.5 - 1.0, params)
    with pytest.raises(ParameterError):
        theta_quadrature_oracle(1.0, 0.8, 2.5)
    # every element of an array v is checked, NaN included
    for bad_v in ([0.8, 1.0], [np.nan, 0.8]):
        with pytest.raises(ParameterError, match="v must lie"):
            theta(np.ones(2), np.array(bad_v), params)
    # a non-finite x, or one whose value overflows, is refused by name
    for f in ALL_FUNCS:
        for bad_x in (np.nan, np.inf, -np.inf, np.array([1.0, np.nan])):
            with pytest.raises(ParameterError, match="x must be finite"):
                f(bad_x, 0.8, params)
    # x**q with q = 1 + v - 1/alpha near 2 passes the float range at 1e300;
    # the derivatives' exponent stays below 1 there
    for f in (theta, big_theta):
        with pytest.raises(ParameterError, match="x must be finite"):
            f(np.array([2.0, 1e300]), 0.99, params)
        with pytest.raises(ParameterError, match="x must be finite"):
            f(1e300, 0.99, KernelParams(alpha=1.5, switch_x=1e301))
    # a float32 alpha gives the float call's bits, and a v at or below the
    # float64 1/alpha is refused even when it passes the float32 1/alpha
    a32 = np.float32(1.7)
    x = np.array([0.5, 2.0, 10.0])
    for f in ALL_FUNCS:
        assert np.array_equal(f(x, 0.75, KernelParams(a32)),
                              f(x, 0.75, KernelParams(float(a32))))
    with pytest.raises(ParameterError, match="v must lie"):
        check_uv(0.5, float(1.0 / a32) + 1e-9, a32)


def test_scalar_and_array_paths_agree():
    params = KernelParams(alpha=1.7, switch_x=8.0)
    xs = np.array([0.3, 0.9, 4.0, 9.0, 1e4])
    for f in ALL_FUNCS:
        arr = f(xs, 0.8, params)
        sca = np.array([f(float(x), 0.8, params) for x in xs])
        assert np.array_equal(arr, sca)
        assert isinstance(f(2.0, 0.8, params), float)


def test_array_v_matches_scalar_v():
    """A v that broadcasts against x gives, element by element, the bits of
    a call with that v as a scalar, on both branches of the stencil."""
    rng = np.random.default_rng(5)
    params = KernelParams(alpha=1.5, switch_x=8.0)
    x = np.concatenate([rng.uniform(-2.0, 12.0, 300),
                        rng.uniform(8.0, 1e5, 100)])
    v = rng.uniform(1.0 / 1.5 - 1.0 + 1e-3, 1.0 - 1e-3, x.size)
    for f in ALL_FUNCS:
        got = f(x, v, params)
        want = np.array([f(xi, vi, params) for xi, vi in zip(x, v)])
        assert np.array_equal(got, want), f.__name__
        # a column of v against a row of x broadcasts to a table
        table = f(x[None, :50], v[:7, None], params)
        assert table.shape == (7, 50)
        for i in range(7):
            assert np.array_equal(table[i], f(x[:50], v[i], params))


# theta^(r)(k)/r! = C(q,r)/q sum_l w_l (k - l/2)^(q-r) at the float
# q = 1.0 + v - 1.0/alpha the kernels form, keyed (alpha, v, k, r); frozen
# from the 40-digit mpmath 1.3.0 value of that closed form
THETA_TAYLOR_40_DIGITS = {
    (1.5, 0.75, 17, 1): -8.8643146314900915e-5,
    (1.5, 0.75, 17, 5): -1.0757810579868489e-9,
    (1.5, 0.75, 17, 19): -8.9839418375055623e-27,
    (1.5, 0.75, 17, 30): 3.6624264222463476e-40,
    (1.5, 0.75, 64, 1): -6.6937030040542529e-6,
    (1.5, 0.75, 64, 5): -3.6939443122180403e-13,
    (1.5, 0.75, 64, 19): -1.9210705528265665e-38,
    (1.5, 0.75, 64, 30): 2.7421855773839886e-58,
    (1.5, 0.75, 1024, 1): -3.2481435165548334e-8,
    (1.5, 0.75, 1024, 5): -2.6553614552764382e-20,
    (1.5, 0.75, 1024, 19): -1.7255965143425249e-62,
    (1.5, 0.75, 1024, 30): 1.2875481932170101e-95,
    (1.05, 0.96, 17, 1): -7.0961944644408864e-6,
    (1.05, 0.96, 17, 5): -9.5067609642601772e-11,
    (1.05, 0.96, 17, 19): -8.7421472588053188e-28,
    (1.05, 0.96, 17, 30): 3.6873002151954245e-41,
    (1.05, 0.96, 64, 1): -4.8386082647509973e-7,
    (1.05, 0.96, 64, 5): -2.9475006973271638e-14,
    (1.05, 0.96, 64, 19): -1.6876561812379867e-39,
    (1.05, 0.96, 64, 30): 2.4921573978204683e-59,
    (1.05, 0.96, 1024, 1): -1.9022932926951353e-9,
    (1.05, 0.96, 1024, 5): -1.7166197632499321e-21,
    (1.05, 0.96, 1024, 19): -1.228180126635154e-63,
    (1.05, 0.96, 1024, 30): 9.4802666495197112e-97,
    (1.95, 0.52, 17, 1): -6.6815232134430237e-6,
    (1.95, 0.52, 17, 5): -8.9562933092877448e-11,
    (1.95, 0.52, 17, 19): -8.2405427375380855e-28,
    (1.95, 0.52, 17, 30): 3.4764174129336728e-41,
    (1.95, 0.52, 64, 1): -4.5531619506467273e-7,
    (1.95, 0.52, 64, 5): -2.77518668312092e-14,
    (1.95, 0.52, 64, 19): -1.5898781679528363e-39,
    (1.95, 0.52, 64, 30): 2.3482307224847964e-59,
    (1.95, 0.52, 1024, 1): -1.7878843350171067e-9,
    (1.95, 0.52, 1024, 5): -1.61429051218972e-21,
    (1.95, 0.52, 1024, 19): -1.1556097815414777e-63,
    (1.95, 0.52, 1024, 30): 8.9218537833087227e-97,
}


def test_theta_taylor_matches_40_digit_references():
    """The tail series at the exponents q - r down to about -28, where the
    kernels' own term-count bound would not hold."""
    for (alpha, v, k, r), want in THETA_TAYLOR_40_DIGITS.items():
        got = theta_taylor(np.array([17.0, float(k)]), v, 30,
                           KernelParams(alpha))[r - 1, 1]
        assert abs(got / want - 1.0) <= 1e-13, (alpha, v, k, r)


def test_theta_taylor_sums_to_the_kernel_difference():
    params = KernelParams(1.5)
    k = np.arange(17.0, 400.0)
    d = theta_taylor(k, 0.75, 19, params)
    for eps in (1e-3, 0.5, 2.125):
        taylor = (d * eps ** np.arange(1, 20)[:, None]).sum(axis=0)
        diff = theta(k + eps, 0.75, params) - theta(k, 0.75, params)
        assert np.max(np.abs(taylor - diff) / np.abs(theta(k, 0.75, params))) \
            <= 1e-14, eps


def test_theta_taylor_refuses_what_it_cannot_sum():
    params = KernelParams(1.5)
    with pytest.raises(ParameterError, match="above switch_x"):
        theta_taylor(np.array([8.0, 20.0]), 0.75, 3, params)
    with pytest.raises(ParameterError, match="above switch_x"):
        theta_taylor(np.array([20.0]), np.array([0.75]), 3, params)
    with pytest.raises(ParameterError, match="v must lie"):
        theta_taylor(np.array([20.0]), 1.0, 3, params)
    # the bound shrinks, but needs more terms than the stencil stores
    with pytest.raises(ParameterError, match="stored moments"):
        theta_taylor(np.array([9.0]), 0.75, 20, params)
    # at exponent -58 the binomial ratio reaches 20, past x / l_max * 2
    with pytest.raises(ParameterError, match="does not converge"):
        kernels._term_count(8.0, 2, 17.0, -58.0, 2)


def test_term_count_bound_unchanged_above_minus_one():
    """For e > -1 the count is the bound k (l_max / (2 x))^n alone, so
    the four kernels run the terms they always did."""
    for k, l_max, n0 in ((8.0, 2, 2), (32.0, 4, 3)):
        for x in (4.0, 8.0, 17.5, 1e3, 1e7):
            want = math.ceil(math.log(1e-17 / k)
                             / (math.log(0.5 * l_max) - math.log(x)))
            for e in (-0.999, 0.0, 0.5, 1.999):
                assert kernels._term_count(k, l_max, x, e, n0) == want


# (big_theta, dbig_theta_dx) at tail arguments, keyed (alpha, v, x): the
# mpmath 1.3.0 value of sum_l D5_l (x - l/2)^e (over e for big_theta) at the
# float exponents e = 1.0 + v - 1.0/alpha and v - 1.0/alpha the kernels
# form, worked at 60 digits so that 40 survive the stencil's cancellation,
# rounded to double
BIG_THETA_TAIL_40_DIGITS = {
    (1.1, 0.919, 9.25): (-3.7000386584692804e-05, 8.97481653781071e-06),
    (1.1, 0.919, 17.5): (-9.275538183823317e-06, 1.12027662354801e-06),
    (1.1, 0.919, 100.125): (-2.6126383249338423e-07, 5.2454835518428875e-09),
    (1.1, 0.919, 10000.5): (-2.6873762514143054e-11, 5.348390486762034e-15),
    (1.1, 0.99, 9.25): (-0.00032567287657827855, 7.61669132670211e-05),
    (1.1, 0.99, 17.5): (-8.578129200808768e-05, 9.990498981490105e-06),
    (1.1, 0.99, 100.125): (-2.7444431805910726e-06, 5.313524900959161e-08),
    (1.1, 0.99, 10000.5): (-3.9171828038794663e-10, 7.517805825896419e-14),
    (1.5, 0.677, 9.25): (-3.8602435784169154e-05, 9.361406278425535e-06),
    (1.5, 0.677, 17.5): (-9.680012348250969e-06, 1.1688785555672933e-06),
    (1.5, 0.677, 100.125): (-2.7286425636499174e-07, 5.477221341288309e-09),
    (1.5, 0.677, 10000.5): (-2.8121982377405816e-11, 5.595616895448216e-15),
    (1.5, 0.99, 9.25): (-0.0015965220589768648, 0.0003260736144522779),
    (1.5, 0.99, 17.5): (-0.0004978499232160202, 5.065190327678275e-05),
    (1.5, 0.99, 100.125): (-2.460615961567878e-05, 4.162192438870578e-07),
    (1.5, 0.99, 10000.5): (-1.0748182085492799e-08, 1.8022019791300868e-12),
    (1.9, 0.536, 9.25): (-3.615177773452856e-05, 8.769972464290896e-06),
    (1.9, 0.536, 17.5): (-9.061382869587266e-06, 1.0945352547569553e-06),
    (1.9, 0.536, 100.125): (-2.5512876909397986e-07, 5.122886615990532e-09),
    (1.9, 0.536, 10000.5): (-2.6215491116957157e-11, 5.217971507969231e-15),
    (1.9, 0.99, 9.25): (-0.0024388248308366885, 0.00045629122674914095),
    (1.9, 0.99, 17.5): (-0.0008385558283047199, 7.816908334832481e-05),
    (1.9, 0.99, 100.125): (-5.331211280712368e-05, 8.26298951417489e-07),
    (1.9, 0.99, 10000.5): (-4.4499292266759766e-08, 6.83683839657912e-12),
}


def test_big_theta_tail_matches_high_precision_values():
    """The five-term tail series, whose leading power is formed from a
    positive base, is within 4 ulp of the exact stencil sum."""
    for (alpha, v, x), wants in BIG_THETA_TAIL_40_DIGITS.items():
        params = KernelParams(alpha)
        for f, want in zip((big_theta, dbig_theta_dx), wants):
            got = f(x, v, params)
            assert abs(got - want) <= 4 * np.spacing(abs(want)), \
                (f.__name__, alpha, v, x)


def _theta_digest():
    h = hashlib.sha256()
    x = np.concatenate([np.linspace(-1.0, 12.0, 1301),
                        np.geomspace(8.0, 1e6, 400)])
    for alpha in (1.1, 1.5, 1.9):
        params = KernelParams(alpha)
        for v in (1.0 / alpha + 0.01, 0.75, 0.99):
            v = max(v, 1.0 / alpha + 0.01)
            for f in (theta, dtheta_dx):
                h.update(f(x, v, params).tobytes())
        vv = np.linspace(1.0 / alpha + 0.01, 0.99, x.size)
        for f in (theta, dtheta_dx):
            h.update(f(x, vv, params).tobytes())
        h.update(theta_taylor(np.geomspace(17.0, 1e4, 50), 0.8, 19,
                              params).tobytes())
    return h.hexdigest()[:16]


def test_theta_pair_keeps_its_frozen_bits():
    """theta, dtheta_dx and theta_taylor feed the convergence study, so
    their bits are frozen: sha256 (first 16 hex digits) over direct and
    tail arguments, one and per-point exponents.  Taken with numpy 2.4 on
    x86-64 with AVX-512; numpy's SIMD power may round differently on
    other CPU features."""
    assert _theta_digest() == "a20a395dc40bbfb8"
