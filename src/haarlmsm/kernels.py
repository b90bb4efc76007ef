"""Closed-form kernels of the dyadic averaging step.

The central function ``theta`` is the moving-average kernel obtained by
integrating the truncated power s -> s_+^(v - 1/alpha) against a unit step
that is +1 on the first half of a cell and -1 on the second half.  Its first
difference in x (``big_theta``) is much better localized and is what the
summation-by-parts series evaluators consume; the x-derivatives of both are
needed for decay diagnostics.

All four functions are one stencil sum, sum_l w_l (x - l/2)_+^e, with the
weights (1, -2, 1) for the theta pair or ``D5`` for the big_theta pair, at
exponent q = 1 + v - 1/alpha (then divided by q) or p = v - 1/alpha for the
derivatives.  For large x the closed form subtracts terms of size x^e that
agree to roughly e*log2(x) bits, so beyond ``KernelParams.switch_x`` one
shared core sums the binomial tail series x^e sum_n C(e,n) (-1/(2x))^n m_n
over the stencil's integer moments m_n = sum_l w_l l^n.  The leading
moments vanish, so no cancelling head remains and every term has one sign;
the terms shrink like (l_max/(2x))^n, so each call fixes its term count
from its smallest tail argument.

The tail series takes any exponent, not only the kernels' q and p: for
e < -1 the binomial ratio |C(e,n+1) / C(e,n)| exceeds 1, and the term
count's bound grows by its largest value.  ``theta_taylor`` uses this for
the Taylor coefficients theta^(r)(k)/r! = C(q,r)/q sum_l w_l (k - l/2)^(q-r)
of theta at k > switch_x, where theta is analytic (its kinks sit at 0, 1/2
and 1); the far-past rows of ``series.far_past_terms`` sum through them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Weights of the five-term form of big_theta over offsets l/2, l = 0..4.
D5 = (1.0, -2.0, 0.0, 2.0, -1.0)

_MIN_SWITCH_X = 4.0
# a tail term below this fraction of the sum is under half an ulp of it
_TAIL_TOL = 1e-17
# stencil moments stored: the kernels' slowest tail (x = 4) needs 33 and
# 66, theta_taylor's at r = 30 and k = 17 needs 84
_MOMENTS = 128


def check_alpha(alpha: float) -> None:
    """Refuse a stability index outside the open band (1, 2), NaN included."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")


@dataclass(frozen=True)
class KernelParams:
    """Stability index and the crossover point of the large-x evaluation.

    ``switch_x`` may be anything >= 4 (the tail series converges for any
    x > 2).  The default sits low on purpose: the direct bracket loses about
    2*log2(x) bits to cancellation, which already costs eight digits of the
    result near x ~ 1e4, while the tail series holds full precision from
    x = 4 on.  Direct evaluation below 8 stays comfortably accurate.
    """

    alpha: float
    switch_x: float = 8.0

    def __post_init__(self):
        check_alpha(self.alpha)
        # a numpy float32 alpha would put every 1/alpha in float32
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.switch_x >= _MIN_SWITCH_X:
            raise ParameterError(
                f"switch_x must be at least 4, got {self.switch_x}")


def _check_v(v, alpha: float) -> None:
    # The closed forms stay finite for any exponent p = v - 1/alpha in
    # (-1, 1); evaluation is therefore allowed on that widened range even
    # though the series modules restrict v to (1/alpha, 1).
    lo = 1.0 / alpha - 1.0
    v = np.atleast_1d(v)
    bad = ~((lo < v) & (v < 1.0))
    if bad.any():
        raise ParameterError(
            f"v must lie in (1/alpha - 1, 1) = ({lo:.6g}, 1), got {v[bad][0]}")


def truncated_power(s, kappa):
    """Return s**kappa for s > 0 and exactly 0 for s <= 0.

    Total on the real line (an overflow saturates to inf); scalars in,
    scalar out, arrays elementwise, kappa a scalar or broadcast against s.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    mask = s > 0.0
    with np.errstate(over="ignore"):
        out[mask] = np.power(s[mask], kappa if np.ndim(kappa) == 0
                             else np.broadcast_to(kappa, s.shape)[mask])
    return float(out) if out.ndim == 0 else out


_Stencil = namedtuple("_Stencil", "terms l_max n0 k moments")


def _term_count(k: float, l_max: int, x_min: float, e: float,
                n0: int) -> int:
    """Tail terms past the leading one that take k (g l_max / (2 x_min))^n
    under _TAIL_TOL, g bounding |C(e,i+1) / C(e,i)| over i >= n0: 1 for
    e > -1, else (n0 - e) / (n0 + 1), where the ratio (i - e) / (i + 1)
    peaks.  ParameterError where this bound does not shrink."""
    g = 1.0 if e > -1.0 else (n0 - e) / (n0 + 1.0)
    shrink = math.log(0.5 * l_max * g) - math.log(x_min)
    if not shrink < 0.0:
        raise ParameterError(f"the tail series bound does not converge at "
                             f"x = {x_min}, exponent {e}")
    return math.ceil(math.log(_TAIL_TOL / k) / shrink)


def _stencil(terms) -> _Stencil:
    """Tail-series data of the weights w_l at offsets l/2.

    ``terms`` lists the nonzero (l, w_l) in the order the closed form adds
    them; n0 is the first n with m_n != 0.  Each tail term obeys
    |term_n / term_n0| <= k (g l_max b)^(n - n0), as |C(e,n+1) / C(e,n)|
    <= g (see _term_count) and |m_n| <= sum_l |w_l| l_max^n.  The first
    _MOMENTS float moments are summed from the largest offset down, powers
    by repeated products.
    """
    l_max = max(l for l, _ in terms)
    exact = [sum(w * l ** n for l, w in terms) for n in range(len(terms))]
    n0 = next(n for n, m in enumerate(exact) if m)
    k = sum(abs(w) for _, w in terms) * l_max ** n0 / abs(exact[n0])
    moments, pows = [], {l: 1.0 for l, _ in terms}
    down = sorted(terms, reverse=True)
    for _ in range(_MOMENTS):
        m = 0.0
        for l, w in down:
            m += w * pows[l]
            pows[l] *= l
        moments.append(m)
    return _Stencil(terms, l_max, n0, k, tuple(moments))


# the closed form's rounding follows its summation order: (1, -2, 1) is
# added from offset 1 down, D5 from offset 0 up
_THETA = _stencil(((2, 1.0), (1, -2.0), (0, 1.0)))
_BIG_THETA = _stencil(tuple((l, w) for l, w in enumerate(D5) if w))


def _tail(t, e, st: _Stencil):
    """sum_{n>=n0} C(e,n) (-b)^n m_n at b = 1/(2t), summed forward in n.

    This is the bracket sum_l w_l (1 - l b)^e with the vanishing moments
    cancelled analytically, so no cancelling head remains.
    """
    b = 0.5 / t
    c0 = e
    for i in range(1, st.n0):
        c0 = c0 * (e - i)
    c0 = c0 / math.factorial(st.n0)
    # the leading power is formed from b > 0, its sign carried by c0:
    # numpy's power of a negative base takes a slow path, 46x the time of
    # b**3 on a 31k-element table (3.9 against 0.084 ms, numpy 2.4,
    # AVX-512).  Theta's (c0 * b) * b rounds unlike c0 * b**2 and keeps
    # its form, so theta, dtheta_dx and theta_taylor keep their bits
    coef = c0 * b * b if st.n0 == 2 \
        else (-1.0) ** st.n0 * c0 * b ** st.n0
    total = coef * st.moments[st.n0]
    count = _term_count(st.k, st.l_max, t.min(), np.min(e), st.n0)
    if st.n0 + 1 + count > len(st.moments):
        raise ParameterError(f"the tail series at x = {t.min()} needs "
                             f"{count} terms, over the stored moments")
    nb = -b
    for n in range(st.n0, st.n0 + count):
        coef = coef * (e - n) / (n + 1.0) * nb
        total = total + coef * st.moments[n + 1]
    return total


def _stencil_sum(x, v, params: KernelParams, st: _Stencil, integrated: bool):
    """sum_l w_l (x - l/2)_+^e at e = q = 1 + v - 1/alpha, divided by q when
    ``integrated``, else at e = v - 1/alpha: zero for x <= 0, closed form
    up to switch_x, x^e times the tail series beyond.  Elementwise in x and
    in a v that broadcasts against it (a scalar v stays one exponent);
    scalar in, float out; ParameterError for a non-finite x or value."""
    _check_v(v, params.alpha)
    e = 1.0 + v - 1.0 / params.alpha if integrated else v - 1.0 / params.alpha
    div = e if integrated else 1.0
    xa = np.asarray(x, dtype=float)
    if np.ndim(e):
        xa, e = np.broadcast_arrays(xa, e)
        e = e.ravel()
    flat = xa.ravel()
    out = np.zeros(flat.shape)
    lo = (flat > 0.0) & (flat <= params.switch_x)
    hi = flat > params.switch_x
    with np.errstate(over="ignore", invalid="ignore"):
        if lo.any():
            t = flat[lo]
            el = e[lo] if np.ndim(e) else e
            acc = 0.0
            for l, w in st.terms:
                acc = acc + w * truncated_power(t - 0.5 * l, el)
            out[lo] = acc
        if hi.any():
            t = flat[hi]
            eh = e[hi] if np.ndim(e) else e
            out[hi] = np.power(t, eh) * _tail(t, eh, st)
    # a NaN or -inf x gives 0, so x is checked too (min and max keep NaN)
    if flat.size and not (np.isfinite(flat.min()) and np.isfinite(flat.max())
                          and np.isfinite(out).all()):
        bad = ~(np.isfinite(flat) & np.isfinite(out))
        raise ParameterError(f"x must be finite and not overflow the "
                             f"kernel, got {flat[bad][0]}")
    out = out.reshape(xa.shape) / div
    return float(out) if out.ndim == 0 else out


def theta(x, v, params: KernelParams):
    """Averaged kernel: ((x-1)_+^q - 2(x-1/2)_+^q + x_+^q) / q, q = 1+v-1/alpha.

    Vanishes identically for x <= 0 and decays like (p/4) x^(p-1) with
    p = v - 1/alpha as x grows.  Elementwise in x.
    """
    return _stencil_sum(x, v, params, _THETA, True)


def big_theta(x, v, params: KernelParams):
    """First difference theta(x) - theta(x-1), via the five-term weights.

    Decays like p(p-1)/4 * x^(p-2); the extra order of localization is what
    makes the summation-by-parts route worthwhile.
    """
    return _stencil_sum(x, v, params, _BIG_THETA, True)


def dtheta_dx(x, v, params: KernelParams):
    """x-derivative of theta; right-limit convention at the kink points."""
    return _stencil_sum(x, v, params, _THETA, False)


def dbig_theta_dx(x, v, params: KernelParams):
    """x-derivative of big_theta; right-limit convention at the kinks."""
    return _stencil_sum(x, v, params, _BIG_THETA, False)


def theta_taylor(k, v, R: int, params: KernelParams) -> np.ndarray:
    """Taylor coefficients theta^(r)(k) / r! for r = 1..R, one row per r,
    at every k of a 1-d array above switch_x and one scalar v.

    Row r is C(q,r)/q k^(q-r) times the tail series at exponent q - r, so
    theta(k + eps) - theta(k) = sum_r eps^r row_r for |eps| < k - 1.
    """
    _check_v(v, params.alpha)
    k = np.asarray(k, dtype=float)
    if np.ndim(v) or k.ndim != 1 or not k.min() > params.switch_x:
        raise ParameterError(f"theta_taylor takes one v and k above "
                             f"switch_x = {params.switch_x}")
    q = 1.0 + v - 1.0 / params.alpha
    out = np.empty((R, k.size))
    c = 1.0  # C(q,r)/q
    for r in range(1, R + 1):
        out[r - 1] = c * np.power(k, q - r) * _tail(k, q - r, _THETA)
        c = c * (q - r) / (r + 1.0)
    return out


def theta_quadrature_oracle(x: float, v: float, alpha: float) -> float:
    """theta evaluated from its defining integral, for cross-checks only.

    Integrates (x - s)_+^(v - 1/alpha) against the half-cell step (+1 on
    [0, 1/2), -1 on [1/2, 1)) with adaptive quadrature, splitting at the
    moving endpoint where the integrand meets its kink.  Absolute accuracy
    around 1e-10; far too slow for production use.  It is the package's
    only use of scipy, imported here so that no command loads scipy.
    """
    from scipy import integrate

    check_alpha(alpha)
    _check_v(v, alpha)
    x = float(x)
    if x <= 0.0:
        return 0.0
    p = v - 1.0 / alpha
    total = 0.0
    for a, b, sign in ((0.0, 0.5, 1.0), (0.5, 1.0, -1.0)):
        if x <= a:
            continue
        hi = min(b, x)
        val, _ = integrate.quad(lambda s: (x - s) ** p, a, hi,
                                epsabs=1e-12, epsrel=1e-12, limit=200)
        total += sign * val
    return total
