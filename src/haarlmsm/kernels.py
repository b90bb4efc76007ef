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
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ParameterError

# Weights of the five-term form of big_theta over offsets l/2, l = 0..4.
D5 = (1.0, -2.0, 0.0, 2.0, -1.0)

_MIN_SWITCH_X = 4.0
# a tail term below this fraction of the sum is under half an ulp of it
_TAIL_TOL = 1e-17


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
        if not self.switch_x >= _MIN_SWITCH_X:
            raise ParameterError(
                f"switch_x must be at least 4, got {self.switch_x}")


def _check_v(v: float, alpha: float) -> None:
    # The closed forms stay finite for any exponent p = v - 1/alpha in
    # (-1, 1); evaluation is therefore allowed on that widened range even
    # though the series modules restrict v to (1/alpha, 1).
    lo = 1.0 / alpha - 1.0
    if not lo < v < 1.0:
        raise ParameterError(
            f"v must lie in (1/alpha - 1, 1) = ({lo:.6g}, 1), got {v}")


def truncated_power(s, kappa):
    """Return s**kappa for s > 0 and exactly 0 for s <= 0.

    Total on the real line; scalars in, scalar out, arrays elementwise.
    """
    if np.isscalar(s) or getattr(s, "ndim", 0) == 0:
        sv = float(s)
        if sv <= 0.0:
            return 0.0
        # numpy pow saturates to inf instead of raising on overflow
        with np.errstate(over="ignore", under="ignore"):
            return float(np.float64(sv) ** np.float64(kappa))
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    mask = s > 0.0
    if mask.any():
        out[mask] = np.power(s[mask], float(kappa))
    return out


_Stencil = namedtuple("_Stencil", "terms l_max n0 k moments")


def _term_count(k: float, l_max: int, x_min: float) -> int:
    """Tail terms past the leading one that take k (l_max / (2 x_min))^n
    under _TAIL_TOL."""
    return math.ceil(math.log(_TAIL_TOL / k)
                     / (math.log(0.5 * l_max) - math.log(x_min)))


def _stencil(terms) -> _Stencil:
    """Tail-series data of the weights w_l at offsets l/2.

    ``terms`` lists the nonzero (l, w_l) in the order the closed form adds
    them; n0 is the first n with m_n != 0.  Each tail term obeys
    |term_n / term_n0| <= k (l_max b)^(n - n0), as |C(e,n+1) / C(e,n)| <= 1
    for e > -1 and |m_n| <= sum_l |w_l| l_max^n.  The float moments are
    summed from the largest offset down, powers by repeated products, up to
    the count the slowest tail needs.
    """
    l_max = max(l for l, _ in terms)
    exact = [sum(w * l ** n for l, w in terms) for n in range(len(terms))]
    n0 = next(n for n, m in enumerate(exact) if m)
    k = sum(abs(w) for _, w in terms) * l_max ** n0 / abs(exact[n0])
    moments, pows = [], {l: 1.0 for l, _ in terms}
    for _ in range(n0 + 1 + _term_count(k, l_max, _MIN_SWITCH_X)):
        m = 0.0
        for l, w in sorted(terms, reverse=True):
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
    # (-b)**3 and a chain of products round differently; each stencil keeps
    # its own form of the leading term so kernel values stay bit-stable
    coef = c0 * b * b if st.n0 == 2 else c0 * (-b) ** st.n0
    total = coef * st.moments[st.n0]
    nb = -b
    for n in range(st.n0, st.n0 + _term_count(st.k, st.l_max, t.min())):
        coef = coef * (e - n) / (n + 1.0) * nb
        total = total + coef * st.moments[n + 1]
    return total


def _stencil_sum(x, e, st: _Stencil, switch_x: float):
    """sum_l w_l (x - l/2)_+^e: zero for x <= 0, closed form up to switch_x,
    x^e times the tail series beyond.  Elementwise; scalar in, float out."""
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    out = np.zeros(flat.shape)
    lo = (flat > 0.0) & (flat <= switch_x)
    hi = flat > switch_x
    if lo.any():
        t = flat[lo]
        acc = 0.0
        for l, w in st.terms:
            acc = acc + w * truncated_power(t - 0.5 * l, e)
        out[lo] = acc
    if hi.any():
        t = flat[hi]
        out[hi] = np.power(t, e) * _tail(t, e, st)
    out = out.reshape(xa.shape)
    return float(out) if scalar else out


def theta(x, v, params: KernelParams):
    """Averaged kernel: ((x-1)_+^q - 2(x-1/2)_+^q + x_+^q) / q, q = 1+v-1/alpha.

    Vanishes identically for x <= 0 and decays like (p/4) x^(p-1) with
    p = v - 1/alpha as x grows.  Elementwise in x.
    """
    _check_v(v, params.alpha)
    q = 1.0 + v - 1.0 / params.alpha
    return _stencil_sum(x, q, _THETA, params.switch_x) / q


def big_theta(x, v, params: KernelParams):
    """First difference theta(x) - theta(x-1), via the five-term weights.

    Decays like p(p-1)/4 * x^(p-2); the extra order of localization is what
    makes the summation-by-parts route worthwhile.
    """
    _check_v(v, params.alpha)
    q = 1.0 + v - 1.0 / params.alpha
    return _stencil_sum(x, q, _BIG_THETA, params.switch_x) / q


def dtheta_dx(x, v, params: KernelParams):
    """x-derivative of theta; right-limit convention at the kink points."""
    _check_v(v, params.alpha)
    return _stencil_sum(x, v - 1.0 / params.alpha, _THETA, params.switch_x)


def dbig_theta_dx(x, v, params: KernelParams):
    """x-derivative of big_theta; right-limit convention at the kinks."""
    _check_v(v, params.alpha)
    return _stencil_sum(x, v - 1.0 / params.alpha, _BIG_THETA,
                        params.switch_x)


def theta_quadrature_oracle(x: float, v: float, alpha: float) -> float:
    """theta evaluated from its defining integral, for cross-checks only.

    Integrates (x - s)_+^(v - 1/alpha) against the half-cell step (+1 on
    [0, 1/2), -1 on [1/2, 1)) with adaptive quadrature, splitting at the
    moving endpoint where the integrand meets its kink.  Absolute accuracy
    around 1e-10; far too slow for production use.
    """
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
