"""Closed-form kernels of the dyadic averaging step.

The central function ``theta`` is the moving-average kernel obtained by
integrating the truncated power s -> s_+^(v - 1/alpha) against a unit step
that is +1 on the first half of a cell and -1 on the second half.  Its first
difference in x (``big_theta``) is much better localized and is what the
summation-by-parts series evaluators consume; the x-derivatives of both are
needed for decay diagnostics.  ``box`` is the same average over the Haar
scaling function 1_[0,1): the leading term of the recent-scales half and
the cell averages of its consistent truncation.

All five functions are one stencil sum, sum_l w_l (x - l/2)_+^e, with the
weights (1, -2, 1) for the theta pair, ``D5`` for the big_theta pair or
(1, 0, -1) for box, at exponent q = 1 + v - 1/alpha (then divided by q) or
p = v - 1/alpha for the derivatives.  For large x the closed form
subtracts terms of size x^e that agree to roughly e*log2(x) bits, so
beyond ``KernelParams.switch_x`` one shared core sums the binomial tail
series about the stencil's centre c, 1/2 for theta and box and 1 for
big_theta: at y = x - c the sum is y^e sum_n C(e,n) (-1/y)^n M_n over the
central moments M_n = sum_l w_l (l/2 - c)^n.  These sit on offsets
|l/2 - c| <= 1 instead of l/2 <= 2, and theta is symmetric about c while
big_theta and box are antisymmetric, so every other moment vanishes and
each kept term is about (l_max/(2y))^2 of the one before: just past x = 8
theta and box sum 8 terms and big_theta 11, against 21 and 32 about 0.
The leading moments vanish too, so no cancelling head remains; past the
first, the kept terms have one sign, so the bound on the first term left
out bounds all the rest, and each row of the table fixes its term count
from its smallest y and its exponent.  The tail loop updates its table in
place, with no allocation per term, and forms y in the copy that selects
the tail's arguments; the closed form forms each stencil term
(x - l/2)_+^e over the whole direct branch, with no gather or scatter per
term.

The tail series takes any exponent, not only the kernels' q and p: for
e < -1 the binomial ratio |C(e,n+1) / C(e,n)| exceeds 1, and the term
count's bound grows by its largest value.  ``theta_taylor`` uses this for
the Taylor coefficients theta^(r)(k)/r! = C(q,r)/q sum_l w_l (k - l/2)^(q-r)
of theta at k > switch_x, where theta is analytic (its kinks sit at 0, 1/2
and 1), all R orders as the rows of one tail table; the far-past rows of
``series.far_past_terms`` sum through them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Weights of the five-term form of big_theta over offsets l/2, l = 0..4.
D5 = (1.0, -2.0, 0.0, 2.0, -1.0)

# a tail term below this fraction of the sum is under half an ulp of it
_TAIL_TOL = 1e-17
# central moments stored, n < _MOMENTS: the kernels' slowest tail (big_theta
# just past x = 8) reads n <= 23, theta_taylor's at R = 30 and k = 17
# n <= 36 (84 about 0); R = 30 at k = 9 (n <= 82) is refused
_MOMENTS = 64


def check_alpha(alpha: float) -> None:
    """Refuse a stability index outside the open band (1, 2), NaN included."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")


@dataclass(frozen=True)
class KernelParams:
    """Stability index of the kernels.

    The kernels take the closed form up to x = ``switch_x`` and the tail
    series beyond it.  The crossover is fixed at 8, a class constant and
    not a field.  It sits low on purpose: the direct bracket loses about
    2*log2(x) bits to cancellation, which already costs eight digits of the
    result near x ~ 1e4, while the tail series holds full precision from
    x = 4 on (it converges for any x > 2).  Direct evaluation below 8
    stays comfortably accurate.  ``theta_taylor`` takes k above the
    crossover, so the far-past moment rule's lo >= 16 (its first k is
    lo + 1) needs it below 17.
    """

    alpha: float
    switch_x = 8.0

    def __post_init__(self):
        check_alpha(self.alpha)
        # a numpy float32 alpha would put every 1/alpha in float32
        object.__setattr__(self, "alpha", float(self.alpha))


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


_Stencil = namedtuple("_Stencil", "terms centre l_max n0 k moments")


def _term_count(k: float, l_max: float, y_min: float, e: float, n0: int,
                centre: float = 0.0) -> int:
    """Tail terms past the leading one, in steps of one n, that take
    k (g l_max / (2 y_min))^n under _TAIL_TOL, g bounding |C(e,i+1) /
    C(e,i)| over i >= n0: 1 for e > -1, else (n0 - e) / (n0 + 1), where the
    ratio (i - e) / (i + 1) peaks.  ParameterError, naming x = centre +
    y_min, where this bound does not shrink."""
    g = 1.0 if e > -1.0 else (n0 - e) / (n0 + 1.0)
    shrink = math.log(0.5 * l_max * g) - math.log(y_min)
    if not shrink < 0.0:
        raise ParameterError(f"the tail series bound does not converge at "
                             f"x = {centre + y_min}, exponent {e}")
    return math.ceil(math.log(_TAIL_TOL / k) / shrink)


def _stencil(terms, centre: float) -> _Stencil:
    """Tail-series data of the weights w_l at offsets l/2, expanded about
    the centre c.

    ``terms`` lists the nonzero (l, w_l) in the order the closed form adds
    them.  The central moments M_n = sum_l w_l (l/2 - c)^n sit on offsets
    |l/2 - c| <= l_max / 2 = 1/2 (theta, box) or 1 (big_theta); they are
    dyadic, so their float sums are exact while M_n fits 53 bits (every n
    for theta and box, n <= 54 for big_theta).  n0 is the first n with
    M_n != 0, and M_n vanishes for every odd n - n0: the stencil is
    symmetric (theta) or antisymmetric (big_theta, box) about c.  Each
    tail term obeys |term_n / term_n0| <= k (g l_max / (2 y))^(n - n0), as
    |C(e,n+1) / C(e,n)| <= g (see _term_count) and |M_n| <= sum_l |w_l|
    (l_max / 2)^n.  ``moments`` holds (-1)^n M_n / n! for n < _MOMENTS,
    the tail's falling factorials taking the place of its binomials.
    """
    offsets = [(0.5 * l - centre, w) for l, w in terms]
    half = max(abs(d) for d, _ in offsets)
    central, pows = [], [1.0] * len(offsets)
    for _ in range(_MOMENTS):
        m = 0.0
        for (_, w), pw in zip(offsets, pows):
            m += w * pw
        central.append(m)
        pows = [pw * d for (d, _), pw in zip(offsets, pows)]
    n0 = next(n for n, m in enumerate(central) if m)
    k = sum(abs(w) for _, w in terms) * half ** n0 / abs(central[n0])
    moments = tuple((m if n % 2 == 0 else -m) / math.factorial(n)
                    for n, m in enumerate(central))
    return _Stencil(terms, centre, 2.0 * half, n0, k, moments)


# the closed form's rounding follows its summation order: (1, -2, 1) is
# added from offset 1 down, D5 and the box's (1, -1) from offset 0 up, so
# the box below 1 is x**q / q to the bit
_THETA = _stencil(((2, 1.0), (1, -2.0), (0, 1.0)), 0.5)
_BIG_THETA = _stencil(tuple((l, w) for l, w in enumerate(D5) if w), 1.0)
_BOX = _stencil(((0, 1.0), (2, -1.0)), 0.5)


def _tail(y, e, st: _Stencil, power: bool = False):
    """sum_n C(e,n) (-1/y)^n M_n over n = n0, n0 + 2, ..., summed forward:
    the stencil sum_l w_l (x - l/2)^e over y^e, at y = x - c; with
    ``power``, times y^e, so the stencil sum itself.

    This is the bracket sum_l w_l (1 - (l/2 - c) / y)^e with the vanishing
    moments cancelled analytically, so no cancelling head remains.  The
    ratio of consecutive kept terms, (e - n)(e - n - 1) / ((n + 1)(n + 2))
    y^-2 M_(n+2) / M_n, is positive for n > e, so past the leading term
    the terms keep one sign and the bound on each bounds the rest.  ``e``
    is one exponent or one per element of y, giving one row of sums, or a
    column (R, 1) of exponents in decreasing order, giving an (R, y.size)
    table.  Each row sums the terms n - n0 <= count of the term count that
    _term_count gives for its smallest exponent and its smallest y: just
    past x = 8, for e in (-1, 2), 7 past the leading one for theta and box
    and 10 for big_theta.  A smaller exponent needs more terms, so the rows
    still running are a suffix of the table.  The loop updates them in
    place, and every element sees the same operations in the same order in
    any table.

    The leading coefficient carries (1/y)^n0, which comes within 2^53 of
    the subnormals where y^n0 passes 2^969.  With ``power`` (one exponent,
    or one per element), y^e multiplies those elements' leading
    coefficient first, as lead (1/y) y^e (1/y)^(n0 - 1), which stays
    normal while their sum does; every other element is multiplied by y^e
    at the end.
    """
    # c_n = (e)_n y^-n with the falling factorial (e)_n = e (e - 1) ...
    # (e - n + 1), against the stored (-1)^n M_n / n!
    b = np.divide(1.0, y)
    z = b * b
    lead = e
    for i in range(1, st.n0):
        lead = lead * (e - i)
    c = lead * (b if st.n0 % 2 else z)
    for _ in range((st.n0 - 1) // 2):
        c *= z
    deep = None  # the elements whose y^n0 passes 2^969
    far = 2.0 ** (969.0 / st.n0)
    if power and np.max(y, initial=0.0) > far:
        deep = np.flatnonzero(y > far)
        bd = b[deep]
        cd = (lead[deep] if np.ndim(lead) else lead) * bd
        cd *= np.power(y[deep], e[deep] if np.ndim(e) else e)
        for _ in range(st.n0 - 1):
            cd *= bd
        c[deep] = cd
        del bd, cd
    del b, lead
    total = c * st.moments[st.n0]
    # an empty y needs no terms: its bound shrinks at y = inf
    y_min = np.min(y, initial=np.inf)
    ends = []  # the last n each row sums
    for row in e if np.ndim(e) == 2 else [e]:
        count = _term_count(st.k, st.l_max, y_min, np.min(row), st.n0,
                            st.centre)
        end = st.n0 + 2 * (count // 2)
        if end >= len(st.moments):
            raise ParameterError(
                f"the tail series at x = {st.centre + y_min} needs "
                f"{count // 2} terms, over the stored moments")
        ends.append(end)
    d, d2 = np.empty(np.shape(e)), np.empty(np.shape(e))
    scratch = np.empty(total.shape)
    start = st.n0
    # terms start+2..end run on rows first.. (ends rise, so those rows
    # are the ones still running; one row has first = 0)
    for first, end in enumerate(ends):
        cf, tot, s = c[first:], total[first:], scratch[first:]
        ef, df, d2f = ((e[first:], d[first:], d2[first:])
                       if np.ndim(e) == 2 else (e, d, d2))
        for n in range(start, end, 2):
            # c_(n+2) = c_n (e - n)(e - n - 1) / y^2
            np.subtract(ef, n, out=df)
            df *= np.subtract(ef, n + 1, out=d2f)
            cf *= df
            cf *= z
            tot += np.multiply(cf, st.moments[n + 2], out=s)
        start = max(start, end)
    if power:
        kept = None if deep is None else total[deep]
        total *= np.power(y, e, out=scratch)
        if deep is not None:
            total[deep] = kept
    return total


def _stencil_sum(x, v, params: KernelParams, st: _Stencil, integrated: bool):
    """sum_l w_l (x - l/2)_+^e at e = q = 1 + v - 1/alpha, divided by q when
    ``integrated``, else at e = v - 1/alpha: zero for x <= 0, closed form
    up to switch_x, y^e times the tail series beyond, at y = x - c.
    Elementwise in x and in a v that broadcasts against it (a scalar v
    stays one exponent); scalar in, float out; ParameterError for a
    non-finite x or value."""
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
            acc, term = np.zeros(t.shape), np.empty(t.shape)
            for l, w in st.terms:
                # (t - l/2)_+^e: the power where t - l/2 > 0 only, exactly
                # 0 at and left of the kink
                s = t - 0.5 * l
                term.fill(0.0)
                np.power(s, el, out=term, where=s > 0.0)
                term *= w
                acc += term
            out[lo] = acc
        if hi.any():
            # y = x - c in the copy that the mask made, not a new array
            y = flat[hi]
            y -= st.centre
            eh = e[hi] if np.ndim(e) else e
            out[hi] = _tail(y, eh, st, power=True)
    # a NaN or -inf x gives 0, so x is checked too (min and max keep NaN)
    if flat.size and not (np.isfinite(flat.min()) and np.isfinite(flat.max())
                          and np.isfinite(out).all()):
        bad = ~(np.isfinite(flat) & np.isfinite(out))
        raise ParameterError(f"x must be finite and not overflow the "
                             f"kernel, got {flat[bad][0]}")
    out = out.reshape(xa.shape) / div
    return float(out) if out.ndim == 0 else out


def box(x, v, params: KernelParams):
    """Scaling-function kernel: (x_+^q - (x-1)_+^q) / q, q = 1+v-1/alpha.

    The average of s -> (x - s)_+^(v - 1/alpha) over the Haar scaling
    function's cell [0, 1); zero for x <= 0, like x^(v - 1/alpha) as x
    grows.
    """
    return _stencil_sum(x, v, params, _BOX, True)


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
    at every k of a 1-d array above switch_x (an empty k gives R empty
    rows) and one scalar v.

    Row r is C(q,r)/q (k - 1/2)^(q-r) times the centred tail series at
    exponent q - r, so theta(k + eps) - theta(k) = sum_r eps^r row_r for
    |eps| < k - 1.  All R series are one (R, k.size) tail table, each row
    summed to its own term count.
    """
    _check_v(v, params.alpha)
    k = np.asarray(k, dtype=float)
    if np.ndim(v) or k.ndim != 1 or \
            not np.min(k, initial=np.inf) > params.switch_x:
        raise ParameterError(f"theta_taylor takes one v and k above "
                             f"switch_x = {params.switch_x}")
    q = 1.0 + v - 1.0 / params.alpha
    e = q - np.arange(1, R + 1)[:, None]
    # C(q,r)/q for r = 1..R, as c_(r+1) = c_r (q - r) / (r + 1)
    c = list(itertools.accumulate(range(1, R), initial=1.0,
                                  func=lambda c, r: c * (q - r) / (r + 1.0)))
    y = k - _THETA.centre
    out = np.power(y, e)
    out *= np.array(c[:R])[:, None]
    out *= _tail(y, e, _THETA)
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
