"""Real-order Bessel functions of both kinds, J and Y, in numpy and `math`.

They live apart from `numerics` so that only the commands that run the
bent-guide solver (`bentguide solve` and `--golden`) compile and load them."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, MaxIterations

__all__ = ["bessel_jy"]

MAX_BESSEL_ORDER = 60.0
# The argument range of the Bessel functions. Below it a single recurrence
# step could overflow. Above it the first continued fraction, which takes
# about x terms, loses accuracy: its error, about 1.5e-17 x^2 of
# sqrt(J^2 + Y^2), reaches 1.5e-11 at 1e3.
BESSEL_MIN_X = 1e-100
BESSEL_MAX_X = 1e3

# Real-order Bessel functions: the fractional-order scheme of Numerical
# Recipes' bessjy, vectorised.
_EPS = float(np.finfo(float).eps)
_FPMIN = 1e-300  # stands in for a zero denominator in the continued fractions
# The downward recurrence rescales its values to unit size once they pass
# this, so that small x with large order cannot overflow them.
_RESCALE = 1e100
_SERIES_MAX_ITER = 20000  # terms of any continued fraction or series
# Taylor coefficients of 1/Gamma(1 + z) about z = 0; the terms left out
# are below 1e-17 for |z| <= 1/2.
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
)


def _check_bessel_domain(order, x):
    """order and x as float arrays of their broadcast shape; DomainError
    outside the domain, NaN included."""
    order, x = np.broadcast_arrays(np.asarray(order, dtype=float),
                                   np.asarray(x, dtype=float))
    if not np.all((x >= BESSEL_MIN_X) & (x <= BESSEL_MAX_X)):
        raise DomainError(f"bessel_jy requires {BESSEL_MIN_X:g} <= x <= {BESSEL_MAX_X:g}")
    if not np.all((order >= 0) & (order <= MAX_BESSEL_ORDER)):
        raise DomainError(f"bessel_jy supports 0 <= order <= {MAX_BESSEL_ORDER}")
    return order, x


def _until_converged(step, state):
    """Iterate step(i, *state) -> (next state, converged mask), i = 1, 2, ...,
    on the elements of `state` (a tuple of equal-length arrays) not yet
    converged, and return every element's state at its convergence."""
    final = tuple(np.empty_like(s) for s in state)
    where = np.arange(state[0].size)
    for i in range(1, _SERIES_MAX_ITER + 1):
        if where.size == 0:
            return final
        state, converged = step(i, *state)
        if converged.any():
            for out, s in zip(final, state):
                out[where[converged]] = s[converged]
            keep = ~converged
            where = where[keep]
            state = tuple(s[keep] for s in state)
    raise MaxIterations("Bessel continued fraction or series did not converge")


def _cf1_step(i, h, b, c, d, sign, xi2):
    # Modified Lentz on J'_nu/J_nu; `sign` counts the sign changes of d,
    # which fix the sign the downward recurrence starts from.
    b = b + xi2
    d = b - d
    d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
    c = b - 1.0 / c
    c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
    d = 1.0 / d
    delta = c * d
    return ((h * delta, b, c, d, np.where(d < 0.0, -sign, sign), xi2),
            np.abs(delta - 1.0) < _EPS)


def _temme_step(i, ff, c, p, q, s, s1, mu, r, d):
    # Temme's series for Y_mu and Y_{mu+1}, |mu| <= 1/2, x < 2.
    ff = (i * ff + p + q) / (i * i - mu * mu)
    c = c * d / i
    p = p / (i - mu)
    q = q / (i + mu)
    delta = c * (ff + r * q)
    s = s + delta
    return ((ff, c, p, q, s, s1 + c * p - i * delta, mu, r, d),
            np.abs(delta) < (1.0 + np.abs(s)) * _EPS)


def _cf2_step(i, pq, a, b, c, d):
    # Steed's continued fraction for p + iq = (J'_mu + iY'_mu)/(J_mu + iY_mu),
    # modified Lentz; its first term is taken before the loop, so step i adds
    # term i + 1.
    a = a + 2.0 * i
    b = b + 2j
    d = a * d + b
    d = np.where(np.abs(d.real) + np.abs(d.imag) < _FPMIN, _FPMIN, d)
    c = b + a / c
    c = np.where(np.abs(c.real) + np.abs(c.imag) < _FPMIN, _FPMIN, c)
    d = 1.0 / d
    delta = c * d
    return ((pq * delta, a, b, c, d),
            np.abs(delta.real - 1.0) + np.abs(delta.imag) < _EPS)


def _temme_y(mu, x):
    """Y_mu(x) and Y_{mu+1}(x) for |mu| <= 1/2 and x < 2 (Temme, J. Comput.
    Phys. 21, 343, 1976). The gamma1/gamma2 terms come from the Taylor series
    of 1/Gamma(1 +- mu), which do not cancel near mu = 0."""
    mu2 = mu * mu
    even = odd = np.zeros_like(mu)
    for k in range(len(_RGAMMA_TAYLOR) - 2, -1, -2):
        even = even * mu2 + _RGAMMA_TAYLOR[k]
        odd = odd * mu2 + _RGAMMA_TAYLOR[k + 1]
    gam1, gam2 = -odd, even  # (1/G(1-mu) -+ 1/G(1+mu)) / (2 mu) and / 2
    gampl, gammi = gam2 - mu * gam1, gam2 + mu * gam1  # 1/G(1+mu), 1/G(1-mu)
    x2 = 0.5 * x
    d = -np.log(x2)
    e = mu * d
    sinhc = np.ones_like(e)
    nonzero = e != 0.0
    sinhc[nonzero] = np.sinh(e[nonzero]) / e[nonzero]
    ff = (2.0 / math.pi) / np.sinc(mu) * (gam1 * np.cosh(e) + gam2 * sinhc * d)
    e = np.exp(e)
    p = e / (gampl * math.pi)
    q = 1.0 / (e * math.pi * gammi)
    r = 0.5 * math.pi**2 * mu * np.sinc(0.5 * mu)**2
    *_, s, s1, _, _, _ = _until_converged(
        _temme_step, (ff, np.ones_like(mu), p, q, ff + r * q, p, mu, r, -x2 * x2))
    return -s, -2.0 * s1 / x


def _bessel_jy_pass(nu, x):
    """J_nu and Y_nu at 1-D arrays nu and x, by Numerical Recipes' bessjy
    (Press et al., 3rd ed., section 6.6).

    A continued fraction (CF1) gives J'_nu/J_nu, and downward recurrence takes
    the unnormalized J to order mu = nu - nl. At x < 2, nl rounds nu so that
    |mu| <= 1/2 and Temme's series gives Y_mu, Y_{mu+1}; at x >= 2, mu lies
    just below x and Steed's continued fraction CF2 (Barnett et al., Comput.
    Phys. Commun. 8, 377, 1974) gives them. The Wronskian then scales J, and
    upward recurrence takes Y back to nu. Each iteration works on the elements
    not yet converged, and each recurrence step on those with that many steps
    to go. Where Y_nu overflows it is -inf.
    """
    small = x < 2.0
    nl = np.where(small, np.floor(nu + 0.5), np.maximum(0.0, np.floor(nu - x + 1.5)))
    # Elements in descending nl: those taking the k-th recurrence step are a prefix.
    perm = np.argsort(-nl, kind="stable")
    nu, x, nl, small = nu[perm], x[perm], nl[perm], small[perm]
    steps = [np.count_nonzero(nl > k) for k in range(int(nl[0]) if nl.size else 0)]
    mu = nu - nl
    xi = 1.0 / x
    h0 = np.maximum(nu * xi, _FPMIN)
    h, *_, sign, _ = _until_converged(
        _cf1_step, (h0, 2.0 * xi * nu, h0, np.zeros_like(x), np.ones_like(x), 2.0 * xi))

    # Downward recurrence of J and J' from nu to mu, from an arbitrary scale;
    # j_up is J_{mu+1} on the same scale.
    jl = sign
    jpl = h * jl
    j_start = jl.copy()
    j_up = (mu * xi - h) * jl
    fact = nu * xi
    for k in steps:
        t = fact[:k] * jl[:k] + jpl[:k]
        fact[:k] -= xi[:k]
        jpl[:k] = fact[:k] * t - jl[:k]
        j_up[:k] = jl[:k]
        jl[:k] = t
        big = np.abs(t) > _RESCALE
        if big.any():
            shrink = 1.0 / np.abs(t[big])
            for arr in (jl, jpl, j_up, j_start):
                arr[:k][big] *= shrink
    jl[jl == 0.0] = _EPS  # a zero J_mu would leave its scale 0/0

    # The Wronskian J_{mu+1} Y_mu - J_mu Y_{mu+1} = w fixes the scale of J.
    w = 2.0 / (math.pi * x)
    y_mu, y_mu1, j_mu = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    if small.any():
        ym, ym1 = _temme_y(mu[small], x[small])
        y_mu[small], y_mu1[small] = ym, ym1
        j_mu[small] = w[small] / (j_up[small] / jl[small] * ym - ym1)
    large = ~small
    if large.any():
        xl, ml = x[large], mu[large]
        a = 0.25 - ml * ml
        pq = -0.5 / xl + 1j
        b = 2.0 * xl + 2j
        c = b + 1j * a / (xl * pq)
        d = 1.0 / b
        pq = pq * c * d
        pq, *_ = _until_converged(_cf2_step, (pq, a, b, c, d))
        p, q = pq.real, pq.imag
        fl = jpl[large] / jl[large]  # J'_mu / J_mu
        gam = (p - fl) / q  # Y_mu / J_mu
        jm = np.copysign(np.sqrt(w[large] / ((p - fl) * gam + q)), jl[large])
        ym = jm * gam
        j_mu[large] = jm
        y_mu[large] = ym
        y_mu1[large] = ml * xi[large] * ym - jm * (gam * p + q)

    j = j_start * (j_mu / jl)
    # Upward recurrence of Y from mu to nu; past overflow it gives inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(steps, start=1):
            t = (mu[:k] + i) * (2.0 * xi[:k]) * y_mu1[:k] - y_mu[:k]
            y_mu[:k] = y_mu1[:k]
            y_mu1[:k] = t
    y = np.where(np.isfinite(y_mu), y_mu, -np.inf)
    back = np.argsort(perm)
    return j[back], y[back]


def bessel_jy(order, x):
    """Bessel functions J_nu(x) and Y_nu(x) for real order nu in [0, 60] and
    BESSEL_MIN_X <= x <= BESSEL_MAX_X, broadcast over arrays; Y is -inf where
    it overflows."""
    order, x = _check_bessel_domain(order, x)
    j, y = _bessel_jy_pass(order.ravel(), x.ravel())
    if order.ndim == 0:
        return float(j[0]), float(y[0])
    return j.reshape(order.shape), y.reshape(order.shape)

