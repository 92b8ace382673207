"""Rayleigh-Lomax baseline distribution.

Three positive parameters theta (scale/shift), lam (power) and beta
(rate), the last three fields of the family's record core.ErlParams;
the public functions here take that record and read only those.  With
v = (theta + x) / theta the cdf on the support x > -theta is

    K(x) = 1 - exp(-(beta / 2) * v**(2 * lam))

so T = (beta / 2) * v**(2*lam) is a unit exponential variate and every
closed form below follows from that transform.  _log_transform is the
one function that forms ln v, T and ln K = ln(1 - e^-T) at data x: the
family's functions call it on raw floats and the likelihood kernel on
parameter columns, one per row of its (rows, n) arrays.  T is
exp(2 lam ln v + ln(beta / 2)), with ln T from _log_exponent, which
stays a double wherever T is one and reuses the ln v the density needs
anyway.  At theta = 1, lam = 0.5, beta = 2 the law collapses to a unit
exponential shifted to start at -1, which the tests lean on heavily.
The baseline is the Weibull law with location -theta, shape k = 2 lam
and scale sigma = theta (2/beta)^(1/k), since T = ((x + theta)/sigma)^k.

Its pdf, cdf and draws are erl_pdf, erl_cdf and erl_sample at a = b = 1
(or scipy.stats.weibull_min).  baseline_quantile has no caller; the
traced benchmark (perfbench/tracing.py) wraps it by name.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .specfun import _integer, _result, log_gamma

if TYPE_CHECKING:
    from .core import ErlParams


def _log_transform(x, theta, lam, beta):
    """(ln v, T, ln K) at x as one (3, ...) array, where
    v = (theta + x) / theta, T = exp(_log_exponent) and K = 1 - e^-T.
    x broadcasts against the parameters (the kernel's are columns).

    v stays (theta + x) / theta: near the support shift theta + x is
    exact, while x / theta rounds and log1p(x / theta) would lose most
    digits of the smallest v.  Off the support (NaN x too) v is 0, so
    ln v and ln K are -inf and T is 0 there.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((3,) + np.broadcast(x, theta, lam, beta).shape)
    # out[i, ...] rather than out[i]: at a scalar x, out[i] is a copy, not a view
    log_v, t, log_k = out[0, ...], out[1, ...], out[2, ...]
    with np.errstate(divide="ignore", over="ignore"):
        np.add(theta, x, out=log_v)
        np.divide(log_v, theta, out=log_v)
        # fmax, unlike maximum, also sends NaN x to v = 0
        np.fmax(log_v, 0.0, out=log_v)
        np.log(log_v, out=log_v)
        _log_exponent(log_v, lam, beta, out=t)
        np.exp(t, out=t)
        np.negative(t, out=log_k)
        np.expm1(log_k, out=log_k)
        np.negative(log_k, out=log_k)
        np.log(log_k, out=log_k)
    return out


def _log1mexp(t: float) -> float:
    """ln(1 - e^-t) at a float t > 0 in full precision (Maechler 2012):
    ln(-expm1(-t)) up to t = ln 2, then log1p(-e^-t), which keeps the
    digits of a small e^-t that 1 - e^-t rounds away."""
    if t <= math.log(2.0):
        return math.log(-math.expm1(-t))
    return math.log1p(-math.exp(-t))


def _log_exponent(log_v, lam, beta, out=None):
    """ln T = 2 lam ln v + ln(beta / 2): its exp is a double wherever T is
    one, even where v^(2 lam) alone is not, and ln T itself keeps full
    precision where T is subnormal or 0.  -inf at v = 0."""
    return np.add(np.multiply(2.0 * lam, log_v, out=out), np.log(0.5 * beta), out=out)


def _log_k_plus_t(log_v, theta, lam, beta):
    """ln k + T at ln v > -inf: the log density without its -T term."""
    with np.errstate(invalid="ignore"):
        return math.log(beta * lam / theta) + (2.0 * lam - 1.0) * log_v


def _v_at(t, lam, beta):
    """The inverse of the transform's T: v at which T takes the value t.
    Beyond the doubles (small lam) an array gives +inf, under the
    caller's np.errstate, and a Python float raises OverflowError."""
    return ((2.0 / beta) * t) ** (0.5 / lam)


def _quantile_v(prob, p: ErlParams):
    """v such that K(theta (v - 1)) = prob, for prob in [0, 1), with K
    the baseline of p."""
    return _v_at(-np.log1p(-np.asarray(prob, dtype=np.float64)), p.lam, p.beta)


def baseline_quantile(prob, p: ErlParams):
    """Inverse cdf of the baseline K of p, the law at a = b = 1:
    theta * (-(2/beta) ln(1-prob))**(1/(2 lam)) - theta.  p's a and b
    are not read.

    prob = 1 maps to +inf; values outside [0, 1] are a domain error.
    """
    pa = np.asarray(prob, dtype=np.float64)
    if pa.size and (np.any(pa < 0.0) or np.any(pa > 1.0) or not np.all(np.isfinite(pa))):
        raise ValueError("baseline_quantile requires prob in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):
        return _result(np.where(pa == 1.0, np.inf, p.theta * _quantile_v(pa, p) - p.theta))


def baseline_moment_series(r: int, p: ErlParams) -> float:
    """Closed-form r-th raw moment of the baseline K of p, the law at
    a = b = 1 (p's a and b are not read), via the binomial/gamma series.

    E[X^r] = sum_h C(r,h) theta^h (2/beta)^(h/(2 lam)) (-theta)^(r-h)
             * Gamma(h/(2 lam) + 1)

    Raises NumericalError where a term or the sum leaves the doubles.
    """
    r = _integer(r, 0, "moment order r must be a nonnegative integer")
    if r == 0:
        return 1.0
    total = 0.0
    try:
        for h in range(r + 1):
            g = math.exp(log_gamma(h / (2.0 * p.lam) + 1.0))
            total += (
                math.comb(r, h)
                * p.theta**h
                * (2.0 / p.beta) ** (h / (2.0 * p.lam))
                * (-p.theta) ** (r - h)
                * g
            )
    except OverflowError:  # from math.exp and float **; a product gives inf
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"baseline moment r={r}: the series leaves the doubles")
    return total

