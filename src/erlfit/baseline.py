"""Rayleigh-Lomax baseline distribution.

Three positive parameters theta (scale/shift), lam (power) and beta
(rate).  With v = (theta + x) / theta the cdf on the support x > -theta
is

    K(x) = 1 - exp(-(beta / 2) * v**(2 * lam))

so T = (beta / 2) * v**(2*lam) is a unit exponential variate and every
closed form below follows from that transform.  _transform, _exponent,
_log_exponent, _log_k_plus_t and _log_transform are the only code in the
package that forms v and T.  The family's functions call the first
four on raw floats; the likelihood kernel calls _log_transform on
parameter columns, one per row of its (rows, n) arrays.  Both take T as
exp(2 lam ln v + ln(beta / 2)), which stays a double wherever T is one,
and the kernel reuses the ln v it needs anyway.  At theta = 1,
lam = 0.5, beta = 2 the law collapses to a unit
exponential shifted to start at -1, which the tests lean on heavily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import log_gamma


@dataclass(frozen=True)
class BaselineParams:
    """Parameter triple (theta, lam, beta), all strictly positive."""

    theta: float
    lam: float
    beta: float

    def __post_init__(self):
        for name in ("theta", "lam", "beta"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"BaselineParams.{name} must be a finite positive number")


def _transform(x, theta, lam, beta):
    """(v, T) at x: v = (theta + x) / theta, clipped to 0 outside the
    support, and T = _exponent(v, lam, beta), which is 0 there."""
    # fmax, unlike maximum, also sends NaN x to v = 0, off the support
    v = np.fmax((theta + np.asarray(x, dtype=np.float64)) / theta, 0.0)
    return v, _exponent(v, lam, beta)


def _log_transform(x, theta, lam, beta, out):
    """(ln v, T) at x, written into out[0] and out[1]: the likelihood
    kernel's form of _transform, in which T is
    exp(2 lam ln v + ln(beta / 2)), reusing ln v instead of a power.

    v stays (theta + x) / theta: near the support shift theta + x is
    exact, while x / theta rounds and log1p(x / theta) would lose most
    digits of the smallest v.  Off the support ln v is NaN or -inf; the
    caller sets np.errstate.
    """
    log_v, t = out
    np.add(theta, x, out=log_v)
    np.divide(log_v, theta, out=log_v)
    np.log(log_v, out=log_v)
    np.multiply(2.0 * lam, log_v, out=t)
    np.add(t, np.log(0.5 * beta), out=t)
    np.exp(t, out=t)
    return log_v, t


def _exponent(v, lam, beta):
    """T = (beta / 2) v^(2 lam), the unit-exponential transform, as
    exp(2 lam ln v + ln(beta / 2)), the form _log_transform takes: T is
    a double wherever it can be, even where v^(2 lam) alone would leave
    the double range.  0 at v = 0."""
    with np.errstate(over="ignore"):
        return np.exp(_log_exponent(v, lam, beta))


def _log_exponent(v, lam, beta):
    """ln T at v, in full precision where T itself is subnormal or 0;
    -inf at v = 0."""
    with np.errstate(divide="ignore"):
        return 2.0 * lam * np.log(v) + np.log(0.5 * beta)


def _log_k_plus_t(v, theta, lam, beta):
    """ln k + T at v > 0: the log density without its -T term."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return math.log(beta * lam / theta) + (2.0 * lam - 1.0) * np.log(v)


def baseline_cdf(x, p: BaselineParams):
    """K(x); 0 at and below -theta."""
    scalar = np.ndim(x) == 0
    _v, t = _transform(x, p.theta, p.lam, p.beta)
    out = -np.expm1(-t)
    return float(out[()]) if scalar else out


def baseline_pdf(x, p: BaselineParams):
    """Density k(x) = (beta lam / theta) v**(2 lam - 1) exp(-T); 0 outside."""
    scalar = np.ndim(x) == 0
    v, t = _transform(x, p.theta, p.lam, p.beta)
    with np.errstate(invalid="ignore"):
        out = np.where(v > 0.0, np.exp(_log_k_plus_t(v, p.theta, p.lam, p.beta) - t), 0.0)
    return float(out[()]) if scalar else out


def _v_at(t, lam, beta):
    """The inverse of _exponent: v at which T takes the value t.  Beyond
    the doubles (small lam) an array gives +inf, under the caller's
    np.errstate, and a Python float raises OverflowError."""
    return ((2.0 / beta) * t) ** (0.5 / lam)


def _quantile_v(prob, p: BaselineParams):
    """v such that K(theta (v - 1)) = prob, for prob in [0, 1)."""
    return _v_at(-np.log1p(-np.asarray(prob, dtype=np.float64)), p.lam, p.beta)


def baseline_quantile(prob, p: BaselineParams):
    """Inverse cdf: theta * (-(2/beta) ln(1-prob))**(1/(2 lam)) - theta.

    prob = 1 maps to +inf; values outside [0, 1] are a domain error.
    """
    scalar = np.ndim(prob) == 0
    pa = np.asarray(prob, dtype=np.float64)
    if pa.size and (np.any(pa < 0.0) or np.any(pa > 1.0) or not np.all(np.isfinite(pa))):
        raise ValueError("baseline_quantile requires prob in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(pa == 1.0, np.inf, p.theta * _quantile_v(pa, p) - p.theta)
    return float(out[()]) if scalar else out


def baseline_moment_series(r: int, p: BaselineParams) -> float:
    """Closed-form r-th raw moment via the binomial/gamma series.

    E[X^r] = sum_h C(r,h) theta^h (2/beta)^(h/(2 lam)) (-theta)^(r-h)
             * Gamma(h/(2 lam) + 1)
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError("moment order r must be a nonnegative integer")
    if r == 0:
        return 1.0
    total = 0.0
    for h in range(int(r) + 1):
        g = math.exp(log_gamma(h / (2.0 * p.lam) + 1.0))
        total += (
            math.comb(int(r), h)
            * p.theta**h
            * (2.0 / p.beta) ** (h / (2.0 * p.lam))
            * (-p.theta) ** (int(r) - h)
            * g
        )
    return total


def baseline_sample(n: int, p: BaselineParams, seed) -> np.ndarray:
    """n inverse-transform draws, deterministic per seed."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("sample size n must be a positive integer")
    rng = np.random.default_rng(seed)
    return baseline_quantile(rng.random(int(n)), p)
