"""Special functions underpinning the beta link.

log-gamma, the log-beta function, the regularized incomplete beta
function and its inverse.  Everything accepts scalars or arrays and
broadcasts; scalar input gives a Python float back.  Each function
checks its domain and raises ValueError outside it.  The package calls
the float kernel _log_beta; the public log_beta has no caller and stays
because the traced benchmark (perfbench/tracing.py) wraps it by name.

log_gamma, reg_inc_beta and inv_reg_inc_beta are scipy.special's
gammaln, betainc and betaincinv.  log_beta stays in-house: scipy's
betaln misses 1e-13 relative against mpmath when one argument is large
and the other small (6e-12 at a = 0.23, b = 612), and there the
three-log-gamma form cancels catastrophically (ln G(1e16) ~ 1e17 while
ln B itself is moderate).  So for max(a, b) >= 13 it uses the Stirling
difference ln G(hi) - ln G(hi+lo) expanded in log1p(lo/hi).

The inverse incomplete beta is the main cost of sampling, at about
1.7 us per value.  From 2 * _MIN_BLOCK values on, _on_blocks cuts it
into contiguous blocks, one per available CPU, and evaluates them on
threads (scipy's ufuncs release the GIL).  Each value still comes from
the same scalar ufunc loop, so results do not depend on the CPU count.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os

import numpy as np
from scipy import special

# Stirling series: ln G(x) ~ (x-1/2) ln x - x + ln sqrt(2 pi)
#                            + sum_k B_{2k} / (2k (2k-1) x^{2k-1}),
# taken to k = 7 in _stirling_tail
_STIRLING_CUT = 13.0

# Measured on a 2-core x86-64 machine: one executor round trip costs
# about 260 us and the inverse incomplete beta 1.6-1.9 us per value, so
# a block of 8192 values (13-16 ms of work) pays for its thread many
# times over.
_MIN_BLOCK = 8192


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_blocks(ufunc, *args):
    """ufunc(*args), evaluated in min(CPUs, size // _MIN_BLOCK) contiguous
    blocks of the broadcast arguments: block 0 on the calling thread, the
    others on worker threads, each writing its slice of one float64
    result.  Below two blocks it is the one direct call.

    Workers run in a copy of the caller's context, which carries numpy's
    errstate from numpy 2.0 on (numpy 1.x keeps it per thread, hence the
    numpy>=2.0 floor); every worker's exception reaches the caller.
    """
    arrays = np.broadcast_arrays(*args)
    size = arrays[0].size
    blocks = min(_cpu_count(), size // _MIN_BLOCK)
    if blocks < 2:
        return ufunc(*args)
    # imported on first use: its modules cost about 40 KB of resident
    # memory in every process, and fitting never reaches two blocks
    from concurrent.futures import ThreadPoolExecutor

    flat = [a.reshape(-1) for a in arrays]
    out = np.empty(size, dtype=np.float64)
    cuts = [size * i // blocks for i in range(blocks + 1)]

    def run(i):
        lo, hi = cuts[i], cuts[i + 1]
        ufunc(*(a[lo:hi] for a in flat), out=out[lo:hi])

    with ThreadPoolExecutor(blocks - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, i) for i in range(1, blocks)]
        run(0)
        for future in futures:
            future.result()
    return out.reshape(arrays[0].shape)


def _promote(*args):
    """The arguments broadcast as float64 arrays."""
    return np.broadcast_arrays(*[np.asarray(a, dtype=np.float64) for a in args])


def _result(out):
    """What a public elementwise function returns for out: a Python float
    where out is 0-d, else out.  out takes the broadcast shape of the
    inputs, so it is 0-d exactly when every input was a scalar."""
    return float(out) if np.ndim(out) == 0 else out


def _integer(value, least: int, message: str) -> int:
    """value as an int if it is a numbers.Integral other than a bool and
    at least least, else ValueError(message): the rule for every count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(message)
    return int(value)


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    (xa,) = _promote(x)
    if xa.size and (not np.all(np.isfinite(xa)) or np.any(xa <= 0.0)):
        raise ValueError("log_gamma requires finite x > 0")
    return _result(special.gammaln(xa))


def _stirling_tail(y: float) -> float:
    """Stirling correction S(y) with ln G(y) = (y-1/2) ln y - y + ln sqrt(2 pi) + S(y)."""
    inv = 1.0 / y
    inv2 = inv * inv
    # Horner in 1/y^2, highest coefficient first
    s = (1.0 / 156.0) * inv2 - 691.0 / 360360.0
    s = s * inv2 + 1.0 / 1188.0
    s = s * inv2 - 1.0 / 1680.0
    s = s * inv2 + 1.0 / 1260.0
    s = s * inv2 - 1.0 / 360.0
    return (s * inv2 + 1.0 / 12.0) / y


def _log_beta(a: float, b: float) -> float:
    lo, hi = (a, b) if a <= b else (b, a)
    if hi < _STIRLING_CUT:
        return math.lgamma(lo) + math.lgamma(hi) - math.lgamma(lo + hi)
    return (
        math.lgamma(lo)
        - (hi - 0.5) * math.log1p(lo / hi)
        - lo * math.log(hi + lo)
        + lo
        + _stirling_tail(hi)
        - _stirling_tail(hi + lo)
    )


def log_beta(a, b):
    """ln B(a, b) for a, b > 0 (see the module docstring for the method)."""
    aa, ba = _promote(a, b)
    if aa.size and not (np.all(aa > 0.0) and np.all(ba > 0.0)):
        raise ValueError("log_beta requires a > 0 and b > 0")
    out = np.fromiter(map(_log_beta, aa.ravel().tolist(), ba.ravel().tolist()), np.float64, aa.size)
    return _result(out.reshape(aa.shape))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b); exact at x = 0 and 1."""
    xa, aa, ba = _promote(x, a, b)
    if xa.size:
        if np.any(aa <= 0.0) or np.any(ba <= 0.0):
            raise ValueError("reg_inc_beta requires a > 0 and b > 0")
        if np.any(xa < 0.0) or np.any(xa > 1.0) or not np.all(np.isfinite(xa)):
            raise ValueError("reg_inc_beta requires x in [0, 1]")
    return _result(special.betainc(aa, ba, xa))


def inv_reg_inc_beta(prob, a, b):
    """Inverse of I_x(a, b) in x for prob in [0, 1]; endpoints map exactly."""
    pa, aa, ba = _promote(prob, a, b)
    if pa.size:
        if np.any(aa <= 0.0) or np.any(ba <= 0.0):
            raise ValueError("inv_reg_inc_beta requires a > 0 and b > 0")
        if np.any(pa < 0.0) or np.any(pa > 1.0) or not np.all(np.isfinite(pa)):
            raise ValueError("inv_reg_inc_beta requires prob in [0, 1]")
    return _result(_on_blocks(special.betaincinv, aa, ba, pa))
