"""Empirical moments, EDF statistics and information criteria.

Sample moments use the population convention (divide by n).  Note the
deliberate asymmetry against the distribution side: sample_kurtosis is
raw m4/m2^2 while erl_kurtosis is excess; both docstrings carry the
warning so the two are never compared blind.

The Kolmogorov-Smirnov p-value is the classical asymptotic law,
evaluated by scipy.special.kolmogorov; it is not cut to 0 where it is
small.  Anderson-Darling and Cramer-von Mises are reported as bare
statistics without p-values: their null distributions depend on the
estimated-parameter situation and no trustworthy closed form is pinned
down here, so none is invented.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import kolmogorov

from .estimation import Dataset
from .specfun import _integer

_AD_CLAMP_LO = 1e-300
_AD_CLAMP_HI = 1.0 - 1e-16


def _standardized_moment(data: Dataset, r: int) -> float:
    """m_r / m2^(r/2) with population (1/n) central moments; NaN below
    two points or where m2 is 0."""
    x = data.values
    if x.size < 2:
        return math.nan
    d = x - x.mean()
    m2 = float(np.mean(d**2))
    if m2 <= 0.0:
        return math.nan
    return float(np.mean(d**r)) / m2 ** (r / 2)


def sample_skewness(data: Dataset) -> float:
    """m3 / m2^(3/2) with population (1/n) moments; NaN if degenerate."""
    return _standardized_moment(data, 3)


def sample_kurtosis(data: Dataset) -> float:
    """Raw kurtosis m4 / m2^2 (NOT excess; Gaussian draws give ~3)."""
    return _standardized_moment(data, 4)


def _fitted_probs(data: Dataset, cdf: Callable) -> np.ndarray:
    z = np.asarray(cdf(data.values), dtype=np.float64)
    if z.shape != data.values.shape or not np.all(np.isfinite(z)):
        raise ValueError("cdf callable must map the data to finite probabilities")
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("cdf callable produced values outside [0, 1]")
    return z


def _ks(z: np.ndarray) -> float:
    n = z.size
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - z)
    d_minus = np.max(z - (i - 1) / n)
    return float(max(d_plus, d_minus))


def _cvm(z: np.ndarray) -> float:
    n = z.size
    i = np.arange(1, n + 1)
    return float(1.0 / (12.0 * n) + np.sum((z - (2.0 * i - 1.0) / (2.0 * n)) ** 2))


def _ad(z: np.ndarray) -> float:
    clipped = np.clip(z, _AD_CLAMP_LO, _AD_CLAMP_HI)
    if np.any(clipped != z):
        message = "gof_report: fitted cdf hit 0 or 1 at observed points; probabilities clamped"
        warnings.warn(message, RuntimeWarning, stacklevel=3)  # the caller of gof_report
    n = z.size
    i = np.arange(1, n + 1)
    return float(
        -n - np.sum((2.0 * i - 1.0) * (np.log(clipped) + np.log1p(-clipped[::-1]))) / n
    )


def ks_pvalue(d: float, n: int) -> float:
    """Asymptotic KS p-value 2 sum_j (-1)^(j-1) exp(-2 j^2 n d^2), the
    Kolmogorov survival function at sqrt(n) d (scipy.special.kolmogorov).
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("ks_pvalue requires d in [0, 1]")
    n = _integer(n, 1, "ks_pvalue requires an integer n >= 1")
    return float(kolmogorov(math.sqrt(n) * d))


@dataclass(frozen=True)
class GofReport:
    """EDF statistics of one fitted (or fixed) law against one sample."""

    n: int
    ks: float
    ks_pvalue: float
    cvm: float
    ad: float


def gof_report(data: Dataset, cdf: Callable) -> GofReport:
    """KS, its p-value, CvM and AD from one evaluation of cdf at the data.

    KS is D = sup |F_n - F|, CvM W^2 = 1/(12n) + sum (F(x_(i)) - (2i-1)/(2n))^2
    and AD A^2 with F clamped to [1e-300, 1 - 1e-16] before the logs; a clamp
    warns (RuntimeWarning), as the law then holds an observed point impossible.
    """
    z = _fitted_probs(data, cdf)
    d = _ks(z)
    return GofReport(n=data.n, ks=d, ks_pvalue=ks_pvalue(d, data.n), cvm=_cvm(z), ad=_ad(z))


@dataclass(frozen=True)
class CriteriaReport:
    """Information criteria for a fit with nll, k parameters, n points."""

    nll: float
    k: int
    n: int
    aic: float
    caic: float
    hqic: float
    bic: float


def info_criteria(nll: float, k: int, n: int) -> CriteriaReport:
    """AIC / CAIC / HQIC / BIC from a negative log-likelihood.

    CAIC here is the small-sample corrected form
    AIC + 2k(k+1)/(n-k-1); it is NaN when n <= k+1 (the correction's
    denominator would be zero or negative).
    """
    k = _integer(k, 0, "info_criteria requires an integer k >= 0")
    n = _integer(n, 1, "info_criteria requires an integer n >= 1")
    aic = 2.0 * nll + 2.0 * k
    bic = 2.0 * nll + k * math.log(n)
    if k == 0:
        hqic = 2.0 * nll
    elif n == 1:
        hqic = math.nan
    else:
        hqic = 2.0 * nll + 2.0 * k * math.log(math.log(n))
    if n <= k + 1:
        caic = math.nan
    else:
        caic = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)
    return CriteriaReport(nll=nll, k=k, n=n, aic=aic, caic=caic, hqic=hqic, bic=bic)
