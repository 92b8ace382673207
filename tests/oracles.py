"""Reference code that only the tests read.

normalization_check integrates the implemented density over the support
(acceptance criterion 2), baseline_moment_series is the baseline's
closed-form moment series (criterion 5), and REPORT_SCHEMA is the
documented shape of the fit and compare reports.  None of them is part
of erlfit: no program path runs them.  Test modules import them as
`from oracles import ...`, which works because pytest puts this
directory on sys.path.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from erlfit.baseline import _log1mexp, _log_exponent, _v_at
from erlfit.core import ErlParams, _log_density
from erlfit.errors import NumericalError
from erlfit.specfun import _integer, _log_beta

# documented shape of fit/compare reports (JSON Schema draft 2020-12)
REPORT_SCHEMA = {
    "type": "object",
    "required": ["data_summary", "models", "selected"],
    "properties": {
        "data_summary": {
            "type": "object",
            "required": ["n", "min", "max", "skewness", "kurtosis"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "min": {"type": "number"},
                "max": {"type": "number"},
                "skewness": {"type": ["number", "null"]},
                "kurtosis": {"type": ["number", "null"]},
            },
        },
        "models": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "name", "estimates", "fixed", "se",
                    "nll", "aic", "caic", "hqic", "bic", "converged",
                    "ks", "ks_pvalue", "cvm", "ad",
                ],
                "properties": {
                    "name": {"type": "string"},
                    "estimates": {
                        "type": "object",
                        "additionalProperties": {"type": "number"},
                    },
                    "fixed": {
                        "type": "object",
                        "additionalProperties": {"type": "number"},
                    },
                    "se": {
                        "type": "object",
                        "additionalProperties": {"type": ["number", "null"]},
                    },
                    "nll": {"type": "number"},
                    "aic": {"type": "number"},
                    "caic": {"type": ["number", "null"]},
                    "hqic": {"type": "number"},
                    "bic": {"type": "number"},
                    "converged": {"type": "boolean"},
                    "ks": {"type": "number"},
                    "ks_pvalue": {"type": "number"},
                    "cvm": {"type": "number"},
                    "ad": {"type": "number"},
                },
            },
        },
        "selected": {"type": "string"},
    },
}


def normalization_check(p: ErlParams) -> float:
    """Integrate the implemented density over the support; should be 1.

    Uses the substitution u = K(x): the integrand erl_pdf(x(u)) / k(x(u))
    equals u^(a-1) (1-u)^(b-1) / B(a,b) when the density chain is
    consistent, so the integral is evaluated with QUADPACK's
    algebraic-weight rule, which absorbs the a < 1 / b < 1 endpoint
    singularities exactly.  The density is evaluated at v taken straight
    from the quantile transform (not reconstructed from a rounded x,
    which is unresolvable within one ulp of -theta for small theta*lam).
    _log_transform starts from x, so the check forms T from that v's ln v
    through _log_exponent and its ln K = ln(1 - e^-T) through _log1mexp.
    """
    a, b = p.a, p.b
    lnb = _log_beta(a, b)

    def smooth_part(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            # 0/0 at the support ends; the continuous extension is 1/B(a,b)
            return math.exp(-lnb)
        with np.errstate(divide="ignore"):
            log_v = np.log(_v_at(-np.log1p(-u), p.lam, p.beta))
        t = float(np.exp(_log_exponent(log_v, p.lam, p.beta)))
        log_g = float(_log_density(log_v, t, _log1mexp(t), *p.values()))
        with np.errstate(invalid="ignore"):
            log_k_plus_t = math.log(p.beta * p.lam / p.theta) + (2.0 * p.lam - 1.0) * log_v
        log_k = float(log_k_plus_t) - t
        return math.exp(
            log_g - log_k - (a - 1.0) * math.log(u) - (b - 1.0) * math.log1p(-u)
        )

    value, _err = integrate.quad(
        smooth_part,
        0.0,
        1.0,
        weight="alg",
        wvar=(a - 1.0, b - 1.0),
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return float(value)


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
            g = math.exp(gammaln(h / (2.0 * p.lam) + 1.0))
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
