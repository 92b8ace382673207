"""The five-parameter extended Rayleigh-Lomax family.

The law is the beta-generated lift of the Rayleigh-Lomax baseline, a
Weibull law (see baseline), so it is the beta-Weibull law with location
-theta: with K and k the baseline cdf/pdf and B(a, b) the beta function,

    g(x) = K(x)**(a-1) * (1 - K(x))**(b-1) * k(x) / B(a, b)
    G(x) = I_{K(x)}(a, b)

on the support x > -theta.  The pdf, cdf and survival take ln v, T and
ln K, with v = (theta + x)/theta, T = (beta/2) v^(2 lam) and
K = 1 - e^-T, from baseline._log_transform, as the likelihood kernel in
estimation does.  Densities are assembled in log space, on float
parameters.  The cdf and the survival each come from the incomplete
beta or its complement, from K below the median of K and from
1 - K = exp(-T) above it, so neither suffers the cancellation of one
minus the other.  The quantile inverts I_K(a, b) for K below
I_{1/2}(a, b) and the complementary I_{1-K}(b, a) above it, so
T = -ln(1 - K) stays finite after K itself would round to 1.  Where a
double can no longer hold 1 - K (T > 700) or K (K < 1e-300), the
survival and the quantile use the leading term of the incomplete beta,
(1-K)^b / (b B(a, b)) or K^a / (a B(a, b)), in log space.

Raw moments are adaptive QUADPACK quadrature (Piessens et al., 1983,
through scipy.integrate.quad) of the quantile representation

    E[X^r] = (1/B(a,b)) * int_0^1 Q(y)^r y^(a-1) (1-y)^(b-1) dy

split at the median of K, where _tail splits too.  Below it the
variable is y = K, with the y^(a-1) singularity of a < 1 taken by the
algebraic weight of QAWS; above it the variable is T = -ln(1 - y) on
(ln 2, inf), where the integrand theta^r (v-1)^r (1-e^(-T))^(a-1)
e^(-b T) is exponentially damped and (1-y)^(b-1) leaves no endpoint
singularity even for b < 1.  A QUADPACK failure, a non-finite sum or an
integrand beyond the doubles raises NumericalError instead of returning
a silently wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .baseline import (
    BaselineParams,
    _log1mexp,
    _log_exponent,
    _log_k_plus_t,
    _log_transform,
    _quantile_v,
    _v_at,
)
from .errors import NumericalError
from .specfun import _log_beta, _on_blocks, _result, inv_reg_inc_beta, reg_inc_beta

# a double holds neither 1 - K = e^-T above T = _DEEP_T nor K below T = _TINY_T
_DEEP_T, _TINY_T = 700.0, 1e-300
# betainc loses I_K(a, b) once a ln K falls below _FAR_LOG_POWER (see _far_t)
_FAR_LOG_POWER = -700.0


@dataclass(frozen=True)
class ErlParams:
    """Shape pair (a, b) over a Rayleigh-Lomax baseline."""

    a: float
    b: float
    base: BaselineParams

    def __post_init__(self):
        for name in ("a", "b"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"ErlParams.{name} must be a finite positive number")

    @classmethod
    def from_values(cls, a, b, theta, lam, beta) -> "ErlParams":
        return cls(a=a, b=b, base=BaselineParams(theta=theta, lam=lam, beta=beta))

    def values(self) -> tuple[float, float, float, float, float]:
        """(a, b, theta, lam, beta)."""
        return (self.a, self.b, self.base.theta, self.base.lam, self.base.beta)


def _log_density(log_v, t, log_k, a, b, theta, lam, beta):
    """ln g from the transform (ln v, T, ln K) of x inside the support,
    for float parameters, grouped so the tail exponent -b*T forms before
    any inf products can appear."""
    with np.errstate(invalid="ignore"):
        return (a - 1.0) * log_k + _log_k_plus_t(log_v, theta, lam, beta) - b * t - _log_beta(a, b)


def erl_pdf(x, p: ErlParams):
    """Density g(x); 0 at and outside the support boundary, and where
    v = (theta + x)/theta overflows (ln v = +inf would give inf - inf)."""
    log_v, t, log_k = _log_transform(x, p.base.theta, p.base.lam, p.base.beta)
    with np.errstate(over="ignore"):
        out = np.where(np.isfinite(log_v), np.exp(_log_density(log_v, t, log_k, *p.values())), 0.0)
    return _result(out)


def erl_cdf(x, p: ErlParams):
    """G(x) = I_{K(x)}(a, b), in full relative precision (see _tail)."""
    return _result(_tail(x, p, survival=False))


def erl_survival(x, p: ErlParams):
    """1 - G(x) = I_{1-K(x)}(b, a), in full relative precision (see _tail)."""
    return _result(_tail(x, p, survival=True))


def _tail(x, p: ErlParams, survival: bool) -> np.ndarray:
    """G, or with survival 1 - G, at x, from the transform's ln v, T and
    ln K, where K = 1 - exp(-T).

    Each side comes from the regularized incomplete beta or from its
    complement betaincc, whichever gives it without cancellation.  Up to
    the median of K they take K: G = I_K(a, b) and 1 - G = I^c_K(a, b).
    Above it they take 1 - K = exp(-T), which keeps full relative
    precision after K has rounded to 1: G = I^c_{1-K}(b, a) and
    1 - G = I_{1-K}(b, a).  exp(-T) underflows from T = 745 on while the
    survival can still be large at small b; from T = 700 on the survival
    is the leading term (1-K)^b / (b B(a, b)) = exp(-bT - ln b - ln B(a, b))
    in doubles, and G = 1 - survival.  Below T = 1e-300, K = T loses its
    digits to the subnormals; there G is the leading term K^a / (a B(a, b))
    = exp(a ln T - ln a - ln B(a, b)), with ln T taken from ln v.  Below
    _far_t, where betainc loses G, G comes from _log_lower_tail at ln K;
    the survival there stays betaincc's.
    """
    log_v, t, log_k = _log_transform(x, p.base.theta, p.base.lam, p.base.beta)
    big_k = -np.expm1(-t)
    tiny = t < _TINY_T
    lower = (big_k <= 0.5) & ~tiny
    deep = t > _DEEP_T
    upper = ~(lower | deep | tiny)
    of_k, of_one_minus_k = special.betainc, special.betaincc
    if survival:
        of_k, of_one_minus_k = of_one_minus_k, of_k
    out = np.empty(t.shape)
    out[lower] = of_k(p.a, p.b, big_k[lower])
    out[upper] = of_one_minus_k(p.b, p.a, np.exp(-t[upper]))
    log_b = _log_beta(p.a, p.b)
    deep_survival = np.exp(-(p.b * t[deep] + math.log(p.b) + log_b))
    out[deep] = deep_survival if survival else 1.0 - deep_survival
    log_t = _log_exponent(log_v[tiny], p.base.lam, p.base.beta)
    tiny_cdf = np.exp(p.a * log_t - math.log(p.a) - log_b)
    out[tiny] = 1.0 - tiny_cdf if survival else tiny_cdf
    if not survival:
        far = lower & (t < _far_t(p.a, p.b))
        if far.any():
            out[far] = np.exp(_log_lower_tail(log_k[far], p.a, p.b, log_b))
    return out


def _far_t(a: float, b: float) -> float:
    """T below which I_K(a, b) comes from _log_lower_tail.  There K^a is
    below e^_FAR_LOG_POWER, where scipy's betainc loses I_K even while a
    double still holds it (0.0 against 1.3e-284 at a = 209.7, b = 39.7,
    K = 0.027, and 1.4% off at a = 1000, b = 30, K = 0.486).  K also lies
    below 1/2 and below 3/4 of (a + 1)/(a + b), so the series' terms fall
    by at least 3/4 each; above that bound betainc was within 1e-12 of
    mpmath wherever a ln K < -700, up to a = 1e5."""
    return -math.log1p(-min(math.exp(_FAR_LOG_POWER / a), 0.75 * (a + 1.0) / (a + b), 0.5))


def _log_lower_tail(log_k, a: float, b: float, log_b: float) -> np.ndarray:
    """ln I_K(a, b) at ln K below _far_t, by DLMF 8.17.8:

        I_K(a, b) = K^a (1-K)^b / (a B(a, b)) 2F1(a+b, 1; a+1; K)

    whose prefactor stays in logs.  The series' terms are positive, and
    each is the last times K (a+b+n) / (a+1+n) <= 3/4.  It is summed
    here: scipy's hyp2f1 misses by 12% at (a, b, K) = (1000, 39.7, 0.447).
    """
    k = np.exp(log_k)
    term = np.ones_like(k)
    total = np.ones_like(k)
    n = 0
    while np.any(term > 1e-17 * total):
        term *= k * ((a + b + n) / (a + 1.0 + n))
        total += term
        n += 1
    return a * log_k + b * np.log1p(-k) - math.log(a) - log_b + np.log(total)


def _far_log_k(log_p, a: float, b: float, log_b: float) -> np.ndarray:
    """ln K at which I_K(a, b) = p below _far_t: Newton on ln I as a
    function of ln K, whose slope is K^a (1-K)^(b-1) / (B(a, b) I), from
    the leading term's root (ln p + ln a + ln B(a, b)) / a.  With the
    root anywhere below _far_t, for a from 1.01 to 1e7 and b from 1e-3
    to 1e9, 6 steps brought ln I within 1e-13 relative of ln p."""
    log_k = (log_p + math.log(a) + log_b) / a
    for _ in range(16):
        log_i = _log_lower_tail(log_k, a, b, log_b)
        slope = np.exp(a * log_k + (b - 1.0) * np.log1p(-np.exp(log_k)) - log_b - log_i)
        log_k = log_k - (log_i - log_p) / slope
    return log_k


def _ratio(dens, tail):
    """dens / tail, the hazard pair's form; +inf where the tail is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _result(np.where(tail > 0.0, np.divide(dens, tail), np.inf))


def erl_hazard(x, p: ErlParams):
    """g / (1 - G); +inf where the survival function has hit 0."""
    return _ratio(erl_pdf(x, p), erl_survival(x, p))


def erl_reversed_hazard(x, p: ErlParams):
    """g / G; +inf where the cdf is still 0."""
    return _ratio(erl_pdf(x, p), erl_cdf(x, p))


def erl_quantile(prob, p: ErlParams):
    """Inverse cdf: the baseline quantile at K = I^{-1}_prob(a, b).

    Above I_{1/2}(a, b) the complementary inverse gives 1 - K, and
    T = -ln(1 - K) from it: K itself rounds to 1 there once b is small,
    which would send finite quantiles to +inf.
    """
    pa = np.asarray(prob, dtype=np.float64)
    if pa.size and (np.any(pa < 0.0) or np.any(pa > 1.0) or not np.all(np.isfinite(pa))):
        raise ValueError("erl_quantile requires prob in [0, 1]")
    upper = pa > reg_inc_beta(0.5, p.a, p.b)
    t = np.empty_like(pa)
    log_b = _log_beta(p.a, p.b)
    with np.errstate(divide="ignore", over="ignore"):
        t[~upper] = -np.log1p(-inv_reg_inc_beta(pa[~upper], p.a, p.b))
        t[upper] = -np.log(_on_blocks(special.betainccinv, p.b, p.a, pa[upper]))
        # betainccinv stops at the smallest normal double (T = 708.4) once
        # 1 - K underflows; from T = 700 on, I_{1-K}(b, a) equals
        # (1-K)^b / (b B(a, b)) in doubles, which solves for T directly
        deep = t > _DEEP_T
        t[deep] = -(np.log1p(-pa[deep]) + math.log(p.b) + log_b) / p.b
        # betaincinv likewise stops at 2.2e-308 once K underflows; below
        # 1e-300, I_K(a, b) = K^a / (a B(a, b)) and T = K in doubles, so
        # v = (2 T / beta)^(1 / (2 lam)) comes from ln K without forming K
        tiny = t < _TINY_T
        # betaincinv inverts betainc, which misses below _far_t
        far = (t < _far_t(p.a, p.b)) & ~tiny
        if far.any():
            t[far] = -np.log1p(-np.exp(_far_log_k(np.log(pa[far]), p.a, p.b, log_b)))
        v = np.asarray(_v_at(t, p.base.lam, p.base.beta))
        log_t = (np.log(pa[tiny]) + math.log(p.a) + log_b) / p.a
    v[tiny] = np.exp((math.log(2.0 / p.base.beta) + log_t) / (2.0 * p.base.lam))
    # x = theta v - theta in place: erl_sample holds n-sized arrays here
    v *= p.base.theta
    v -= p.base.theta
    return _result(v)


def erl_sample(n: int, p: ErlParams, seed) -> np.ndarray:
    """n draws by the double inverse transform, deterministic per seed."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("sample size n must be a positive integer")
    return erl_quantile(np.random.default_rng(seed).random(int(n)), p)


def erl_raw_moment(r: int, p: ErlParams) -> float:
    """r-th raw moment E[X^r] by adaptive quadrature (see the module
    docstring), asking QUADPACK for 1e-10 relative error in each half.

    Raises NumericalError where QUADPACK reports that it failed, where
    the integrand overflows a double (at a moment too large for one), or
    where the sum is not finite.
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError("moment order r must be a nonnegative integer")
    r = int(r)
    if r == 0:
        return 1.0
    a, b, theta, lam, beta = p.values()
    lnb = _log_beta(a, b)
    # the weight takes y^(a-1) only where it is singular: for large a its
    # moments lose accuracy unflagged (1e-3 at a = 69, b = 200)
    alpha = min(a, 1.0) - 1.0

    def term(t, log_weight):
        # x^r exp(log_weight) / B(a, b) at T = t, in floats, whose ** and
        # math.exp raise OverflowError
        return (theta * (_v_at(t, lam, beta) - 1.0)) ** r * math.exp(log_weight - lnb)

    def lower(y):
        if y == 0.0:
            # QAWS evaluates the end point, where y^(a-1-alpha) is 0 for a > 1
            return 0.0 if a > 1.0 else term(0.0, 0.0)
        return term(-math.log1p(-y), (a - 1.0 - alpha) * math.log(y) + (b - 1.0) * math.log1p(-y))

    def upper(t):
        return term(t, (a - 1.0) * _log1mexp(t) - b * t)

    quad_args = {"epsabs": 0.0, "epsrel": 1e-10, "limit": 500, "full_output": 1}
    try:
        halves = (
            integrate.quad(lower, 0.0, 0.5, weight="alg", wvar=(alpha, 0.0), **quad_args),
            integrate.quad(upper, math.log(2.0), math.inf, **quad_args),
        )
    except OverflowError:
        raise NumericalError(f"raw moment r={r}: the integrand overflows a double") from None
    for half in halves:
        # full_output appends QUADPACK's message when it reports a failure
        if len(half) > 3:
            raise NumericalError(f"raw moment r={r}: QUADPACK: {half[3].splitlines()[0]}")
    total = halves[0][0] + halves[1][0]
    if not math.isfinite(total):
        raise NumericalError(f"raw moment r={r}: quadrature gave {total}")
    return total


def central_from_raw(raw) -> tuple[float, float, float, float]:
    """(mean, mu2, mu3, mu4) from the raw moments (m1, m2, m3, m4)."""
    m1, m2, m3, m4 = raw
    mu2 = m2 - m1**2
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
    return (m1, mu2, mu3, mu4)


def erl_central_moments(p: ErlParams) -> tuple[float, float, float, float]:
    """(mean, mu2, mu3, mu4) from the first four raw moments."""
    return central_from_raw([erl_raw_moment(r, p) for r in (1, 2, 3, 4)])


def shape_summaries(central) -> tuple[float, float, float]:
    """(skewness, excess kurtosis, cv) from (mean, mu2, mu3, mu4).

    Skewness mu3 / mu2^(3/2) and excess kurtosis mu4 / mu2^2 - 3 are
    NaN if the variance degenerates to 0; the coefficient of variation
    sqrt(mu2) / mean is NaN when the variance is negative or the mean 0.
    """
    mean, mu2, mu3, mu4 = central
    if mu2 <= 0.0:
        skewness = kurtosis = math.nan
    else:
        skewness = mu3 / mu2**1.5
        kurtosis = mu4 / mu2**2 - 3.0
    if mu2 < 0.0 or abs(mean) <= 1e-12 * max(1.0, math.sqrt(max(mu2, 0.0))):
        cv = math.nan
    else:
        cv = math.sqrt(mu2) / mean
    return (skewness, kurtosis, cv)


def erl_skewness(p: ErlParams) -> float:
    """mu3 / mu2^(3/2); NaN if the variance degenerates to 0."""
    return shape_summaries(erl_central_moments(p))[0]


def erl_kurtosis(p: ErlParams) -> float:
    """Excess kurtosis mu4 / mu2^2 - 3; NaN if the variance is 0.

    Note the convention split: this is excess, while the empirical
    sample_kurtosis in the gof module is raw (m4 / m2^2).
    """
    return shape_summaries(erl_central_moments(p))[1]


def erl_cv(p: ErlParams) -> float:
    """Coefficient of variation sqrt(mu2) / mean; NaN when the mean is 0."""
    return shape_summaries(erl_central_moments(p))[2]


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
            log_v = np.log(_quantile_v(u, p.base))
        t = float(np.exp(_log_exponent(log_v, p.base.lam, p.base.beta)))
        log_g = float(_log_density(log_v, t, _log1mexp(t), *p.values()))
        log_k = float(_log_k_plus_t(log_v, p.base.theta, p.base.lam, p.base.beta)) - t
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
