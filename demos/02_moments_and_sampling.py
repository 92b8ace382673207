"""Three independent routes to the same moments.

At a = b = 1 the family equals its baseline, the Weibull law with
shape 2 lam, location -theta and scale theta (2/beta)^(1/(2 lam)), whose
raw moments scipy.stats gives exactly. The general quadrature route and
plain Monte Carlo must then agree with scipy's Weibull moments, which
makes a tidy three-way cross-check. The second half shows the shape summaries
(skewness, excess kurtosis, coefficient of variation) drifting as the
baseline power lam grows.

Run: python3 demos/02_moments_and_sampling.py
"""

import math

import numpy as np
from scipy.stats import weibull_min

from erlfit.core import (
    ErlParams,
    erl_cv,
    erl_kurtosis,
    erl_raw_moment,
    erl_sample,
    erl_skewness,
)


def triangulate(theta, lam, beta, n_draws=200_000, seed=2026):
    p = ErlParams(1.0, 1.0, theta, lam, beta)
    weibull = weibull_min(2.0 * lam, loc=-theta, scale=theta * (2.0 / beta) ** (1.0 / (2.0 * lam)))
    draws = erl_sample(n_draws, p, seed=seed)
    print(f"baseline (theta={theta}, lam={lam}, beta={beta}), {n_draws} draws")
    print("    r      weibull         quadrature      monte carlo     mc std err")
    for r in (1, 2, 3, 4):
        exact = weibull.moment(r)
        quad = erl_raw_moment(r, p)
        powers = draws**r
        mc = powers.mean()
        se = powers.std(ddof=1) / math.sqrt(n_draws)
        flag = "ok" if abs(mc - exact) < 4.0 * se else "OFF"
        print(f"    {r}   {exact:14.8f}  {quad:14.8f}  {mc:14.8f}  {se:10.2e}  {flag}")
    print()


def main():
    print("Weibull vs quadrature vs sampling at a = b = 1")
    print("=" * 60)
    triangulate(1.0, 1.0, 1.0)
    triangulate(2.0, 1.5, 0.7)
    triangulate(0.5, 2.0, 3.0)

    print("Shape summaries as the baseline power lam grows (a=2, b=1.5)")
    print("=" * 60)
    print("    lam    skewness   excess kurtosis   coeff of variation")
    for lam in (0.6, 1.0, 1.5, 2.5, 4.0):
        p = ErlParams(2.0, 1.5, 1.0, lam, 1.0)
        print(
            f"    {lam:4.1f}  {erl_skewness(p):9.4f}  {erl_kurtosis(p):14.4f}"
            f"   {erl_cv(p):14.4f}"
        )
    print()
    print("Larger lam squeezes the upper tail: skewness falls through zero")
    print("and turns negative while the kurtosis settles near the light-")
    print("tailed floor.")


if __name__ == "__main__":
    main()
