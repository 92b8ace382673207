"""Property tests over the family's parameter corners.

a and b range log-uniformly over [1e-3, 1e3] and theta, lam and beta
over [1e-3, 1e2], so theta * lam reaches 1e-6.  Points are placed by
their baseline exponent T = (beta/2) v^(2 lam), log-uniform in
[1e-12, 1e4], which puts them from the support boundary to deep in the
upper tail (T > 745, where exp(-T) underflows) whatever the parameters.
The examples are derandomized and no database is kept, so every run
checks the same cases.  Hypothesis seeds its examples with number
literals it finds in erlfit's own source, so a change to any literal
there changes which cases a property checks; the corner cases that
once failed are pinned as explicit examples, which it always runs.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erlfit.baseline import _v_at
from erlfit.core import ErlParams, erl_cdf, erl_pdf, erl_quantile, erl_survival

EXAMPLES = 200
EPS = np.finfo(float).eps


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


SHAPE = log_uniform(1e-3, 1e3)
SCALE = log_uniform(1e-3, 1e2)
PARAMS = st.builds(ErlParams, SHAPE, SHAPE, SCALE, SCALE, SCALE)
EXPONENTS = st.lists(log_uniform(1e-12, 1e4), min_size=1, max_size=8)
# probabilities down to 1e-300 on either side of 1/2
TAIL = log_uniform(1e-300, 0.5)
PROBS = st.lists(st.one_of(TAIL, TAIL.map(lambda q: 1.0 - q)), min_size=1, max_size=8)

PROPERTY = settings(derandomize=True, database=None, max_examples=EXAMPLES, deadline=None)

# test_core's lam = 148 point, where v^(2 lam) leaves the doubles long
# before T does, at both ends of the exponent range
HIGH_POWER_POINT = ErlParams(0.5, 881078.3, 0.93076, 147.99, 9.1647e7)
AT_HIGH_POWER = example(HIGH_POWER_POINT, [1e-12, 1e4])


def points(p: ErlParams, exponents) -> np.ndarray:
    """Sorted x at the given baseline exponents T."""
    t = np.sort(np.asarray(exponents))
    with np.errstate(over="ignore"):
        return p.theta * _v_at(t, p.lam, p.beta) - p.theta


@PROPERTY
@given(PARAMS, EXPONENTS)
@AT_HIGH_POWER
def test_cdf_and_survival_lie_in_unit_interval(p, exponents):
    x = points(p, exponents)
    cdf, surv = erl_cdf(x, p), erl_survival(x, p)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all((surv >= 0.0) & (surv <= 1.0))


@PROPERTY
@given(PARAMS, EXPONENTS)
@AT_HIGH_POWER
def test_pdf_is_nonnegative(p, exponents):
    assert np.all(erl_pdf(points(p, exponents), p) >= 0.0)


@PROPERTY
@given(PARAMS, EXPONENTS)
@AT_HIGH_POWER
def test_cdf_plus_survival_is_one(p, exponents):
    x = points(p, exponents)
    assert np.all(np.abs(erl_cdf(x, p) + erl_survival(x, p) - 1.0) <= 1e-10)


@PROPERTY
@given(PARAMS, EXPONENTS)
@AT_HIGH_POWER
def test_cdf_does_not_decrease(p, exponents):
    assert np.all(np.diff(erl_cdf(points(p, exponents), p)) >= 0.0)


@PROPERTY
@given(PARAMS, PROBS)
# a large lam at small a, and T ~ 1e-320 in the subnormals
@example(ErlParams(0.01, 5.0, 1.0, 100.0, 1.0), [1e-4])
@example(ErlParams(math.exp(-1.0), 1.0, 1.0, math.exp(3.0), 1.0), [math.exp(-271.0)])
# K^a below the doubles at a = 209.7, where betainc loses I_K(a, b)
@example(ErlParams(209.7, 39.7, 0.01265, 18.74, 0.001227), [3.7e-284])
def test_cdf_inverts_quantile(p, probs):
    prob = np.asarray(probs)
    x = erl_quantile(prob, p)
    keep = np.isfinite(x) & (x > -p.theta)
    prob, x = prob[keep], x[keep]
    # the cdf at x's rounding neighbourhood brackets p: x = theta v - theta
    # and the cdf's v = (theta + x) / theta each round once, and near 1
    # the cdf itself is good to an ulp
    h = 4.0 * EPS * (np.abs(x) + p.theta)
    tol = 1e-9 * np.minimum(prob, 1.0 - prob) + 2.0 * EPS * prob
    assert np.all(erl_cdf(x - h, p) <= prob + tol)
    assert np.all(erl_cdf(x + h, p) >= prob - tol)
