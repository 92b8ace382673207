"""Tests for the five-parameter family core.

Hand-checkable anchors: at a=b=1 the family is the parent law, and at
theta=1, lambda=0.5, beta=2 the parent is a unit exponential shifted to
start at -1.  At a=2, b=1 the density is 2 K k, which at x=0 evaluates
to 2(1/e - 1/e^2) by hand.  Quadrature and Monte Carlo supply the
remaining oracles.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, betaincinv, betaln
from scipy.stats import exponweib, weibull_min

from erlfit import specfun
from erlfit.baseline import BaselineParams, _v_at, baseline_moment_series
from erlfit.core import (
    ErlParams,
    erl_cdf,
    erl_central_moments,
    erl_cv,
    erl_hazard,
    erl_kurtosis,
    erl_pdf,
    erl_quantile,
    erl_raw_moment,
    erl_reversed_hazard,
    erl_sample,
    erl_skewness,
    erl_survival,
    normalization_check,
)
from erlfit.datasets import SYNTHETIC_PARAMS
from erlfit.errors import NumericalError

EXP_BASE = BaselineParams(theta=1.0, lam=0.5, beta=2.0)
EXP_POINT = ErlParams(1.0, 1.0, EXP_BASE)
# EXP_BASE as scipy's Weibull law: shape 2 lam = 1, location -theta
EXP_WEIBULL = weibull_min(1.0, loc=-1.0, scale=1.0)
POWER_POINT = ErlParams(2.0, 1.0, EXP_BASE)

# hand values at x=0 for the anchors above
K0 = 1.0 - math.exp(-1.0)
k0 = math.exp(-1.0)

MIXED_SETS = [
    ErlParams(2.0, 3.0, BaselineParams(1.0, 1.0, 1.0)),
    ErlParams(0.7, 1.8, BaselineParams(2.0, 0.8, 0.5)),
    ErlParams(3.5, 0.4, BaselineParams(0.5, 1.5, 2.0)),
    ErlParams(1.2, 1.2, BaselineParams(1.5, 2.0, 1.0)),
]

# b = 0.01: I^{-1}_p(a, b) rounds to 1 for most p, so the quantile has
# to come from the complementary inverse 1 - K
SMALL_B_POINT = ErlParams(20.0, 0.01, BaselineParams(0.02, 0.25, 4.0))
# b = 0.001: the survival I_{exp(-T)}(b, a) is still large at T > 745,
# where exp(-T) has underflowed to 0
DEEP_TAIL_POINT = ErlParams(2.0, 0.001, BaselineParams(1.0, 1.0, 1.0))
# a = 0.01, lam = 100: K = I^{-1}_p(a, b) lies far below the smallest
# double at p = 1e-4, yet x is well inside the support
SMALL_A_POINT = ErlParams(0.01, 5.0, BaselineParams(1.0, 100.0, 1.0))
# lam = 148: at x = -0.85828 v^(2 lam) = e^-755 lies below the smallest
# double, while T = (beta/2) v^(2 lam) = 3.4e-321 is still one
HIGH_POWER_POINT = ErlParams(0.5, 881078.3, BaselineParams(0.93076, 147.99, 9.1647e7))

# a = 209.7: K^a leaves the doubles near K = 0.035, where I_K(a, b) is
# still about 1e-270
FAR_LOWER_POINT = ErlParams.from_values(209.7, 39.7, 0.01265, 18.74, 0.001227)

MOMENT_SETS = [
    MIXED_SETS[0],
    MIXED_SETS[2],
    MIXED_SETS[3],
    ErlParams(0.7, 1.8, BaselineParams(2.0, 1.2, 0.5)),
    MIXED_SETS[1],
    # the law the bundled data was drawn from
    ErlParams.from_values(**SYNTHETIC_PARAMS),
]


class TestParams:
    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ValueError):
            ErlParams(-1.0, 1.0, EXP_BASE)
        with pytest.raises(ValueError):
            ErlParams(1.0, 0.0, EXP_BASE)

    def test_from_values_and_back(self):
        p = ErlParams.from_values(a=2.0, b=1.0, theta=1.0, lam=0.5, beta=2.0)
        assert p.values() == (2.0, 1.0, 1.0, 0.5, 2.0)


class TestPdf:
    def test_reduces_to_parent(self):
        x = np.linspace(-0.9, 6.0, 200)
        assert np.max(np.abs(erl_pdf(x, EXP_POINT) - EXP_WEIBULL.pdf(x))) <= 1e-12

    def test_power_anchor(self):
        assert erl_pdf(0.0, POWER_POINT) == pytest.approx(2.0 * K0 * k0, abs=1e-10)

    def test_zero_outside_support(self):
        assert erl_pdf(-1.0, POWER_POINT) == 0.0
        assert erl_pdf(-4.0, POWER_POINT) == 0.0

    @pytest.mark.parametrize(
        "x, p",
        [
            (math.inf, ErlParams(2.0, 1.5, BaselineParams(1.0, 1.0, 1.0))),
            (math.inf, ErlParams(2.0, 1.5, BaselineParams(1.0, 0.5, 1.0))),
            # a finite x inside the support where v = (theta + x)/theta overflows
            (1e300, ErlParams(2.0, 1.5, BaselineParams(1e-10, 1.0, 1.0))),
        ],
    )
    def test_zero_where_v_overflows(self, x, p):
        # ln v = +inf there; (2 lam - 1) ln v - b T must not become inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert erl_pdf(x, p) == 0.0
            assert erl_reversed_hazard(x, p) == 0.0

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_nonnegative(self, p):
        x = np.linspace(-p.base.theta + 1e-6, 10.0 * p.base.theta, 400)
        assert np.all(erl_pdf(x, p) >= 0.0)

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_matches_cdf_derivative(self, p):
        lo = erl_quantile(0.05, p)
        hi = erl_quantile(0.95, p)
        x = np.linspace(lo, hi, 60)
        h = 1e-6 * p.base.theta
        fd = (erl_cdf(x + h, p) - erl_cdf(x - h, p)) / (2.0 * h)
        assert np.max(np.abs(erl_pdf(x, p) - fd)) <= 1e-5


class TestCdf:
    def test_reduces_to_parent(self):
        x = np.linspace(-0.9, 6.0, 200)
        assert np.max(np.abs(erl_cdf(x, EXP_POINT) - EXP_WEIBULL.cdf(x))) <= 1e-13

    def test_power_anchor(self):
        # at b=1 the cdf is K^a
        assert erl_cdf(0.0, POWER_POINT) == pytest.approx(K0**2, abs=1e-10)

    def test_support_edge(self):
        assert erl_cdf(-1.0, POWER_POINT) == 0.0

    def test_exponent_below_power_range_against_mpmath(self):
        # mpmath at 50 digits, at the double x; T is subnormal there, so
        # it carries only about 4 digits, and G ~ T^a and g ~ T^(a-1)
        x = -0.85828
        assert erl_cdf(x, HIGH_POWER_POINT) == pytest.approx(6.1787793558442212e-158, rel=1e-3)
        assert erl_pdf(x, HIGH_POWER_POINT) == pytest.approx(1.2615860332110741e-154, rel=1e-3)

    @pytest.mark.parametrize("big_k", [0.025, 0.027, 0.0281606])
    def test_far_lower_tail_against_mpmath(self, big_k):
        # K^a < e^-700 here, where betainc gives 0.0 at K = 0.027 and is 40%
        # off at K = 0.0281606; mpmath at 40 digits, at the double x
        p = FAR_LOWER_POINT
        theta, lam, beta = p.base.theta, p.base.lam, p.base.beta
        x = theta * _v_at(-math.log1p(-big_k), lam, beta) - theta
        with mpmath.workdps(40):
            t = mpmath.mpf(beta) / 2 * ((theta + mpmath.mpf(x)) / theta) ** (2 * mpmath.mpf(lam))
            ref = float(mpmath.betainc(p.a, p.b, 0, -mpmath.expm1(-t), regularized=True))
        assert erl_cdf(x, p) == pytest.approx(ref, rel=1e-10)

    def test_exponent_below_subnormals(self):
        # x is mpmath's quantile at 1e-4 (see test_small_a_against_mpmath);
        # T = e^-923 there is below even the subnormals
        assert erl_cdf(-0.9900689167813681404, SMALL_A_POINT) == pytest.approx(1e-4, rel=1e-12)
        assert erl_survival(-0.9900689167813681404, SMALL_A_POINT) == pytest.approx(0.9999, rel=1e-15)

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_monotone_within_unit_interval(self, p):
        x = np.linspace(-p.base.theta, 20.0 * p.base.theta, 500)
        vals = erl_cdf(x, p)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestSurvivalHazard:
    def test_survival_anchor(self):
        assert erl_survival(0.0, POWER_POINT) == pytest.approx(1.0 - K0**2, abs=1e-10)

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_survival_complements_cdf(self, p):
        x = np.linspace(-p.base.theta + 0.01, 8.0 * p.base.theta, 300)
        total = erl_cdf(x, p) + erl_survival(x, p)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @pytest.mark.parametrize("x", [0.0, 3.0])
    def test_constant_hazard_at_exponential_point(self, x):
        assert erl_hazard(x, EXP_POINT) == pytest.approx(1.0, abs=1e-10)

    def test_hazard_anchor(self):
        expected = (2.0 * K0 * k0) / (1.0 - K0**2)
        assert erl_hazard(0.0, POWER_POINT) == pytest.approx(expected, abs=1e-10)

    def test_reversed_hazard_anchor(self):
        assert erl_reversed_hazard(0.0, EXP_POINT) == pytest.approx(k0 / K0, abs=1e-10)

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_ratio_identities(self, p):
        x = np.linspace(erl_quantile(0.02, p), erl_quantile(0.98, p), 100)
        pdf = erl_pdf(x, p)
        cdf = erl_cdf(x, p)
        surv = erl_survival(x, p)
        assert np.max(np.abs(erl_hazard(x, p) - pdf / surv)) <= 1e-10 * np.max(pdf / surv)
        assert np.max(np.abs(erl_reversed_hazard(x, p) - pdf / cdf)) <= 1e-10 * np.max(pdf / cdf)

    @pytest.mark.parametrize(
        "x, surv_ref",
        [(40.0, 0.4319262168443099244), (60.0, 0.15575040832215798112)],
    )
    def test_deep_tail_small_b_against_mpmath(self, x, surv_ref):
        # mpmath at 50 digits: I_y(b, a) at y = exp(-T), T = 840.5 and 1860.5
        assert erl_survival(x, DEEP_TAIL_POINT) == pytest.approx(surv_ref, rel=1e-12)
        assert erl_cdf(x, DEEP_TAIL_POINT) == pytest.approx(1.0 - surv_ref, rel=1e-12)

    def test_infinity_signals(self):
        assert erl_hazard(1e9, EXP_POINT) == math.inf
        assert erl_reversed_hazard(-1.0, EXP_POINT) == math.inf


class TestQuantile:
    def test_power_anchor(self):
        assert erl_quantile(K0**2, POWER_POINT) == pytest.approx(0.0, abs=1e-9)

    def test_endpoints(self):
        assert erl_quantile(0.0, EXP_POINT) == -1.0
        assert erl_quantile(1.0, EXP_POINT) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            erl_quantile(-0.1, EXP_POINT)
        with pytest.raises(ValueError):
            erl_quantile(1.2, EXP_POINT)

    @pytest.mark.parametrize(
        "p, tail_cap",
        [
            (MIXED_SETS[0], 1e-7),
            (MIXED_SETS[1], 1e-7),
            # b=0.4: past this tail the beta inverse needs u closer to
            # 1 than doubles can spell, which blocks a 1e-9 round trip
            (MIXED_SETS[2], 1e-3),
            (MIXED_SETS[3], 1e-7),
        ],
    )
    def test_roundtrip(self, p, tail_cap):
        probs = np.linspace(1e-5, 1.0 - tail_cap, 300)
        x = erl_quantile(probs, p)
        back = erl_cdf(x, p)
        assert np.max(np.abs(back - probs)) <= 1e-9

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_monotone(self, p):
        probs = np.linspace(0.001, 0.999, 200)
        assert np.all(np.diff(erl_quantile(probs, p)) > 0)

    @pytest.mark.parametrize(
        "prob, x_ref",
        [
            (0.37, 12.352007856415816245),
            # 1 - K = e^-1385 lies below the smallest double
            (0.999999, 9592.3635477204976254),
        ],
    )
    def test_small_b_against_mpmath(self, prob, x_ref):
        # mpmath at 60 digits, at the double nearest prob: solve
        # I_y(b, a) = 1 - prob for ln y with y = 1 - K, then
        # x = theta * ((2/beta) (-ln y))**(1/(2 lam)) - theta
        assert erl_quantile(prob, SMALL_B_POINT) == pytest.approx(x_ref, rel=1e-12)

    def test_small_a_against_mpmath(self):
        # mpmath at 50 digits: solve I_K(a, b) = 1e-4 for ln K (= -923.11),
        # then T = -log1p(-K) and x = theta * (2 T / beta)**(1/(2 lam)) - theta
        x_ref = -0.9900689167813681404
        assert erl_quantile(1e-4, SMALL_A_POINT) == pytest.approx(x_ref, rel=1e-12)

    def test_far_lower_tail_roundtrip(self):
        # betaincinv gives one K, 0.0281606, for both probabilities
        probs = np.array([3.7e-284, 1e-280])
        p = FAR_LOWER_POINT
        assert erl_cdf(erl_quantile(probs, p), p) == pytest.approx(probs, rel=1e-10, abs=0.0)

    def test_beyond_the_doubles_is_inf_without_warning(self):
        # lam = 0.0017: the quantile at 0.368 is about 10^1400
        p = ErlParams.from_values(0.98438, 0.047210, 1.0, 0.0016740, 0.026589)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert erl_quantile(0.368, p) == math.inf


class TestSample:
    def test_deterministic_per_seed(self):
        a = erl_sample(50, POWER_POINT, seed=3)
        b = erl_sample(50, POWER_POINT, seed=3)
        assert np.array_equal(a, b)

    def test_reduction_matches_parent_distribution(self):
        ours = np.sort(erl_sample(10_000, EXP_POINT, seed=21))
        # the parent is a unit exponential shifted to start at -1
        parent = np.sort(np.random.default_rng(22).standard_exponential(10_000) - 1.0)
        # two-sample empirical cdf sup distance
        merged = np.concatenate([ours, parent])
        d = 0.0
        for t in merged[:: 40]:
            f1 = np.searchsorted(ours, t, side="right") / ours.size
            f2 = np.searchsorted(parent, t, side="right") / parent.size
            d = max(d, abs(f1 - f2))
        assert d < 0.03

    def test_power_point_mean(self):
        # E[X] at a=2, b=1 equals 1/2 by the hand integral
        # 2 int_0^1 (-ln(1-v) - 1) v dv
        x = erl_sample(1_000_000, POWER_POINT, seed=33)
        se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
        assert abs(float(np.mean(x)) - 0.5) <= 3.0 * se

    @pytest.mark.parametrize("p", MIXED_SETS)
    def test_support(self, p):
        x = erl_sample(2_000, p, seed=9)
        assert np.all(x > -p.base.theta)

    def test_small_b_draws_are_finite(self):
        assert np.all(np.isfinite(erl_sample(1000, SMALL_B_POINT, seed=0)))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            erl_sample(0, EXP_POINT, seed=1)

    @pytest.mark.parametrize("p", [SMALL_B_POINT, EXP_POINT], ids=["small_b", "exp"])
    def test_same_bits_for_any_cpu_count(self, monkeypatch, p):
        # small b sends nearly every draw to betainccinv, a = b = 1 half
        # of them to each inverse; both reach several blocks at 50k
        def draws(cpus):
            monkeypatch.setattr(specfun, "_cpu_count", lambda: cpus)
            return erl_sample(50_000, p, 3)

        one = draws(1)
        for cpus in (2, 3, 5):
            assert np.array_equal(draws(cpus).view(np.uint64), one.view(np.uint64))


class TestMoments:
    def test_zeroth(self):
        assert erl_raw_moment(0, EXP_POINT) == 1.0

    def test_exponential_mean(self):
        assert erl_raw_moment(1, EXP_POINT) == pytest.approx(0.0, abs=1e-8)

    def test_power_point_mean(self):
        assert erl_raw_moment(1, POWER_POINT) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("p", MOMENT_SETS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_against_quadrature(self, p, r):
        # the oracle integrates to infinity: truncating at a far
        # quantile silently drops tail mass when b < 1
        ref, _ = integrate.quad(
            lambda t: t**r * erl_pdf(t, p), -p.base.theta, np.inf, limit=400
        )
        got = erl_raw_moment(r, p)
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_monte_carlo_triangulation(self):
        p = MIXED_SETS[0]
        x = erl_sample(1_000_000, p, seed=44)
        for r in (1, 2):
            mc = float(np.mean(x**r))
            se = float(np.std(x**r, ddof=1)) / math.sqrt(x.size)
            assert abs(erl_raw_moment(r, p) - mc) <= 4.0 * se

    def test_heavy_tail_mean_matches_closed_form(self):
        # at a = b = 1 the mean is 2^10 10! - 1 = 3,715,891,199
        base = BaselineParams(1.0, 0.05, 1.0)
        series = baseline_moment_series(1, base)
        assert erl_raw_moment(1, ErlParams(1.0, 1.0, base)) == pytest.approx(series, rel=1e-10)

    def test_large_a_against_mpmath(self):
        # mpmath at 40 digits, over y = K between beta quantiles; with
        # y^(a-1) in QUADPACK's weight at a = 70 the mean was 4% off, unflagged
        p = ErlParams(70.0, 200.0, BaselineParams(0.12, 1.25, 10.0))
        assert erl_raw_moment(1, p) == pytest.approx(-0.081084086980798545, rel=1e-10)

    def test_edge_estimate_mean_against_mpmath(self):
        # compare's ERLD estimate on the bundled data, where the upper half
        # meets ln(1 - e^-T) near T = ln a = 30: as ln(-expm1(-T)) it loses
        # the digits of e^-T and QUADPACK flags roundoff; mpmath at 40
        # digits, integrating in T, gives 0.38500073726685994
        p = ErlParams.from_values(
            10686427128827.076,
            0.0012581886605270633,
            0.024999997691588803,
            0.10386724553124053,
            2269.5488940249406,
        )
        assert erl_raw_moment(1, p) == pytest.approx(0.38500073726686, rel=1e-12)

    def test_refuses_rather_than_misses(self):
        # compare's ERLD estimate on the bundled data; mpmath at 30 digits
        # gives 1.637479533060849e33, and the sum QUADPACK flags is 2.8e-5 off
        p = ErlParams(1.07e13, 0.00126, BaselineParams(0.025, 0.113, 0.5))
        try:
            got = erl_raw_moment(2, p)
        except NumericalError:
            return
        assert got == pytest.approx(1.637479533060849e33, rel=1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=(AssertionError, NumericalError),
        reason="ROADMAP item 14: LRLD's moments raise at b = 1e-12 and 1e-6, and read 0.0 at 1e6",
    )
    @pytest.mark.parametrize("b", [1e-12, 1e-6, 1e6])
    def test_lrld_moments_are_rld_moments(self, b):
        # LRLD at (1, b, theta, lam, beta / b) is the law of RLD at
        # (1, 1, theta, lam, beta), here RLD's compare --seed 0 estimate,
        # whose moments are the baseline's closed-form series
        base = BaselineParams(0.0249999977, 0.1130861, 2.7238121)
        lrld = ErlParams(1.0, b, BaselineParams(base.theta, base.lam, base.beta / b))
        for r in (1, 2, 3, 4):
            ref = baseline_moment_series(r, base)
            assert erl_raw_moment(r, lrld) == pytest.approx(ref, rel=1e-10)

    def test_untrustworthy_quadrature_raises(self):
        # E[X] is about 5.8e567 here, which no double holds
        heavy = ErlParams(1.0, 1.0, BaselineParams(1.0, 0.002, 1.0))
        with pytest.raises(NumericalError):
            erl_raw_moment(1, heavy)

    def test_central_moments_at_exponential_point(self):
        mean, m2, m3, m4 = erl_central_moments(EXP_POINT)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert m2 == pytest.approx(1.0, abs=1e-7)
        assert m3 == pytest.approx(2.0, abs=1e-6)
        assert m4 == pytest.approx(9.0, abs=1e-5)

    def test_shape_summaries_at_exponential_point(self):
        assert erl_skewness(EXP_POINT) == pytest.approx(2.0, abs=1e-6)
        assert erl_kurtosis(EXP_POINT) == pytest.approx(6.0, abs=1e-5)

    def test_cv(self):
        # doubling beta to 1 keeps the law exponential but moves the
        # mean to 1 with sd 2: X = 2E - 1
        stretched = ErlParams(1.0, 1.0, BaselineParams(1.0, 0.5, 1.0))
        assert erl_cv(stretched) == pytest.approx(2.0, abs=1e-7)
        assert math.isnan(erl_cv(EXP_POINT))

    @pytest.mark.parametrize("p", MOMENT_SETS[:2])
    def test_shape_summaries_consistent_with_central_moments(self, p):
        _, m2, m3, m4 = erl_central_moments(p)
        assert erl_skewness(p) == pytest.approx(m3 / m2**1.5, rel=1e-9)
        assert erl_kurtosis(p) == pytest.approx(m4 / m2**2 - 3.0, rel=1e-9)


class TestNormalization:
    def test_exponential_point(self):
        assert normalization_check(EXP_POINT) == pytest.approx(1.0, abs=1e-10)

    def test_generic_point(self):
        p = ErlParams(2.5, 0.7, BaselineParams(3.0, 1.2, 0.4))
        assert normalization_check(p) == pytest.approx(1.0, abs=1e-8)

    def test_spiky_stress_point(self):
        p = ErlParams(0.801, 5.5, BaselineParams(0.025, 0.113, 0.501))
        assert normalization_check(p) == pytest.approx(1.0, abs=1e-8)


@pytest.fixture(scope="class")
def beta_weibull_cases():
    """200 seeded laws with a, b, theta, lam and beta log-uniform in
    [1e-2, 1e2], each with up to 20 points placed by T log-uniform in
    [1e-6, 30] (a point where x + theta rounds to 0 is dropped), and the
    Weibull form of its baseline: location -theta, shape k = 2 lam and
    scale sigma = theta (2/beta)^(1/k)."""
    rng = np.random.default_rng(20261020)
    cases = []
    for _ in range(200):
        a, b, theta, lam, beta = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 5))
        t = np.exp(rng.uniform(math.log(1e-6), math.log(30.0), 20))
        k = 2.0 * lam
        sigma = theta * (2.0 / beta) ** (1.0 / k)
        x = -theta + sigma * t ** (1.0 / k)
        weibull = {"c": k, "loc": -theta, "scale": sigma}
        cases.append((ErlParams.from_values(a, b, theta, lam, beta), x[x + theta > 0], weibull))
    return cases


def _assert_rel(got, ref, keep) -> int:
    """got equals ref to 1e-9 relative where keep holds; the count checked."""
    np.testing.assert_allclose(np.asarray(got)[keep], ref[keep], rtol=1e-9, atol=0.0)
    return int(np.count_nonzero(keep))


class TestBetaWeibullOracle:
    """The family is the beta-Weibull law with location -theta, so scipy's
    Weibull laws give oracles that share none of erlfit's forms.

    References are compared where they are normal doubles (above 1e-300).
    The largest errors, a few 1e-12, come from conditioning: b T up to
    3,000 and 2 lam up to 200 magnify the rounding of x."""

    def test_pdf_is_beta_g_of_weibull(self, beta_weibull_cases):
        checked = 0
        for p, x, weibull in beta_weibull_cases:
            with np.errstate(all="ignore"):
                ref = np.exp((p.a - 1.0) * weibull_min.logcdf(x, **weibull)
                             + (p.b - 1.0) * weibull_min.logsf(x, **weibull)
                             + weibull_min.logpdf(x, **weibull) - betaln(p.a, p.b))
            checked += _assert_rel(erl_pdf(x, p), ref, ref > 1e-300)
        assert checked > 2000

    def test_cdf_below_the_median_of_k(self, beta_weibull_cases):
        checked = 0
        for p, x, weibull in beta_weibull_cases:
            big_k = weibull_min.cdf(x, **weibull)
            ref = betainc(p.a, p.b, big_k)
            checked += _assert_rel(erl_cdf(x, p), ref, (big_k <= 0.5) & (ref > 1e-300))
        assert checked > 1000

    def test_survival_above_the_median_of_k(self, beta_weibull_cases):
        checked = 0
        for p, x, weibull in beta_weibull_cases:
            big_k = weibull_min.cdf(x, **weibull)
            ref = betainc(p.b, p.a, weibull_min.sf(x, **weibull))
            checked += _assert_rel(erl_survival(x, p), ref, (big_k > 0.5) & (ref > 1e-300))
        assert checked > 500

    def test_quantile_below_the_median_of_k(self, beta_weibull_cases):
        # the probabilities are those of the points with K <= 1/2, so
        # p < I_{1/2}(a, b) and betaincinv never meets its 2.2e-308 floor
        checked = 0
        for p, x, weibull in beta_weibull_cases:
            big_k = weibull_min.cdf(x, **weibull)
            probs = betainc(p.a, p.b, big_k[big_k <= 0.5])
            probs = probs[probs > 1e-300]
            ref = weibull_min.ppf(betaincinv(p.a, p.b, probs), **weibull)
            checked += _assert_rel(erl_quantile(probs, p), ref, np.ones(ref.shape, bool))
        assert checked > 1000

    def test_rld_pdf_is_weibull(self, beta_weibull_cases):
        checked = 0
        for p, x, weibull in beta_weibull_cases:
            with np.errstate(all="ignore"):
                ref = weibull_min.pdf(x, **weibull)
            checked += _assert_rel(erl_pdf(x, ErlParams(1.0, 1.0, p.base)), ref, ref > 1e-300)
        assert checked > 2000

    def test_exprld_pdf_is_exponentiated_weibull(self, beta_weibull_cases):
        checked = 0
        for p, x, weibull in beta_weibull_cases:
            with np.errstate(all="ignore"):
                ref = exponweib.pdf(x, p.a, **weibull)
            checked += _assert_rel(erl_pdf(x, ErlParams(p.a, 1.0, p.base)), ref, ref > 1e-300)
        assert checked > 2000

    def test_rld_moments_are_weibull_moments(self):
        # at a = b = 1 the law is the Weibull itself; 20 seeded laws with
        # lam in [e^-1, e^1.5] and theta, beta in [e^-2, e^2], checked to
        # 1e-9 of max(|m_r|, sd^r) because m_r may cancel to near 0
        rng = np.random.default_rng(20261021)
        for _ in range(20):
            lam = math.exp(rng.uniform(-1.0, 1.5))
            theta, beta = np.exp(rng.uniform(-2.0, 2.0, 2))
            base = BaselineParams(float(theta), lam, float(beta))
            law = weibull_min(2.0 * lam, loc=-theta, scale=theta * (2.0 / beta) ** (1.0 / (2.0 * lam)))
            sd = law.std()
            for r in range(1, 5):
                ref = law.moment(r)
                tol = 1e-9 * max(abs(ref), sd**r)
                assert abs(erl_raw_moment(r, ErlParams(1.0, 1.0, base)) - ref) <= tol, (r, base)
                assert abs(baseline_moment_series(r, base) - ref) <= tol, (r, base)
