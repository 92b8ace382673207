"""Tests for the parent distribution layer.

At theta=1, lambda=0.5, beta=2 the law collapses to a unit exponential
shifted to start at -1, which gives hand-computable reference values.
The baseline's own density, cdf and draws are the family's erl_pdf,
erl_cdf and erl_sample at a = b = 1, so those are checked here against
the defining formula; the quantile is the baseline module's own, and
the closed-form moment series is the oracle in oracles.py, checked here
before other tests lean on it.  Other checks integrate the density with
scipy.integrate.quad or the Weibull density of scipy.stats.  Every
parameter record here has a = b = 1, so it is the baseline law itself.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import weibull_min

from erlfit.baseline import baseline_quantile
from erlfit.core import ErlParams, erl_cdf, erl_pdf, erl_sample
from erlfit.errors import NumericalError
from oracles import baseline_moment_series

EXP_POINT = ErlParams(1.0, 1.0, theta=1.0, lam=0.5, beta=2.0)

GRID_SETS = [
    ErlParams(1.0, 1.0, 0.5, 0.5, 0.5),
    ErlParams(1.0, 1.0, 1.0, 1.0, 1.0),
    ErlParams(1.0, 1.0, 3.0, 0.7, 2.0),
    ErlParams(1.0, 1.0, 0.7, 2.0, 0.4),
    ErlParams(1.0, 1.0, 2.0, 1.3, 3.0),
]


def weibull(p: ErlParams):
    """The baseline as scipy's Weibull law with location -theta."""
    shape = 2.0 * p.lam
    return weibull_min(shape, loc=-p.theta, scale=p.theta * (2.0 / p.beta) ** (1.0 / shape))


def direct_cdf(x: float, p: ErlParams) -> float:
    """The defining formula evaluated with plain scalar math."""
    if x <= -p.theta:
        return 0.0
    v = (p.theta + x) / p.theta
    return 1.0 - math.exp(-(p.beta / 2.0) * v ** (2.0 * p.lam))


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": -1.0, "lam": 1.0, "beta": 1.0},
            {"theta": 0.0, "lam": 1.0, "beta": 1.0},
            {"theta": 1.0, "lam": 0.0, "beta": 1.0},
            {"theta": 1.0, "lam": 1.0, "beta": -2.0},
            {"theta": math.nan, "lam": 1.0, "beta": 1.0},
            {"theta": 1.0, "lam": math.inf, "beta": 1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ErlParams(1.0, 1.0, **kwargs)


class TestCdf:
    def test_shifted_exponential_point(self):
        assert erl_cdf(0.0, EXP_POINT) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_support_edge_and_below(self):
        assert erl_cdf(-1.0, EXP_POINT) == 0.0
        assert erl_cdf(-5.0, EXP_POINT) == 0.0

    def test_approaches_one(self):
        for p in GRID_SETS:
            assert erl_cdf(1e6, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", GRID_SETS)
    def test_matches_direct_formula(self, p):
        x = np.linspace(-p.theta + 1e-6, 8.0 * p.theta, 200)
        got = erl_cdf(x, p)
        ref = np.array([direct_cdf(float(t), p) for t in x])
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("p", GRID_SETS)
    def test_monotone(self, p):
        x = np.linspace(-p.theta, 20.0, 500)
        vals = erl_cdf(x, p)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_vector_shape(self):
        out = erl_cdf(np.array([[-0.5, 0.0], [1.0, 2.0]]), EXP_POINT)
        assert out.shape == (2, 2)
        assert isinstance(erl_cdf(0.3, EXP_POINT), float)


class TestPdf:
    def test_shifted_exponential_points(self):
        assert erl_pdf(0.0, EXP_POINT) == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert erl_pdf(5.0, EXP_POINT) == pytest.approx(math.exp(-6.0), abs=1e-10)

    def test_zero_outside_support(self):
        assert erl_pdf(-1.0, EXP_POINT) == 0.0
        assert erl_pdf(-3.0, EXP_POINT) == 0.0

    @pytest.mark.parametrize("p", GRID_SETS)
    def test_matches_cdf_derivative(self, p):
        x = np.linspace(-p.theta + 0.05 * p.theta, 6.0 * p.theta, 80)
        h = 1e-6 * p.theta
        fd = (erl_cdf(x + h, p) - erl_cdf(x - h, p)) / (2.0 * h)
        got = erl_pdf(x, p)
        assert np.max(np.abs(got - fd)) <= 1e-6

    @pytest.mark.parametrize(
        "theta", [0.5, 1.0, 3.0]
    )
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_integrates_to_one(self, theta, lam, beta):
        p = ErlParams(1.0, 1.0, theta, lam, beta)
        total, _ = integrate.quad(
            lambda t: erl_pdf(t, p), -p.theta, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestQuantile:
    def test_shifted_exponential_point(self):
        prob = 1.0 - math.exp(-1.0)
        assert baseline_quantile(prob, EXP_POINT) == pytest.approx(0.0, abs=1e-9)

    def test_endpoints(self):
        assert baseline_quantile(0.0, EXP_POINT) == -1.0
        assert baseline_quantile(1.0, EXP_POINT) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            baseline_quantile(-0.1, EXP_POINT)
        with pytest.raises(ValueError):
            baseline_quantile(1.1, EXP_POINT)

    @pytest.mark.parametrize("p", GRID_SETS)
    def test_roundtrip_both_ways(self, p):
        probs = np.linspace(1e-6, 1.0 - 1e-9, 300)
        x = baseline_quantile(probs, p)
        back = erl_cdf(x, p)
        assert np.max(np.abs(back - probs)) <= 1e-12
        # the x-side trip only makes sense before the cdf saturates:
        # past that, 1-F underflows and no inverse can recover x
        pts = np.linspace(-p.theta + 1e-3, 10.0 * p.theta, 300)
        keep = erl_cdf(pts, p) < 1.0 - 1e-6
        pts = pts[keep]
        again = baseline_quantile(erl_cdf(pts, p), p)
        assert np.max(np.abs(again - pts) / np.maximum(1.0, np.abs(pts))) <= 1e-9

    @pytest.mark.parametrize("p", GRID_SETS)
    def test_monotone(self, p):
        probs = np.linspace(0.001, 0.999, 200)
        x = baseline_quantile(probs, p)
        assert np.all(np.diff(x) > 0)


class TestMomentSeries:
    def test_zeroth_is_one(self):
        for p in GRID_SETS:
            assert baseline_moment_series(0, p) == 1.0

    def test_shifted_exponential_moments(self):
        # X = E - 1 with E unit exponential: mean 0, second raw moment 1
        assert baseline_moment_series(1, EXP_POINT) == pytest.approx(0.0, abs=1e-10)
        assert baseline_moment_series(2, EXP_POINT) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "p",
        [
            EXP_POINT,
            ErlParams(1.0, 1.0, 1.0, 1.0, 1.0),
            ErlParams(1.0, 1.0, 2.0, 1.5, 0.7),
            ErlParams(1.0, 1.0, 0.5, 2.0, 3.0),
            ErlParams(1.0, 1.0, 3.0, 1.0, 2.0),
        ],
    )
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_quadrature(self, p, r):
        density = weibull(p).pdf
        ref, _ = integrate.quad(lambda t: t**r * density(t), -p.theta, np.inf, limit=400)
        got = baseline_moment_series(r, p)
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_overflow_raises_numerical_error(self):
        # Gamma(4 / (2 lam) + 1) = Gamma(201) is beyond the doubles
        with pytest.raises(NumericalError):
            baseline_moment_series(4, ErlParams(1.0, 1.0, 1.0, 0.01, 1.0))

    @pytest.mark.parametrize("r", [-1, 1.5])
    def test_rejects_bad_order(self, r):
        with pytest.raises(ValueError):
            baseline_moment_series(r, EXP_POINT)


class TestSample:
    def test_deterministic_per_seed(self):
        a = erl_sample(100, EXP_POINT, seed=42)
        b = erl_sample(100, EXP_POINT, seed=42)
        c = erl_sample(100, EXP_POINT, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("p", GRID_SETS)
    def test_support(self, p):
        x = erl_sample(5_000, p, seed=7)
        assert x.shape == (5_000,)
        assert np.all(x > -p.theta)
        assert np.all(np.isfinite(x))

    def test_large_sample_mean(self):
        x = erl_sample(1_000_000, EXP_POINT, seed=11)
        assert abs(float(np.mean(x)) - 0.0) <= 3.0 / math.sqrt(1_000_000)

    def test_empirical_cdf_close(self):
        p = ErlParams(1.0, 1.0, 2.0, 1.3, 0.8)
        x = np.sort(erl_sample(10_000, p, seed=5))
        probs = erl_cdf(x, p)
        n = x.size
        upper = np.arange(1, n + 1) / n - probs
        lower = probs - np.arange(0, n) / n
        d = max(float(np.max(upper)), float(np.max(lower)))
        assert d < 1.63 / math.sqrt(n)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            erl_sample(0, EXP_POINT, seed=1)
