"""Tests for descriptive statistics, EDF distances, and criteria.

The EDF oracles below are independent derivations: each statistic is an
integral of (F_n - F)^2 against a weight, and with F_n piecewise
constant every segment has a closed antiderivative, so the oracle sums
those segment integrals directly instead of using the rank formulas the
implementation uses.
"""

import math
import warnings

import numpy as np
import pytest

from erlfit.estimation import Dataset
from erlfit.gof import (
    gof_report,
    info_criteria,
    ks_pvalue,
    sample_kurtosis,
    sample_skewness,
)

UNIT_CDF = lambda x: np.clip(x, 0.0, 1.0)  # noqa: E731  U(0,1) model


def edf_ks_oracle(z: np.ndarray) -> float:
    """Sup distance via explicit evaluation at every jump and corner."""
    z = np.sort(z)
    n = z.size
    best = 0.0
    for i, t in enumerate(z):
        left = i / n
        right = (i + 1) / n
        best = max(best, abs(left - t), abs(right - t))
    # a dense sweep can only tie the corner values, but keeps the
    # oracle honest about points between jumps
    for u in np.linspace(0.0, 1.0, 20_001):
        fn = np.searchsorted(z, u, side="right") / n
        best = max(best, abs(fn - u))
    return best


def edf_cvm_oracle(z: np.ndarray) -> float:
    """n * integral of (F_n(u) - u)^2 du, segment by segment."""
    z = np.sort(z)
    n = z.size
    knots = np.concatenate([[0.0], z, [1.0]])
    total = 0.0
    for j in range(n + 1):
        c = j / n
        lo, hi = knots[j], knots[j + 1]
        total += ((c - lo) ** 3 - (c - hi) ** 3) / 3.0
    return n * total


def edf_ad_oracle(z: np.ndarray) -> float:
    """n * integral of (F_n(u) - u)^2 / (u(1-u)) du.

    Partial fractions: (c-u)^2/(u(1-u)) = -1 + c^2/u + (1-c)^2/(1-u),
    so each segment integrates to
    -(hi-lo) + c^2 ln(hi/lo) + (1-c)^2 ln((1-lo)/(1-hi)).
    """
    z = np.sort(z)
    n = z.size
    knots = np.concatenate([[0.0], z, [1.0]])
    total = 0.0
    for j in range(n + 1):
        c = j / n
        lo, hi = knots[j], knots[j + 1]
        if hi <= lo:
            continue
        seg = -(hi - lo)
        if c > 0.0:
            seg += c * c * math.log(hi / lo)
        if c < 1.0:
            seg += (1.0 - c) ** 2 * math.log((1.0 - lo) / (1.0 - hi))
        total += seg
    return n * total


class TestSampleShape:
    def test_symmetric_data(self):
        assert sample_skewness(Dataset(np.array([-1.0, 0.0, 1.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_hand_skewness(self):
        # m2 = 2, m3 = 2 for {0, 0, 3}: skewness 2 / 2^1.5
        val = sample_skewness(Dataset(np.array([0.0, 0.0, 3.0])))
        assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)

    def test_hand_kurtosis(self):
        # m4 = 6, m2 = 2: raw kurtosis 6/4
        val = sample_kurtosis(Dataset(np.array([0.0, 0.0, 3.0])))
        assert val == pytest.approx(1.5, abs=1e-12)

    def test_population_convention(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=500)
        d = Dataset(x)
        m = x - x.mean()
        m2 = float(np.mean(m**2))
        assert sample_skewness(d) == pytest.approx(float(np.mean(m**3)) / m2**1.5, rel=1e-12)
        assert sample_kurtosis(d) == pytest.approx(float(np.mean(m**4)) / m2**2, rel=1e-12)

    def test_gaussian_kurtosis_near_three(self):
        x = np.random.default_rng(23).normal(size=100_000)
        assert sample_kurtosis(Dataset(x)) == pytest.approx(3.0, abs=0.1)

    def test_degenerate_data_is_nan(self):
        assert math.isnan(sample_skewness(Dataset(np.array([2.0, 2.0]))))


class TestEdfStatistics:
    def test_single_point_hand_values(self):
        rep = gof_report(Dataset(np.array([0.5])), UNIT_CDF)
        assert rep.ks == pytest.approx(0.5, abs=1e-10)
        assert rep.cvm == pytest.approx(1.0 / 12.0, abs=1e-10)
        assert rep.ad == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_against_segment_oracles(self, n):
        rng = np.random.default_rng(100 + n)
        z = rng.uniform(0.01, 0.99, size=n)
        rep = gof_report(Dataset(z), UNIT_CDF)
        assert rep.ks == pytest.approx(edf_ks_oracle(z), abs=1e-6)
        assert rep.cvm == pytest.approx(edf_cvm_oracle(z), abs=1e-6)
        assert rep.ad == pytest.approx(edf_ad_oracle(z), abs=1e-6)

    def test_order_invariance(self):
        rng = np.random.default_rng(31)
        z = rng.uniform(0.05, 0.95, size=20)
        a = gof_report(Dataset(z), UNIT_CDF)
        b = gof_report(Dataset(z[::-1].copy()), UNIT_CDF)
        assert (a.ks, a.cvm) == (b.ks, b.cvm)

    def test_ks_bounds_and_cvm_floor(self):
        rng = np.random.default_rng(37)
        for n in (1, 3, 17):
            z = rng.uniform(0.0, 1.0, size=n)
            rep = gof_report(Dataset(z), UNIT_CDF)
            assert 0.0 <= rep.ks <= 1.0
            assert rep.cvm >= 1.0 / (12.0 * n) - 1e-15

    def test_ad_clamps_degenerate_probabilities_with_warning(self):
        # a model that assigns probability 0/1 to observed points would
        # send the statistic to infinity; the clamp keeps it finite and
        # says so
        d = Dataset(np.array([100.0]))
        with pytest.warns(RuntimeWarning, match="clamped"):
            val = gof_report(d, UNIT_CDF).ad
        assert math.isfinite(val)


class TestKsPvalue:
    def test_extremes(self):
        assert ks_pvalue(0.0, 50) == 1.0
        # the series' leading term; the next one is e^-400
        assert ks_pvalue(1.0, 50) == pytest.approx(2.0 * math.exp(-100.0), rel=1e-12)

    def test_tabulated_point(self):
        # sqrt(n) D = 1.2238 sits at the 10% row of the asymptotic law
        assert ks_pvalue(1.2238 / math.sqrt(100.0), 100) == pytest.approx(0.10, abs=5e-4)

    def test_monotone_in_d(self):
        ds = np.linspace(0.01, 0.5, 60)
        ps = [ks_pvalue(float(t), 200) for t in ds]
        assert all(x >= y - 1e-15 for x, y in zip(ps, ps[1:]))
        assert all(0.0 <= x <= 1.0 for x in ps)

    def test_series_against_direct_partial_sum(self):
        d, n = 0.08, 150
        lam = math.sqrt(n) * d
        ref = 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 200))
        assert ks_pvalue(d, n) == pytest.approx(ref, abs=1e-12)


class TestInfoCriteria:
    def test_reference_column_five_parameters(self):
        rep = info_criteria(1298.939, 5, 37)
        assert rep.aic == pytest.approx(2607.878, abs=0.01)
        assert rep.caic == pytest.approx(2609.813, abs=0.01)
        assert rep.hqic == pytest.approx(2610.718, abs=0.01)
        assert rep.bic == pytest.approx(2615.933, abs=0.01)

    def test_reference_column_three_parameters(self):
        rep = info_criteria(1629.850, 3, 37)
        assert rep.aic == pytest.approx(3265.700, abs=0.01)
        assert rep.caic == pytest.approx(3266.427, abs=0.01)
        assert rep.hqic == pytest.approx(3267.404, abs=0.01)
        assert rep.bic == pytest.approx(3270.533, abs=0.01)

    def test_closed_form_relations(self):
        nll, k, n = 123.4, 4, 60
        rep = info_criteria(nll, k, n)
        assert rep.aic == pytest.approx(2.0 * nll + 2.0 * k, rel=1e-12)
        assert rep.caic - rep.aic == pytest.approx(2.0 * k * (k + 1) / (n - k - 1), rel=1e-12)
        assert rep.bic - rep.aic == pytest.approx(k * (math.log(n) - 2.0), rel=1e-12)
        assert rep.hqic - rep.aic == pytest.approx(2.0 * k * (math.log(math.log(n)) - 1.0), rel=1e-12)

    def test_small_sample_correction_blows_up(self):
        rep = info_criteria(10.0, 3, 4)
        assert math.isnan(rep.caic)
        assert math.isfinite(rep.aic)

    def test_penalty_monotone_in_k(self):
        reps = [info_criteria(50.0, k, 100) for k in (1, 2, 3, 4)]
        for lo, hi in zip(reps, reps[1:]):
            assert hi.aic > lo.aic
            assert hi.bic > lo.bic


class TestGofReport:
    def test_bundles_matching_pieces(self):
        rng = np.random.default_rng(41)
        z = rng.uniform(0.05, 0.95, size=30)
        d = Dataset(z)
        rep = gof_report(d, UNIT_CDF)
        assert rep.n == 30
        assert rep.ks_pvalue == ks_pvalue(rep.ks, 30)
