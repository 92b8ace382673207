"""Release acceptance suite: one numbered test per release criterion.

Each test states its tolerance inline and checks the library against
material that does not come from the code under test: a frozen
reference table, closed forms, series, piecewise-exact EDF oracles,
and Monte Carlo error bars. conftest.py prints a PASS/FAIL line per
criterion at the end of the run.
"""

import itertools
import json
import math

import jsonschema
import numpy as np
import pytest
import scipy.special as sp

from erlfit.baseline import baseline_moment_series
from erlfit.cli import REPORT_SCHEMA, main
from erlfit.core import (
    ErlParams,
    erl_cdf,
    erl_central_moments,
    erl_hazard,
    erl_kurtosis,
    erl_pdf,
    erl_quantile,
    erl_raw_moment,
    erl_sample,
    erl_skewness,
    normalization_check,
)
from erlfit.datasets import SYNTHETIC_PARAMS, synthetic_path
from erlfit.estimation import Dataset, FitConfig, fit_mle, nll, score_ab
from erlfit.gof import gof_report, info_criteria
from erlfit.submodels import DEFAULT_COMPARE, get_model

# ---------------------------------------------------------------------
# criterion 1: a frozen seven-model selection table on n = 37. The nll
# column is the input; the four criteria columns are the expected
# outputs, reproduced to +/- 0.01.
# ---------------------------------------------------------------------

REFERENCE_N = 37
# model: (k, nll, aic, caic, hqic, bic)
REFERENCE_TABLE = {
    "ERLD": (5, 1298.939, 2607.878, 2609.813, 2610.718, 2615.933),
    "ExpLD": (3, 1629.850, 3265.700, 3266.427, 3267.404, 3270.533),
    "LRLD": (4, 2003.402, 4014.804, 4016.054, 4017.076, 4021.248),
    "BRD": (4, 2201.424, 4410.848, 4412.098, 4413.120, 4417.292),
    "RLD": (3, 2391.883, 4789.766, 4790.493, 4791.470, 4794.599),
    "ExpRLD": (4, 2498.683, 5005.366, 5006.616, 5007.638, 5011.810),
    # the reference CAIC cell for BLD is handled by the outlier test
    "BLD": (4, 2775.822, 5559.644, None, 5561.916, 5566.088),
}
BLD_CAIC_AS_PRINTED = 5560.916


def test_criterion_01_criteria_table():
    for name, (k, nll_value, aic, caic, hqic, bic) in REFERENCE_TABLE.items():
        crit = info_criteria(nll_value, k, REFERENCE_N)
        assert crit.aic == pytest.approx(aic, abs=0.01), name
        assert crit.hqic == pytest.approx(hqic, abs=0.01), name
        assert crit.bic == pytest.approx(bic, abs=0.01), name
        if caic is not None:
            assert crit.caic == pytest.approx(caic, abs=0.01), name


@pytest.mark.xfail(
    strict=True,
    reason="the reference CAIC cell for BLD is internally inconsistent with "
    "its own table: every other four-parameter column adds exactly "
    "2k(k+1)/(n-k-1) = 1.25 to its AIC, this cell prints +1.272",
)
def test_criterion_01_outlier_cell():
    crit = info_criteria(REFERENCE_TABLE["BLD"][1], 4, REFERENCE_N)
    assert crit.caic == pytest.approx(BLD_CAIC_AS_PRINTED, abs=0.01)


def test_criterion_02_normalization():
    levels = (0.5, 1.0, 3.0)
    worst = 0.0
    for a, b, theta, lam, beta in itertools.product(levels, repeat=5):
        p = ErlParams(a, b, theta, lam, beta)
        worst = max(worst, abs(normalization_check(p) - 1.0))
    worst = max(worst, abs(normalization_check(ErlParams(**SYNTHETIC_PARAMS)) - 1.0))
    assert worst <= 1e-8


# ---------------------------------------------------------------------
# criterion 3: every constrained slice of the family collapses to its
# closed form, pointwise to 1e-12 on 100-point quantile grids.
# ---------------------------------------------------------------------


def _k_and_dens(x, theta, lam, beta):
    """Baseline cdf K and density k written out independently."""
    v = (theta + x) / theta
    t = 0.5 * beta * v ** (2.0 * lam)
    big_k = -np.expm1(-t)
    dens = (beta * lam / theta) * v ** (2.0 * lam - 1.0) * np.exp(-t)
    return big_k, dens


def _reduction_cases():
    def lehmann(a, b, theta, lam, beta):
        def cdf(x):
            big_k, _ = _k_and_dens(x, theta, lam, beta)
            return -np.expm1(b * np.log1p(-big_k))

        def pdf(x):
            big_k, dens = _k_and_dens(x, theta, lam, beta)
            return b * (1.0 - big_k) ** (b - 1.0) * dens

        return ErlParams(a, b, theta, lam, beta), cdf, pdf

    def exponentiated(a, b, theta, lam, beta):
        def cdf(x):
            big_k, _ = _k_and_dens(x, theta, lam, beta)
            return big_k**a

        def pdf(x):
            big_k, dens = _k_and_dens(x, theta, lam, beta)
            return a * big_k ** (a - 1.0) * dens

        return ErlParams(a, b, theta, lam, beta), cdf, pdf

    def beta_generated(a, b, theta, lam, beta):
        def cdf(x):
            big_k, _ = _k_and_dens(x, theta, lam, beta)
            return sp.betainc(a, b, big_k)

        def pdf(x):
            big_k, dens = _k_and_dens(x, theta, lam, beta)
            return big_k ** (a - 1.0) * (1.0 - big_k) ** (b - 1.0) * dens / sp.beta(a, b)

        return ErlParams(a, b, theta, lam, beta), cdf, pdf

    def parent(theta, lam, beta):
        def cdf(x):
            return _k_and_dens(x, theta, lam, beta)[0]

        def pdf(x):
            return _k_and_dens(x, theta, lam, beta)[1]

        return ErlParams(1.0, 1.0, theta, lam, beta), cdf, pdf

    def rayleigh(beta):
        def cdf(x):
            return -np.expm1(-0.5 * beta * (1.0 + x) ** 2)

        def pdf(x):
            return beta * (1.0 + x) * np.exp(-0.5 * beta * (1.0 + x) ** 2)

        return ErlParams(1.0, 1.0, 1.0, 1.0, beta), cdf, pdf

    return [
        ("a=1 survival power", lehmann(1.0, 2.3, 1.4, 0.9, 1.7)),
        ("b=1 cdf power", exponentiated(2.6, 1.0, 0.8, 1.3, 0.6)),
        ("beta=1 slice", beta_generated(1.8, 0.9, 2.0, 0.7, 1.0)),
        ("lambda=1 slice", beta_generated(0.9, 2.2, 1.1, 1.0, 2.4)),
        ("a=b=1 parent", parent(0.7, 1.6, 0.9)),
        ("b=beta=1 slice", exponentiated(3.2, 1.0, 1.5, 0.8, 1.0)),
        ("a=b=lam=theta=1 rayleigh", rayleigh(2.7)),
    ]


def test_criterion_03_submodel_reductions():
    probs = np.linspace(0.005, 0.995, 100)
    for label, (p, cdf_ref, pdf_ref) in _reduction_cases():
        x = np.asarray(erl_quantile(probs, p))
        np.testing.assert_allclose(
            erl_cdf(x, p), cdf_ref(x), rtol=1e-12, atol=1e-12, err_msg=label
        )
        np.testing.assert_allclose(
            erl_pdf(x, p), pdf_ref(x), rtol=1e-12, atol=1e-12, err_msg=label
        )


def test_criterion_04_exponential_closed_forms():
    p = ErlParams(1.0, 1.0, 1.0, 0.5, 2.0)
    x = np.linspace(-0.999, 9.0, 200)
    np.testing.assert_allclose(erl_cdf(x, p), -np.expm1(-(1.0 + x)), atol=1e-8)
    np.testing.assert_allclose(erl_pdf(x, p), np.exp(-(1.0 + x)), atol=1e-8)
    np.testing.assert_allclose(np.asarray(erl_hazard(x, p)), 1.0, atol=1e-8)
    probs = np.linspace(1e-6, 1.0 - 1e-6, 200)
    np.testing.assert_allclose(
        erl_quantile(probs, p), -1.0 - np.log1p(-probs), atol=1e-8
    )
    mean, mu2, _, _ = erl_central_moments(p)
    assert mean == pytest.approx(0.0, abs=1e-8)
    assert mu2 == pytest.approx(1.0, abs=1e-8)
    assert erl_skewness(p) == pytest.approx(2.0, abs=1e-8)
    assert erl_kurtosis(p) == pytest.approx(6.0, abs=1e-8)


def test_criterion_05_moment_triangulation():
    sets = [
        (1.0, 1.0, 1.0),
        (2.0, 1.5, 0.7),
        (0.5, 2.0, 3.0),
        (3.0, 1.0, 2.0),
        (1.5, 3.0, 1.2),
    ]
    for i, (theta, lam, beta) in enumerate(sets):
        p = ErlParams(1.0, 1.0, theta, lam, beta)
        draws = erl_sample(1_000_000, p, seed=314159 + i)
        for r in (1, 2, 3, 4):
            series = baseline_moment_series(r, p)
            quad = erl_raw_moment(r, p)
            assert abs(quad - series) <= 1e-6 * max(1.0, abs(series)), (i, r)
            powers = draws**r
            se = powers.std(ddof=1) / math.sqrt(powers.size)
            assert abs(powers.mean() - series) <= 4.0 * se, (i, r)
            assert abs(powers.mean() - quad) <= 4.0 * se, (i, r)


def test_criterion_06_score_gradient():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
        b = float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
        base = (
            float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
            float(np.exp(rng.uniform(np.log(0.4), np.log(2.5)))),
            float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
        )
        p = ErlParams(a, b, *base)
        data = Dataset(erl_sample(30, p, seed=int(rng.integers(1 << 31))))
        sa, sb = score_ab(p, data)
        h = 1e-6 * max(1.0, a)
        fd_a = -(nll(ErlParams(a + h, b, *base), data) - nll(ErlParams(a - h, b, *base), data)) / (2 * h)
        h = 1e-6 * max(1.0, b)
        fd_b = -(nll(ErlParams(a, b + h, *base), data) - nll(ErlParams(a, b - h, *base), data)) / (2 * h)
        assert abs(sa - fd_a) <= 1e-5 * max(1.0, abs(sa))
        assert abs(sb - fd_b) <= 1e-5 * max(1.0, abs(sb))


def test_criterion_07_mle_self_consistency():
    true = ErlParams(2.0, 1.5, 1.0, 1.0, 1.0)
    spec = get_model("ERLD")
    cfg = FitConfig(starts=1, seed=0)
    lam_rel_errors = []
    for seed in range(1000, 1020):
        data = Dataset(erl_sample(2000, true, seed=seed))
        fit = fit_mle(spec, data, cfg)
        assert fit.nll <= nll(true, data) + 1e-3, seed
        lam_rel_errors.append(abs(fit.params.lam - 1.0))
    assert float(np.median(lam_rel_errors)) <= 0.15


# ---------------------------------------------------------------------
# criterion 8: EDF statistics against piecewise-exact oracles. With
# F_n piecewise constant, every segment of the weighted squared-
# difference integral has a closed antiderivative, so the oracle sums
# segments instead of using the rank formulas the library uses.
# ---------------------------------------------------------------------

_UNIT_CDF = lambda x: np.clip(x, 0.0, 1.0)  # noqa: E731


def _oracle_ks(z):
    z = np.sort(z)
    n = z.size
    best = 0.0
    for i, t in enumerate(z):
        best = max(best, abs(i / n - t), abs((i + 1) / n - t))
    for u in np.linspace(0.0, 1.0, 20_001):
        best = max(best, abs(np.searchsorted(z, u, side="right") / n - u))
    return best


def _oracle_cvm(z):
    z = np.sort(z)
    n = z.size
    knots = np.concatenate([[0.0], z, [1.0]])
    total = 0.0
    for j in range(n + 1):
        c = j / n
        total += ((c - knots[j]) ** 3 - (c - knots[j + 1]) ** 3) / 3.0
    return n * total


def _oracle_ad(z):
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


def test_criterion_08_edf_statistics():
    single = gof_report(Dataset(np.array([0.5])), _UNIT_CDF)
    assert single.ks == pytest.approx(0.5, abs=1e-10)
    assert single.cvm == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert single.ad == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-10)
    for n in (1, 5, 50):
        rng = np.random.default_rng(900 + n)
        z = rng.uniform(0.02, 0.98, size=n)
        rep = gof_report(Dataset(z), _UNIT_CDF)
        assert rep.ks == pytest.approx(_oracle_ks(z), abs=1e-6)
        assert rep.cvm == pytest.approx(_oracle_cvm(z), abs=1e-6)
        assert rep.ad == pytest.approx(_oracle_ad(z), abs=1e-6)


def test_criterion_09_sampling_ks():
    sets = [
        (2.0, 1.5, 1.0, 1.0, 1.0),
        (0.801, 5.5, 0.025, 0.113, 0.501),
        (1.0, 1.0, 1.0, 0.5, 2.0),
        (3.0, 0.7, 2.0, 1.2, 0.5),
        (0.5, 2.0, 1.0, 2.0, 1.0),
    ]
    n = 10_000
    bar = 1.63 / math.sqrt(n)
    ranks = np.arange(1, n + 1)
    for a, b, theta, lam, beta in sets:
        p = ErlParams(a, b, theta, lam, beta)
        for seed in range(101, 106):
            u = np.asarray(erl_cdf(np.sort(erl_sample(n, p, seed=seed)), p))
            d = max(np.max(ranks / n - u), np.max(u - (ranks - 1) / n))
            assert d < bar, ((a, b, theta, lam, beta), seed, d)


def test_criterion_10_cli_determinism(tmp_path):
    argv = ["compare", "--input", synthetic_path(), "--seed", "0"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(argv + ["--output", str(one)]) == 0
    assert main(argv + ["--output", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    report = json.loads(one.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    nlls = {record["name"]: record["nll"] for record in report["models"]}
    assert set(nlls) == set(DEFAULT_COMPARE)
    for name, value in nlls.items():
        assert nlls["ERLD"] <= value + 1e-3, name
