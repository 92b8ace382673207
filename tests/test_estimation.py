"""Tests for likelihood evaluation and maximum-likelihood fitting.

The data anchor: at a=b=1, theta=1, lambda=0.5, beta=2 the family is a
unit exponential shifted to start at -1, so nll({0}) = -ln e^{-1} = 1
and the (a, b) score components at that point are hand-computable.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from erlfit import estimation
from erlfit.baseline import BaselineParams, _transform
from erlfit.cli import _fit_models, run_compare
from erlfit.core import ErlParams, _log_density_v, erl_sample
from erlfit.datasets import load_synthetic
from erlfit.estimation import (
    _CHUNK_DOUBLES,
    Dataset,
    FitConfig,
    FitResult,
    _nelder_mead,
    _nll,
    _objective,
    fit_ladder,
    fit_mle,
    nll,
    score_ab,
    standard_errors,
)
from erlfit.submodels import DEFAULT_COMPARE, MODELS, get_model

EXP_BASE = BaselineParams(1.0, 0.5, 2.0)
EXP_POINT = ErlParams(1.0, 1.0, EXP_BASE)
RECOVERY_POINT = ErlParams(2.0, 1.5, BaselineParams(1.0, 1.0, 1.0))
FREE_COUNTS = {
    "ERLD": 5, "LRLD": 4, "ExpRLD": 4, "BLD": 4, "BRD": 4, "RLD": 3, "ExpLD": 3, "Rayleigh": 1,
}
LEVEL_4 = ("BLD", "BRD", "ExpRLD", "LRLD")


def one_model(objective):
    """The objective of a one-spec search, called on points alone or as
    _nelder_mead calls it, on (points, starts)."""
    return lambda z, starts=None: objective(z, np.zeros(len(z), dtype=np.intp))


class TestDataset:
    def test_sorts_and_freezes(self):
        d = Dataset(np.array([3.0, -1.0, 2.0]))
        assert np.array_equal(d.values, [-1.0, 2.0, 3.0])
        assert not d.values.flags.writeable
        assert d.n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, math.inf]))
        with pytest.raises(ValueError):
            Dataset(np.array([math.nan]))


class TestNll:
    def test_hand_anchor(self):
        assert nll(EXP_POINT, Dataset(np.array([0.0]))) == pytest.approx(1.0, abs=1e-12)
        assert nll(EXP_POINT, Dataset(np.array([0.0, 0.0]))) == pytest.approx(2.0, abs=1e-12)

    def test_additive_over_points(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 4.0, size=25)
        total = nll(EXP_POINT, Dataset(x))
        parts = sum(nll(EXP_POINT, Dataset(np.array([t]))) for t in x)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.5, 4.0, size=40)
        assert nll(EXP_POINT, Dataset(x)) == nll(EXP_POINT, Dataset(x[::-1]))

    def test_support_violation_is_inf(self):
        assert nll(EXP_POINT, Dataset(np.array([-1.0]))) == math.inf
        assert nll(EXP_POINT, Dataset(np.array([-2.0, 1.0]))) == math.inf


class TestRowsKernel:
    @pytest.mark.parametrize("n", [37, 2000])
    def test_rows_match_one_row_calls(self, n):
        x = Dataset(erl_sample(n, RECOVERY_POINT, seed=n)).values
        # two full chunks and one row more: 17 rows at n = 2000
        m = 2 * max(1, _CHUNK_DOUBLES // n) + 1
        values = np.exp(np.random.default_rng(n).uniform(-2.0, 2.0, size=(m, 5)))
        values[:, 2] += 1.0  # theta > 1 keeps every point of x inside the support
        values[0, 2] = -x[0] / 2.0  # theta inside the data: off the support
        values[1] = math.nan
        values[2:5, 3] = (1.0, 0.25, 0.5)  # exponents np.power special-cases
        batch = _nll(values, x)
        assert np.array_equal(batch, [_nll(row[None, :], x)[0] for row in values])
        assert batch[0] == math.inf and batch[1] == math.inf
        assert np.all(np.isfinite(batch[2:5]))

    @pytest.mark.parametrize("n", [37, 2000])
    def test_matches_pointwise_sum(self, n):
        # the kernel's three sums against the pdf's per-point log-density,
        # summed exactly, at rows across the search box
        data = load_synthetic() if n == 37 else Dataset(erl_sample(n, RECOVERY_POINT, seed=n))
        x = data.values
        z = np.random.default_rng(n).uniform(-30.0, 30.0, size=(900, 5))
        values = _objective([get_model("ERLD")], data)[1](z, np.zeros(len(z), dtype=np.intp))
        values[:100, 0] = 1.0
        values[100:200, 3] = 0.5
        values[200:300, 3] = 1.0
        values[300:400, 3] = math.exp(30.0)  # T underflows at the points below 0
        kernel = _nll(values, x)
        underflows = 0
        for row, got in zip(values.tolist(), kernel.tolist()):
            a, b, theta, lam, beta = row
            v, t = _transform(x, theta, lam, beta)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                terms = _log_density_v(v, t, a, b, theta, lam, beta)
            underflows += bool(np.any(t[v > 0.0] == 0.0))
            try:
                total = math.fsum(terms) if np.all(np.isfinite(terms)) else math.nan
            except OverflowError:
                total = math.nan
            if math.isfinite(total):
                assert abs(got + total) <= 1e-12 * math.fsum(np.abs(terms))
            else:
                assert got == math.inf
        assert underflows >= 50

    def test_objective_box_and_nan(self):
        data = Dataset(erl_sample(300, RECOVERY_POINT, seed=3))
        objective = one_model(_objective([get_model("ERLD")], data)[2])
        z = np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 5))
        z[1, 3] = 30.5  # outside the search box
        z[2, 0] = math.nan
        z[3] = 0.0  # lam = 1 exactly
        out = objective(z)
        assert np.array_equal(out, [objective(row[None, :])[0] for row in z])
        assert out[1] == math.inf and out[2] == math.inf
        assert np.isfinite(out[3])

    def test_public_nll_is_one_row(self):
        data = Dataset(erl_sample(50, RECOVERY_POINT, seed=5))
        row = np.array([RECOVERY_POINT.values()])
        assert nll(RECOVERY_POINT, data) == _nll(row, data.values)[0]


class TestNelderMead:
    @pytest.mark.parametrize(
        "name, max_iters, outside",
        [("ERLD", 2000, False), ("BRD", 2000, False), ("ERLD", 60, True), ("BRD", 60, True)],
    )
    def test_each_start_matches_scipy(self, name, max_iters, outside):
        spec = get_model(name)
        objective = one_model(_objective([spec], load_synthetic())[2])
        z0 = np.random.default_rng(0).uniform(math.log(1e-2), math.log(1e2), (3, spec.free_count))
        z0[0] = 0.0
        if outside:
            z0[1, 0] = 31.0  # a start outside the search box
        options = {"maxiter": max_iters, "fatol": 1e-8, "xatol": 1e-8}
        runs = _nelder_mead(objective, z0, max_iters, 1e-8)
        assert len(runs) == len(z0)
        for start, run in zip(z0, runs):
            with np.errstate(invalid="ignore"):
                ref = optimize.minimize(
                    lambda z: objective(z[None, :])[0], start, method="Nelder-Mead", options=options
                )
            assert np.array_equal(run.x, ref.x)
            assert run.fun == ref.fun
            assert run.nit == ref.nit
            assert run.success == ref.success
        if max_iters == 60:
            assert not any(run.success for run in runs)
        else:
            assert all(run.success for run in runs)

    @pytest.mark.parametrize("max_iters", [2000, 60])
    def test_mixed_models_match_scipy(self, max_iters):
        # one run holds starts of two models with four free parameters;
        # each start must take the steps of a scipy run on its own model
        _free, _values_at, objective = _objective(
            [get_model("BRD"), get_model("ExpRLD")], load_synthetic()
        )
        z0 = np.random.default_rng(1).uniform(math.log(1e-2), math.log(1e2), (4, 4))
        owner = np.array([0, 1, 1, 0])
        options = {"maxiter": max_iters, "fatol": 1e-8, "xatol": 1e-8}
        runs = _nelder_mead(lambda z, starts: objective(z, owner[starts]), z0, max_iters, 1e-8)
        for start, model, run in zip(z0, owner, runs):
            models = np.array([model])
            with np.errstate(invalid="ignore"):
                ref = optimize.minimize(
                    lambda z: objective(z[None, :], models)[0],
                    start,
                    method="Nelder-Mead",
                    options=options,
                )
            assert np.array_equal(run.x, ref.x)
            assert run.fun == ref.fun
            assert run.nit == ref.nit
            assert run.success == ref.success
        assert [run.success for run in runs] == [max_iters == 2000] * len(runs)

    @pytest.mark.parametrize("max_iters", [2000, 60])
    def test_joining_starts_match_scipy(self, max_iters):
        # starts with 3, 4 and 5 free parameters share one run: two from
        # the outset, then every start that finishes hands in the next one,
        # so starts join at different iterations, the 5-parameter ones
        # wider than any start already running
        specs = [get_model(name) for name in ("RLD", "BRD", "ERLD")]
        _free, _values_at, objective = _objective(specs, load_synthetic())
        rng = np.random.default_rng(2)
        models = [0, 1, 2, 0, 1, 2]
        points = [rng.uniform(math.log(1e-2), math.log(1e2), specs[m].free_count) for m in models]
        owner = np.array(models)
        calls = 0
        joined_after = []  # the calls of f made before each start joined

        def f(z, starts):
            nonlocal calls
            calls += 1
            return objective(z, owner[starts])

        def join(done):
            start = 2 + len(joined_after)
            new = points[start : start + len(done)]
            joined_after.extend([calls] * len(new))
            return new

        runs = _nelder_mead(f, points[:2], max_iters, 1e-8, join=join)
        assert len(runs) == len(points) and len(set(joined_after)) >= 2
        options = {"maxiter": max_iters, "fatol": 1e-8, "xatol": 1e-8}
        for start, model, run in zip(points, models, runs):
            one = np.array([model])
            with np.errstate(invalid="ignore"):
                ref = optimize.minimize(
                    lambda z: objective(z[None, :], one)[0], start, method="Nelder-Mead", options=options
                )
            assert np.array_equal(run.x, ref.x)
            assert run.fun == ref.fun
            assert run.nit == ref.nit
            assert run.success == ref.success

    def test_no_starts(self):
        assert _nelder_mead(lambda z, starts: np.zeros(len(z)), np.empty((0, 3)), 100, 1e-8) == []


class TestScore:
    def test_hand_anchor(self):
        data = Dataset(np.array([0.0]))
        sa, sb = score_ab(EXP_POINT, data)
        # d/da: [psi(2) - psi(1)] + ln K(0) = 1 + ln(1 - 1/e)
        assert sa == pytest.approx(1.0 + math.log(1.0 - math.exp(-1.0)), abs=1e-12)
        # d/db: [psi(2) - psi(1)] + ln(1 - K(0)) = 1 - 1
        assert sb == pytest.approx(0.0, abs=1e-12)

    def test_component_swap_symmetry(self):
        # exchanging a and b exchanges the two components once the
        # data part swaps ln K with ln(1-K); verified via the direct
        # formula rather than a second call
        from erlfit.baseline import baseline_cdf
        from erlfit.specfun import digamma

        rng = np.random.default_rng(3)
        x = rng.uniform(-0.4, 3.0, size=30)
        a, b = 1.7, 0.6
        p = ErlParams(a, b, EXP_BASE)
        sa, sb = score_ab(p, Dataset(x))
        big_k = baseline_cdf(x, EXP_BASE)
        n = x.size
        ref_a = n * (digamma(a + b) - digamma(a)) + float(np.sum(np.log(big_k)))
        ref_b = n * (digamma(a + b) - digamma(b)) + float(np.sum(np.log1p(-big_k)))
        assert sa == pytest.approx(ref_a, rel=1e-12)
        assert sb == pytest.approx(ref_b, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
            b = float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
            base = BaselineParams(
                float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
                float(np.exp(rng.uniform(np.log(0.4), np.log(2.5)))),
                float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
            )
            p = ErlParams(a, b, base)
            data = Dataset(erl_sample(30, p, seed=int(rng.integers(1 << 31))))
            sa, sb = score_ab(p, data)
            h = 1e-6 * max(1.0, a)
            fd_a = -(nll(ErlParams(a + h, b, base), data) - nll(ErlParams(a - h, b, base), data)) / (2 * h)
            h = 1e-6 * max(1.0, b)
            fd_b = -(nll(ErlParams(a, b + h, base), data) - nll(ErlParams(a, b - h, base), data)) / (2 * h)
            assert abs(sa - fd_a) <= 1e-5 * max(1.0, abs(sa))
            assert abs(sb - fd_b) <= 1e-5 * max(1.0, abs(sb))


class TestFit:
    def test_deterministic_under_seed(self):
        data = Dataset(erl_sample(400, EXP_POINT, seed=5))
        cfg = FitConfig(starts=3, seed=11)
        one = fit_mle(get_model("RLD"), data, cfg)
        two = fit_mle(get_model("RLD"), data, cfg)
        assert one.params.values() == two.params.values()
        assert one.nll == two.nll
        assert one.converged and two.converged

    def test_data_order_invariant(self):
        x = erl_sample(400, EXP_POINT, seed=6)
        cfg = FitConfig(starts=2, seed=0)
        a = fit_mle(get_model("RLD"), Dataset(x), cfg)
        b = fit_mle(get_model("RLD"), Dataset(x[::-1].copy()), cfg)
        assert a.nll == b.nll
        assert a.params.values() == b.params.values()

    def test_self_consistency_against_truth(self):
        data = Dataset(erl_sample(2000, EXP_POINT, seed=99))
        fit = fit_mle(get_model("RLD"), data, FitConfig(starts=6, seed=0))
        assert fit.converged
        assert fit.nll <= nll(EXP_POINT, data) + 1e-3
        assert float(data.values[0]) > -fit.params.base.theta

    def test_nested_model_never_beats_full_family(self):
        data = Dataset(erl_sample(2000, EXP_POINT, seed=99))
        rld = fit_mle(get_model("RLD"), data, FitConfig(starts=6, seed=0))
        erld = fit_mle(
            get_model("ERLD"),
            data,
            FitConfig(starts=4, seed=0),
            extra_starts=[rld.params],
        )
        assert erld.nll <= rld.nll + 1e-4

    def test_requires_more_points_than_parameters(self):
        tiny = Dataset(np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            fit_mle(get_model("RLD"), tiny, FitConfig(starts=1, seed=0))
        ok = Dataset(np.array([0.1, 0.2, 0.3, 0.4]))
        assert fit_mle(get_model("RLD"), ok, FitConfig(starts=1, seed=0)).k == 3

    @pytest.mark.parametrize("name", MODELS)
    def test_result_bookkeeping(self, name):
        data = Dataset(erl_sample(300, EXP_POINT, seed=8))
        fit = fit_mle(MODELS[name], data, FitConfig(starts=2, seed=0))
        assert fit.n == 300
        assert fit.k == FREE_COUNTS[name]
        assert fit.spec.name == name
        assert fit.se is None
        assert math.isfinite(fit.nll)
        # the optimizer's raw-float objective and the public nll agree exactly
        assert fit.nll == nll(fit.params, data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(starts=0)
        with pytest.raises(ValueError):
            FitConfig(tol=0.0)


class TestLevels:
    """Models with one number of free parameters fit in one lock-step run,
    each exactly as it fits alone."""

    @staticmethod
    def same_fit(one: FitResult, two: FitResult) -> bool:
        return (one.spec, one.params, one.nll, one.converged, one.se) == (
            two.spec, two.params, two.nll, two.converged, two.se
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_level_equals_separate_fits(self, seed):
        data = load_synthetic()
        cfg = FitConfig(seed=seed)
        specs = [get_model(name) for name in LEVEL_4]
        level = fit_ladder(specs, data, cfg)
        assert [fit.spec for fit in level] == specs
        for fit, spec in zip(level, specs):
            assert self.same_fit(fit, fit_mle(spec, data, cfg))

    def test_fit_models_equals_sequential_loop(self):
        data = load_synthetic()
        cfg = FitConfig(seed=0)
        specs = [get_model(name) for name in DEFAULT_COMPARE]
        # one model at a time, most constrained first, each warm-started
        # from every earlier optimum it admits, same level or not
        sequential: list[FitResult] = []
        for spec in sorted(specs, key=lambda s: (s.free_count, s.name)):
            fit = fit_mle(spec, data, cfg, extra_starts=[f.params for f in sequential])
            sequential.append(standard_errors(fit, data) if fit.converged else fit)
        levels = _fit_models(data, specs, cfg)
        assert len(levels) == len(sequential)
        assert all(self.same_fit(one, two) for one, two in zip(levels, sequential))

    def test_compare_work_count(self, monkeypatch):
        # fitted one model at a time, compare carried these 162,715 rows in
        # 20,857 calls, and level by level in 13,775: the same rows mean
        # every start took the same steps, and the calls fall as the starts
        # of the whole ladder share them.  The row count moves whenever the
        # kernel's rounding does, because every trajectory moves with it
        calls = rows = 0

        def counted(values, x):
            nonlocal calls, rows
            calls += 1
            rows += len(values)
            return _nll(values, x)

        monkeypatch.setattr(estimation, "_nll", counted)
        specs = [get_model(name) for name in DEFAULT_COMPARE]
        run_compare(load_synthetic(), specs, FitConfig(seed=0))
        assert rows == 162_715
        assert calls <= 7_240


class TestStandardErrors:
    def test_boundary_theta_reports_unavailable(self):
        # the fitted threshold rides the smallest observation, which
        # kinks the likelihood there; its error is unavailable while
        # the interior parameters keep finite ones
        data = Dataset(erl_sample(2000, EXP_POINT, seed=99))
        fit = fit_mle(get_model("RLD"), data, FitConfig(starts=6, seed=0))
        fit = standard_errors(fit, data)
        assert fit.se is not None
        se_theta, se_lam, se_beta = fit.se
        assert se_theta is None
        assert se_lam is not None and se_lam > 0
        assert se_beta is not None and se_beta > 0

    def test_well_conditioned_fit_has_all_errors(self):
        data = Dataset(erl_sample(5000, RECOVERY_POINT, seed=424))
        fit = fit_mle(get_model("ERLD"), data, FitConfig(starts=1, seed=0))
        fit = standard_errors(fit, data)
        assert all(s is not None and s > 0 for s in fit.se)

    def test_errors_shrink_like_root_n(self):
        ses = {}
        for n in (1200, 4800):
            data = Dataset(erl_sample(n, EXP_POINT, seed=314))
            fit = fit_mle(get_model("RLD"), data, FitConfig(starts=4, seed=0))
            ses[n] = standard_errors(fit, data).se
        for idx in (1, 2):
            ratio = ses[4800][idx] / ses[1200][idx]
            assert 0.375 <= ratio <= 0.625

    def test_requires_converged_fit(self):
        data = Dataset(np.array([0.1, 0.5, 1.0, 2.0]))
        sham = FitResult(
            spec=get_model("RLD"),
            params=EXP_POINT,
            nll=1.0,
            n=4,
            k=3,
            converged=False,
        )
        with pytest.raises(ValueError):
            standard_errors(sham, data)
