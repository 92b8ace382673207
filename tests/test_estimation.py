"""Tests for likelihood evaluation and maximum-likelihood fitting.

The data anchor: at a=b=1, theta=1, lambda=0.5, beta=2 the family is a
unit exponential shifted to start at -1, so nll({0}) = -ln e^{-1} = 1
and the (a, b) score components at that point are hand-computable.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import optimize

from erlfit import estimation
from erlfit.baseline import _log_transform
from erlfit.cli import _fit_models, run_compare
from erlfit.core import ErlParams, _log_density, erl_sample
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
from erlfit.submodels import DEFAULT_COMPARE, MODELS, PARAM_NAMES, get_model

EXP_BASE = (1.0, 0.5, 2.0)
EXP_POINT = ErlParams(1.0, 1.0, *EXP_BASE)
RECOVERY_POINT = ErlParams(2.0, 1.5, 1.0, 1.0, 1.0)
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
            log_v, t, log_k = _log_transform(x, theta, lam, beta)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                terms = _log_density(log_v, t, log_k, a, b, theta, lam, beta)
            underflows += bool(np.any(t[log_v > -np.inf] == 0.0))
            try:
                total = math.fsum(terms) if np.all(np.isfinite(terms)) else math.nan
            except OverflowError:
                total = math.nan
            if math.isfinite(total):
                assert abs(got + total) <= 1e-12 * math.fsum(np.abs(terms))
            else:
                assert got == math.inf
        assert underflows >= 50

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: ln K = ln(-expm1(-T)) loses the digits of e^-T where K rounds to 1",
    )
    def test_edge_estimate_against_mpmath(self):
        # compare's ERLD estimate on the bundled data, where a e^-T(x_1) is
        # near 1; mpmath at 60 digits gives -165.48955844148649
        row = (
            10686427128827.076,
            0.0012581886605270633,
            0.024999997691588803,
            0.10386724553124053,
            2269.5488940249406,
        )
        got = _nll(np.array([row]), load_synthetic().values)[0]
        assert got == pytest.approx(-165.48955844148649, rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12(a): ln K = ln(-expm1(-T)) loses the digits of e^-T where K rounds"
        " to 1, and ln v = ln((theta + x)/theta) those of x/theta where theta >> |x|",
    )
    def test_rows_against_mpmath_at_the_holes(self):
        # rows where the kernel's rounding is amplified, against mpmath at
        # 60 digits: compare --seed 0's ERLD and LRLD estimates on the
        # bundled data (a, b and beta at the search box's edges), theta up
        # to 1e13 max|x| with 2 lam ln v near 1, and a e^-T(x_1) from 1e-2
        # to 1e2 at T(x_1) = 10, 20 and 25
        x = load_synthetic().values
        erld = (
            10686427128827.076,
            0.0012581886605270633,
            0.024999997691588803,
            0.10386724553124053,
            2269.5488940249406,
        )
        lrld = (1.0, 2.725866240723278e-13, 0.02499999769150253, 0.1130861457094063, 9992464891238.215)
        rows = [erld, lrld]
        for ratio in (1e3, 1e8, 1e13):
            rows.append((2.0, 1.5, ratio * float(np.max(np.abs(x))), ratio / 2.0, 1.0))
        _a, b, theta, lam, _beta = erld
        v_1 = (theta + x[0]) / theta
        for t_1 in (10.0, 20.0, 25.0):
            for c in (1e-2, 1.0, 1e2):
                rows.append((c * math.exp(t_1), b, theta, lam, 2.0 * t_1 / v_1 ** (2.0 * lam)))
        got = _nll(np.array(rows), x)
        ref = []
        with mp.workdps(60):
            points = [mp.mpf(v) for v in x.tolist()]
            for row in rows:
                a, b, theta, lam, beta = (mp.mpf(v) for v in row)
                total = -len(points) * (mp.log(beta * lam / theta) - mp.log(mp.beta(a, b)))
                for xi in points:
                    log_v = mp.log((theta + xi) / theta)
                    t = beta / 2 * mp.exp(2 * lam * log_v)
                    total -= (2 * lam - 1) * log_v + (a - 1) * mp.log(-mp.expm1(-t)) - b * t
                ref.append(float(total))
        assert got.tolist() == pytest.approx(ref, rel=1e-12)

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

    @pytest.mark.parametrize("moved", [False, True], ids=["shift", "no_shift"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_start_at_inverts_values_at(self, name, moved):
        # the bundled data dips below 0, so theta is searched above a
        # shift; moved to x - x_(1) + 1 it does not, and the shift is 0
        data = load_synthetic()
        if moved:
            data = Dataset(data.values - data.values[0] + 1.0)
        specs = [MODELS[key] for key in sorted(MODELS)]
        model = sorted(MODELS).index(name)
        spec = specs[model]
        start_at, values_at, _ = _objective(specs, data)
        shift = estimation._theta_shift(data)
        assert (shift == 0.0) == moved
        z = np.random.default_rng(7).uniform(math.log(1e-2), math.log(1e2), (50, spec.free_count))
        rows = values_at(z, np.full(len(z), model))
        for point, row in zip(z, rows):
            back = start_at(model, ErlParams(*row.tolist()))
            assert back is not None and np.allclose(back, point, rtol=0.0, atol=1e-12)
        # a fixed value broken, or theta at or below the shift
        full = rows[0].tolist()
        for slot, value in enumerate(spec.row):
            if slot not in spec.slots:
                broken = list(full)
                broken[slot] = 2.0 * value
                assert start_at(model, ErlParams(*broken)) is None
        if "theta" in spec.free_names and shift > 0.0:
            for theta in (shift, 0.5 * shift):
                full[PARAM_NAMES.index("theta")] = theta
                assert start_at(model, ErlParams(*full)) is None

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
        runs = _nelder_mead(objective, z0, spec.free_count, max_iters, 1e-8)
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
        _start_at, _values_at, objective = _objective(
            [get_model("BRD"), get_model("ExpRLD")], load_synthetic()
        )
        z0 = np.random.default_rng(1).uniform(math.log(1e-2), math.log(1e2), (4, 4))
        owner = np.array([0, 1, 1, 0])
        options = {"maxiter": max_iters, "fatol": 1e-8, "xatol": 1e-8}
        runs = _nelder_mead(lambda z, starts: objective(z, owner[starts]), z0, 4, max_iters, 1e-8)
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
        # starts with 3, 4 and 5 free parameters share one run of width 5:
        # two from the outset, then every start that finishes hands in the
        # next one, so starts join at different iterations, the 5-parameter
        # ones after narrower starts
        specs = [get_model(name) for name in ("RLD", "BRD", "ERLD")]
        _start_at, _values_at, objective = _objective(specs, load_synthetic())
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
            return new, []

        runs = _nelder_mead(f, points[:2], 5, max_iters, 1e-8, join=join)
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

    def test_ended_start_leaves_and_others_match_scipy(self):
        # join ends the slowest start when the first start finishes, and
        # ends that finished start too; neither may change another start
        spec = get_model("BRD")
        objective = one_model(_objective([spec], load_synthetic())[2])
        z0 = np.random.default_rng(3).uniform(math.log(1e-2), math.log(1e2), (4, spec.free_count))
        options = {"maxiter": 2000, "fatol": 1e-8, "xatol": 1e-8}
        with np.errstate(invalid="ignore"):
            refs = [
                optimize.minimize(
                    lambda z: objective(z[None, :])[0], start, method="Nelder-Mead", options=options
                )
                for start in z0
            ]
        slowest = max(range(len(z0)), key=lambda i: refs[i].nit)
        seen_after = set()  # the starts evaluated after the slowest was ended
        ended = []

        def f(z, starts):
            if ended:
                seen_after.update(starts.tolist())
            return objective(z)

        def join(done):
            if not ended:
                assert all(run.nit < refs[slowest].nit for _start, run in done)
                ended.extend([slowest, *(start for start, _run in done)])
            return [], ended

        runs = _nelder_mead(f, z0, spec.free_count, 2000, 1e-8, join=join)
        assert runs[slowest] is None and slowest not in seen_after
        assert len(ended) >= 2
        for i, (run, ref) in enumerate(zip(runs, refs)):
            if i == slowest:
                continue
            assert np.array_equal(run.x, ref.x)
            assert run.fun == ref.fun
            assert run.nit == ref.nit
            assert run.success == ref.success

    def test_fixed_point_ends_as_at_maxiter(self):
        # BLD's seed-0 draws 9 and 14, as fit_ladder makes them, shrink back
        # onto their own simplex and values, bit for bit, near the search-box
        # edge.  scipy repeats that step until maxiter; the start must end as
        # scipy's does without evaluating it again, alone and beside draws 1
        # and 2, which converge
        objective = one_model(_objective([get_model("BLD")], load_synthetic())[2])
        rng = np.random.default_rng(0)
        draws = [rng.uniform(math.log(1e-2), math.log(1e2), size=4) for _ in range(19)]
        options = {"maxiter": 2000, "fatol": 1e-8, "xatol": 1e-8}
        with np.errstate(invalid="ignore"):
            refs = {
                i: optimize.minimize(
                    lambda z: objective(z[None, :])[0], draws[i], method="Nelder-Mead", options=options
                )
                for i in (0, 1, 8, 13)
            }

        def rows_to_match_scipy(picks):
            rows = 0

            def counted(z, starts):
                nonlocal rows
                rows += len(z)
                return objective(z)

            runs = _nelder_mead(counted, [draws[i] for i in picks], 4, 2000, 1e-8)
            for pick, run in zip(picks, runs):
                ref = refs[pick]
                assert np.array_equal(run.x, ref.x)
                assert run.fun == ref.fun
                assert run.nit == ref.nit
                assert run.success == ref.success
                if pick in (8, 13):
                    assert run.nit == 2000 and run.success is False
            return rows

        # 722 and 951 rows; repeating the last step until maxiter takes over 10,000
        assert rows_to_match_scipy([8]) < 2000
        assert rows_to_match_scipy([13]) < 2000
        rows_to_match_scipy([0, 8, 13, 1])

    def test_no_starts(self):
        assert _nelder_mead(lambda z, starts: np.zeros(len(z)), np.empty((0, 3)), 3, 100, 1e-8) == []


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
        # formula rather than a second call: K(x) = 1 - e^-(x+1) at
        # EXP_BASE, and digamma from mpmath
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.4, 3.0, size=30)
        a, b = 1.7, 0.6
        p = ErlParams(a, b, *EXP_BASE)
        sa, sb = score_ab(p, Dataset(x))
        big_k = -np.expm1(-(x + 1.0))
        n = x.size
        with mp.workdps(30):
            psi_ab, psi_a, psi_b = (float(mp.digamma(v)) for v in (a + b, a, b))
        ref_a = n * (psi_ab - psi_a) + float(np.sum(np.log(big_k)))
        ref_b = n * (psi_ab - psi_b) + float(np.sum(np.log1p(-big_k)))
        assert sa == pytest.approx(ref_a, rel=1e-12)
        assert sb == pytest.approx(ref_b, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
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
        assert float(data.values[0]) > -fit.params.theta

    def test_nested_model_never_beats_full_family(self):
        data = Dataset(erl_sample(2000, EXP_POINT, seed=99))
        # the ladder warm-starts ERLD from RLD's optimum
        rld, erld = fit_ladder([get_model("RLD"), get_model("ERLD")], data, FitConfig(starts=4, seed=0))
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

    @pytest.mark.parametrize("name", ["RLD", "BRD", "ExpRLD"])
    def test_polish_matches_scipy_reference(self, name):
        # the polish starts from each provisional winner as it appears: RLD
        # and ExpRLD here each end one polish that a later run supersedes,
        # and BRD polishes again after its first polish has finished.  The
        # fit must still be the one a loop over scipy gives: every start,
        # the first lowest run, then one polish from it that counts only if
        # strictly lower
        data = load_synthetic()
        spec = get_model(name)
        _start_at, values_at, objective = _objective([spec], data)
        f = one_model(objective)
        span = float(data.values[-1] - data.values[0])
        rng = np.random.default_rng(0)
        starts = [np.array([math.log(span) if p == "theta" else 0.0 for p in spec.free_names])]
        starts += [rng.uniform(math.log(1e-2), math.log(1e2), spec.free_count) for _ in range(5)]
        options = {"maxiter": 2000, "fatol": 1e-8, "xatol": 1e-8}

        def scipy_run(z0):
            with np.errstate(invalid="ignore"):
                return optimize.minimize(
                    lambda z: f(z[None, :])[0], z0, method="Nelder-Mead", options=options
                )

        runs = [scipy_run(z0) for z0 in starts if math.isfinite(f(z0[None, :])[0])]
        best = min(runs, key=lambda run: run.fun)
        polish = scipy_run(best.x)
        final = polish if polish.fun < best.fun else best
        fit = fit_mle(spec, data, FitConfig(starts=6, seed=0))
        row = values_at(final.x[None, :], np.zeros(1, dtype=np.intp))[0]
        assert fit.params.values() == tuple(row.tolist())
        assert fit.nll == final.fun
        assert fit.converged == final.success

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(starts=0)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            FitConfig(seed=-1)


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

    def test_fit_models_equals_scipy_loop(self):
        # the whole ladder against a loop over scipy: the seven models in
        # (k, name) order, each from the span heuristic, the seeded draws
        # of its k and a warm start from every lower-k optimum it admits,
        # in that order; a start with a non-finite value is dropped, the
        # first lowest run wins, one polish from it counts only if strictly
        # lower, and the fit is converged when the run it reports is.  At
        # starts=4 the ladder ends 10 polishes that a later winner supersedes
        data = load_synthetic()
        cfg = FitConfig(starts=4, seed=0)
        specs = sorted(map(get_model, DEFAULT_COMPARE), key=lambda s: (s.free_count, s.name))
        span = float(data.values[-1] - data.values[0])
        options = {"maxiter": 2000, "fatol": 1e-8, "xatol": 1e-8}
        oracle: list[FitResult] = []
        for spec in specs:
            k = spec.free_count
            start_at, values_at, objective = _objective([spec], data)
            f = one_model(objective)
            rng = np.random.default_rng(cfg.seed)
            starts = [np.array([math.log(span) if p == "theta" else 0.0 for p in spec.free_names])]
            starts += [rng.uniform(math.log(1e-2), math.log(1e2), k) for _ in range(cfg.starts - 1)]
            warm = [start_at(0, lower.params) for lower in oracle if lower.k < k]
            starts += [z for z in warm if z is not None]

            def scipy_run(z0):
                with np.errstate(invalid="ignore"):
                    return optimize.minimize(
                        lambda z: f(z[None, :])[0], z0, method="Nelder-Mead", options=options
                    )

            runs = [scipy_run(z0) for z0 in starts if math.isfinite(f(z0[None, :])[0])]
            best = min(runs, key=lambda run: run.fun)
            polish = scipy_run(best.x)
            final = polish if polish.fun < best.fun else best
            row = values_at(final.x[None, :], np.zeros(1, dtype=np.intp))[0]
            fit = FitResult(
                spec=spec, params=ErlParams(*row.tolist()), nll=float(final.fun),
                n=data.n, k=k, converged=bool(final.success),
            )
            oracle.append(standard_errors(fit, data) if fit.converged else fit)
        ladder = _fit_models(data, specs, cfg)
        assert all(self.same_fit(one, two) for one, two in zip(ladder, oracle, strict=True))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 19(b): the theta shift's epsilon, the search box and the seeded"
        " theta draws are absolute, in the data's unit",
    )
    def test_compare_fits_follow_the_unit(self):
        # only theta carries the data's unit: the fits of c x should be
        # theta c with the same a, b, lam and beta, and nll + n ln c; the
        # factors 2^-10 and 2^10 scale the data exactly
        data = load_synthetic()
        specs = [get_model(name) for name in DEFAULT_COMPARE]
        cfg = FitConfig(seed=0)
        fits = _fit_models(data, specs, cfg)
        for c in (2.0**-10, 2.0**10):
            for fit, scaled in zip(fits, _fit_models(Dataset(c * data.values), specs, cfg)):
                a, b, theta, lam, beta = scaled.params.values()
                assert (a, b, theta / c, lam, beta) == pytest.approx(fit.params.values(), rel=1e-6)
                assert scaled.nll - data.n * math.log(c) == pytest.approx(fit.nll, rel=1e-9)

    def test_compare_work_count(self, monkeypatch):
        # fitted one model at a time, compare carried 162,715 rows in 20,857
        # calls, and level by level in 13,775: the same rows mean every start
        # took the same steps, and the calls fall as the starts of the whole
        # ladder share them.  The rows fell to 118,359 once a start that
        # stops at a fixed point no longer repeated its step until maxiter.
        # The calls fall from 5,355 to 4,254 because a polish no longer waits
        # for the last run of its model: it starts from each provisional
        # winner.  The rows rise to 120,412 by the polishes that end when a
        # later run wins.  The row count moves whenever the kernel's rounding
        # does, because every trajectory moves with it
        calls = rows = 0

        def counted(values, x):
            nonlocal calls, rows
            calls += 1
            rows += len(values)
            return _nll(values, x)

        monkeypatch.setattr(estimation, "_nll", counted)
        specs = [get_model(name) for name in DEFAULT_COMPARE]
        run_compare(load_synthetic(), specs, FitConfig(seed=0))
        assert rows == 120_412
        assert calls <= 4_254


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

    @pytest.mark.parametrize("name", ["RLD", "ExpRLD"])
    def test_against_mpmath_hessian(self, name):
        # interior optima; the reference inverts the Hessian of the nll
        # that mpmath differentiates at 30 digits
        law = ErlParams(1.0, 1.0, 1.2, 1.4, 0.8)
        data = Dataset(erl_sample(100, law, seed=42))
        spec = get_model(name)
        fit = standard_errors(fit_mle(spec, data, FitConfig(starts=6, seed=0)), data)
        with mp.workdps(30):
            x = [mp.mpf(v) for v in data.values.tolist()]

            def mp_nll(*free):
                full = dict(spec.fixed, **dict(zip(spec.free_names, free)))
                a, b, theta, lam, beta = (mp.mpf(full[p]) for p in PARAM_NAMES)
                total = -len(x) * (mp.log(beta * lam / theta) - mp.log(mp.beta(a, b)))
                for xi in x:
                    log_v = mp.log((theta + xi) / theta)
                    t = beta / 2 * mp.exp(2 * lam * log_v)
                    total -= (2 * lam - 1) * log_v + (a - 1) * mp.log(-mp.expm1(-t)) - b * t
                return total

            free = spec.extract(fit.params)
            k = len(free)
            hess = mp.matrix(k, k)
            for i in range(k):
                for j in range(i, k):
                    order = [0] * k
                    order[i] += 1
                    order[j] += 1
                    hess[i, j] = hess[j, i] = mp.diff(mp_nll, free, order)
            cov = mp.inverse(hess)
            ref = [float(mp.sqrt(cov[i, i])) for i in range(k)]
        assert fit.se == pytest.approx(ref, rel=1e-4)

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
