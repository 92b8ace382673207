"""Maximum-likelihood estimation for the family and its sub-models.

The log-likelihood depends on the data only through three sums,

    l = n ln(beta lam / theta) + (2 lam - 1) sum ln v_i
        + (a - 1) sum ln(1 - e^-T_i) - b sum T_i - n ln B(a, b),

so the kernel over rows of raw floats (a, b, theta, lam, beta) forms
ln v and T once per point (baseline._log_transform), takes the three row
sums (_sums) and combines them with per-row scalars: _nll maps an (m, 5)
array to m values, taking the rows in chunks of at most 2^14 doubles
per (rows, n) temporary.  A row's value does not depend on the batch it
is evaluated in; a lone row is a (1, 5) array.  The (a, b) score reads
the same sums.  Points at or outside the support boundary make a row
+inf, which is how the simplex search learns about the theta constraint
theta > -min(x).  Free parameters are searched in log space (theta as
ln(theta - shift) when the data dips below zero), and the objective is
built once per fit.

The search is multi-started from a span heuristic plus seeded
log-uniform draws, with a single polish restart of the best run.  All
starts run in lock-step in one in-house Nelder-Mead driver: the
simplices are one (S, k+1, k) array, every step evaluates the
reflections of all live starts in one kernel call (then the expansion
or contraction points, then any shrunken vertices, in one call each),
and a start leaves the arrays when it converges.  Each start takes
exactly scipy's default Nelder-Mead steps, so a fit is the one a loop
over scipy.optimize.minimize would give.

fit_level fits several models with the same number of free parameters
(a level) this way at once: _nelder_mead tells the objective which
start each point belongs to, the objective maps every row through its
own model's parameter map, and all rows go into one kernel call.  The
starts of all the level's models form one run and their polish
restarts (one per model) a second.  Since a kernel row does not depend
on the batch it is evaluated in, each model's fit is exactly the one it
gets alone; fit_mle is fit_level of one model.  Warm starts are offered
by the caller (cli fits lower levels first) and each model takes those
it admits.

Standard errors come from a centered finite-difference Hessian in the
original parameterization, its whole stencil evaluated in one kernel
call; parameters whose Hessian entries are unusable (boundary kinks,
failed inversions) report None rather than a made-up number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from .baseline import _log_transform
from .core import ErlParams
from .specfun import _log_beta, digamma
from .submodels import PARAM_NAMES, ModelSpec

_BOUND_EPS = 1e-9
# the likelihood kernel takes its rows in chunks of at most this many
# doubles per (rows, n) temporary, so a batch of trial points at large n
# costs little memory over a single one
_CHUNK_DOUBLES = 16384
# scipy's default Nelder-Mead: reflection, expansion, contraction and
# shrink coefficients, the relative and zero-coordinate steps of the
# initial simplex, and the simplex-size tolerance fit_mle has always used
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL = 1e-8
# the second trial point c0 * xbar - c1 * worst of an expansion, an outside
# and an inside contraction; x - (-c) y is exactly x + c y, so the inside
# contraction (1 - psi) xbar + psi worst fits the same form
_SECOND_POINT = np.array(
    [[1 + _RHO * _CHI, _RHO * _CHI], [1 + _PSI * _RHO, _PSI * _RHO], [1 - _PSI, -_PSI]]
)
# search box half-width in log-parameter space; e^30 ~ 1e13 comfortably
# covers any realistic estimate while keeping the arithmetic trustworthy
_Z_BOUND = 30.0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations held sorted ascending; construction validates them."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.values, dtype=np.float64).ravel())
        if arr.size == 0:
            raise ValueError("Dataset needs at least one observation")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Dataset values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FitConfig:
    """Multi-start search knobs; the seed pins every random restart."""

    starts: int = 20
    max_iters: int = 2000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.max_iters < 1 or not self.tol > 0:
            raise ValueError("FitConfig requires starts >= 1, max_iters >= 1, tol > 0")


@dataclass(frozen=True)
class FitResult:
    """Outcome of fit_mle for one model spec.

    se is None until standard_errors has run; afterwards it is a tuple
    aligned with spec.free_names where an entry of None means the error
    is unavailable (singular or boundary-kinked Hessian).
    """

    spec: ModelSpec
    params: ErlParams
    nll: float
    n: int
    k: int
    converged: bool
    se: Optional[tuple[Optional[float], ...]] = field(default=None)


def nll(params: ErlParams, data: Dataset) -> float:
    """Negative log-likelihood; +inf if any point is off the support."""
    return float(_nll(np.array([params.values()]), data.values)[0])


def _nll(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """nll at each row (a, b, theta, lam, beta) of values, shape (m, 5),
    for data x sorted ascending; +inf where a point is off the support
    or the sum is not finite.

    Per row, -nll = n ln(beta lam / theta) + (2 lam - 1) sum ln v
    + (a - 1) sum ln(1 - e^-T) - b sum T - n ln B(a, b).
    """
    out = np.empty(len(values))
    n = x.size
    step = max(1, _CHUNK_DOUBLES // n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, len(values), step):
            a, b, theta, lam, beta = values[lo : lo + step].T
            sum_log_v, sum_t, sum_log_k = _sums(x, theta, lam, beta)
            lnb = np.fromiter(map(_log_beta, a.tolist(), b.tolist()), np.float64, a.size)
            total = (
                n * np.log(beta * lam / theta)
                + (2.0 * lam - 1.0) * sum_log_v
                + (a - 1.0) * sum_log_k
                - b * sum_t
                - n * lnb
            )
            inside = (x[0] > -theta) & np.isfinite(total)
            out[lo : lo + step] = np.where(inside, -total, math.inf)
    return out


def _sums(x: np.ndarray, theta: np.ndarray, lam: np.ndarray, beta: np.ndarray):
    """(sum ln v, sum T, sum ln(1 - e^-T)) over x at each entry of theta,
    lam and beta, shape (m,): the data part of the log-likelihood, and
    of the (a, b) score.  The caller sets np.errstate."""
    log_v, t = _log_transform(x, theta[:, None], lam[:, None], beta[:, None])
    log_big_k = np.log(-np.expm1(-t))
    return log_v.sum(axis=1), t.sum(axis=1), log_big_k.sum(axis=1)


def score_ab(params: ErlParams, data: Dataset) -> tuple[float, float]:
    """Analytic score components for the shape pair (a, b), from the
    sums the likelihood kernel reads.

    d l / d a = n [psi(a+b) - psi(a)] + sum ln K(x_i)
    d l / d b = n [psi(a+b) - psi(b)] + sum ln(1 - K(x_i)),  ln(1 - K) = -T
    """
    _a, _b, theta, lam, beta = params.values()
    if data.values[0] <= -theta:
        raise ValueError("score_ab requires every point inside the support")
    with np.errstate(divide="ignore", over="ignore"):
        _sum_log_v, sum_t, sum_log_k = _sums(
            data.values, np.array([theta]), np.array([lam]), np.array([beta])
        )
    n = data.n
    common = digamma(params.a + params.b)
    d_a = n * (common - digamma(params.a)) + float(sum_log_k[0])
    d_b = n * (common - digamma(params.b)) - float(sum_t[0])
    return (d_a, d_b)


def _theta_shift(data: Dataset) -> float:
    """Lower bound for theta implied by the support x > -theta."""
    lo = float(data.values[0])
    if lo >= 0.0:
        return 0.0
    return -lo * (1.0 + _BOUND_EPS) + _BOUND_EPS


def _objective(specs: Sequence[ModelSpec], data: Dataset):
    """(free, values_at, objective) of the search of specs over data.

    The specs share one number k of free parameters.  Free parameter i of
    spec s sits at values[slot] = offset + exp(z_i), with free[s][i] =
    (slot, offset); the offset is the theta shift for theta and 0 for the
    other four.  values_at(z, models) maps rows of z, shape (m, k), to
    rows (a, b, theta, lam, beta), row r through the map of
    specs[models[r]]; objective(z, models) maps them to nll, all rows in
    one kernel call.
    """
    shift = _theta_shift(data)
    free = [
        [(PARAM_NAMES.index(name), shift if name == "theta" else 0.0) for name in spec.free_names]
        for spec in specs
    ]
    # base holds each spec's fixed values and, at its free slots, their
    # offsets, so that adding exp(z_i) at slot_i gives offset_i + exp(z_i)
    base = np.zeros((len(specs), len(PARAM_NAMES)))
    for row, spec, spec_free in zip(base, specs, free):
        for name, value in spec.fixed:
            row[PARAM_NAMES.index(name)] = value
        for slot, offset in spec_free:
            row[slot] = offset
    slots = np.array([[slot for slot, _offset in spec_free] for spec_free in free], dtype=np.intp)
    x = data.values

    def values_at(z: np.ndarray, models: np.ndarray) -> np.ndarray:
        # libm's exp per element, as a lone float gets: np.exp may differ
        # in the last bit, and fits would then depend on the batch
        exp_z = np.fromiter(map(math.exp, z.ravel().tolist()), np.float64, z.size)
        values = base[models]
        values[np.arange(len(z))[:, None], slots[models]] += exp_z.reshape(z.shape)
        return values

    def objective(z: np.ndarray, models: np.ndarray) -> np.ndarray:
        # trust box: beyond e^30 the likelihood terms cancel at scales
        # where double precision returns noise, not likelihood; NaN fails too
        if np.abs(z).max(initial=0.0) <= _Z_BOUND:
            return _nll(values_at(z, models), x)
        inside = np.abs(z).max(axis=1) <= _Z_BOUND
        out = np.full(len(z), math.inf)
        if inside.any():
            out[inside] = _nll(values_at(z[inside], models[inside]), x)
        return out

    return free, values_at, objective


def fit_level(
    specs: Sequence[ModelSpec],
    data: Dataset,
    cfg: FitConfig = FitConfig(),
    *,
    extra_starts: Optional[Sequence[ErlParams]] = None,
) -> list[FitResult]:
    """Multi-start Nelder-Mead maximum likelihood for specs that share one
    number of free parameters, in one lock-step run; one FitResult per
    spec, in order.

    Each spec gets the starts of a fit of its own: the span heuristic,
    cfg.starts - 1 seeded log-uniform draws, and every point of
    extra_starts (e.g. fitted sub-models) that it admits.  All starts of
    all specs run as one _nelder_mead call, then the polish restarts
    (one per spec, from its best run) as a second.  A start takes the
    same steps whatever else shares its run, so each result is the fit
    of its spec alone.  Deterministic for a fixed cfg.seed.
    """
    k = specs[0].free_count
    if any(spec.free_count != k for spec in specs):
        raise ValueError("fit_level needs specs with one number of free parameters")
    if data.n <= k:
        raise ValueError(f"{specs[0].name}: need at least {k + 1} observations, got {data.n}")
    span = float(data.values[-1] - data.values[0])
    if span <= 0.0:
        span = max(1.0, abs(float(data.values[0])))
    free, values_at, objective = _objective(specs, data)

    rng = np.random.default_rng(cfg.seed)
    draws = [rng.uniform(math.log(1e-2), math.log(1e2), size=k) for _ in range(cfg.starts - 1)]
    starts: list[np.ndarray] = []
    owner: list[int] = []
    for model, spec in enumerate(specs):
        heuristic = [math.log(span) if name == "theta" else 0.0 for name in spec.free_names]
        spec_starts = [np.asarray(heuristic, dtype=np.float64), *draws]
        for params in extra_starts or ():
            full = params.values()
            offsets = [full[slot] - offset for slot, offset in free[model]]
            if spec.admits(params) and all(o > 0.0 for o in offsets):
                spec_starts.append(np.asarray([math.log(o) for o in offsets], dtype=np.float64))
        starts += spec_starts
        owner += [model] * len(spec_starts)
    z0, owner = np.array(starts), np.array(owner, dtype=np.intp)
    admissible = np.isfinite(objective(z0, owner))
    z0, owner = z0[admissible], owner[admissible]
    for model, spec in enumerate(specs):
        if model not in owner:
            raise ValueError(f"{spec.name}: no admissible starting point found")

    best_z = np.empty((len(specs), k))
    best_val = np.full(len(specs), math.inf)
    converged = np.zeros(len(specs), dtype=bool)

    def take(models, runs) -> None:
        # a spec's first run with the lowest value wins
        for model, res in zip(models, runs):
            converged[model] |= bool(res.success)
            if res.fun < best_val[model]:
                best_val[model], best_z[model] = res.fun, res.x

    main = _nelder_mead(lambda z, ids: objective(z, owner[ids]), z0, cfg.max_iters, cfg.tol)
    take(owner.tolist(), main)
    # one polish restart per spec: a fresh simplex around the winner often
    # shaves the last little bit the first pass left on the table
    take(range(len(specs)), _nelder_mead(objective, best_z, cfg.max_iters, cfg.tol))
    values = values_at(best_z, np.arange(len(specs)))
    return [
        FitResult(
            spec=spec,
            params=ErlParams.from_values(*row),
            nll=float(val),
            n=data.n,
            k=k,
            converged=bool(conv),
        )
        for spec, row, val, conv in zip(specs, values.tolist(), best_val.tolist(), converged)
    ]


def fit_mle(
    spec: ModelSpec,
    data: Dataset,
    cfg: FitConfig = FitConfig(),
    *,
    extra_starts: Optional[Sequence[ErlParams]] = None,
) -> FitResult:
    """Multi-start Nelder-Mead maximum likelihood for one model spec:
    fit_level of spec alone.

    Deterministic for a fixed cfg.seed.  extra_starts may carry full
    parameter points (e.g. fitted sub-models) used as additional warm
    starts when they satisfy this spec's constraints.
    """
    (fit,) = fit_level([spec], data, cfg, extra_starts=extra_starts)
    return fit


def _nelder_mead(f, x0: np.ndarray, maxiter: int, fatol: float) -> list[optimize.OptimizeResult]:
    """Nelder-Mead from every row of x0, shape (S, N), in lock-step.

    f(points, starts) maps an (m, N) array of points to their (m,)
    values, where starts[r] is the row of x0 that point r belongs to, so
    one run can hold starts of different objectives.  Every start takes
    exactly the steps of scipy.optimize.minimize(method="Nelder-Mead")
    with options maxiter, fatol and xatol=1e-8, but each step evaluates
    the reflections of all live starts in one call of f, then the
    expansion or contraction points of the starts that need one, then
    the shrunken vertices.  All live starts are on the same iteration; a
    start leaves the arrays when it converges.  Returns one
    OptimizeResult (x, fun, nit, success) per start, in order; success
    means it converged before maxiter, as in scipy.
    """
    n_starts, dim = x0.shape
    results: list = [None] * n_starts
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for j in range(dim):
        coord = sim[:, j + 1, j]
        sim[:, j + 1, j] = np.where(coord != 0, (1 + _NONZDELT) * coord, _ZDELT)
    ids = np.arange(n_starts)
    fsim = f(sim.reshape(-1, dim), np.repeat(ids, dim + 1)).reshape(n_starts, dim + 1)
    rows = ids[:, None]
    # scipy sorts the first simplex twice, and argsort is not stable
    for _ in range(2):
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    nit = 1

    def finish(i: int, success: bool) -> None:
        results[ids[i]] = optimize.OptimizeResult(
            x=sim[i, 0].copy(), fun=np.min(fsim[i]), nit=nit, success=success
        )

    with np.errstate(invalid="ignore"):  # inf - inf while a simplex is all +inf
        while nit < maxiter and ids.size:
            # each simplex is sorted, so scipy's max |f0 - fj| is fN - f0
            done = fsim[:, -1] - fsim[:, 0] <= fatol
            if done.any():
                spread = np.abs(sim[:, 1:] - sim[:, :1]).reshape(ids.size, -1).max(axis=1)
                done &= spread <= _XATOL
            if done.any():
                for i in np.flatnonzero(done):
                    finish(i, True)
                live = ~done
                sim, fsim, ids = sim[live], fsim[live], ids[live]
                rows = rows[: ids.size]
                if not ids.size:
                    break
            xbar = np.add.reduce(sim[:, :-1], 1) / dim
            worst = sim[:, -1]
            f_worst = fsim[:, -1]
            xr = (1 + _RHO) * xbar - _RHO * worst
            fxr = f(xr, ids)
            expand = fxr < fsim[:, 0]
            second = expand | ~(fxr < fsim[:, -2])
            outside = fxr < f_worst
            coef = _SECOND_POINT[np.where(expand, 0, np.where(outside, 1, 2))]
            x2 = coef[:, :1] * xbar - coef[:, 1:] * worst
            if second.all():
                f2 = f(x2, ids)
            else:
                f2 = np.full(ids.size, math.inf)
                if second.any():
                    f2[second] = f(x2[second], ids[second])
            take2 = second & np.where(expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < f_worst))
            shrink = second & ~(expand | take2)
            shrinking = shrink.any()
            if shrinking:
                best = sim[shrink, :1]
                shrunk = best + _SIGMA * (sim[shrink, 1:] - best)
            sim[:, -1] = np.where(take2[:, None], x2, xr)
            fsim[:, -1] = np.where(take2, f2, fxr)
            if shrinking:
                sim[shrink, 1:] = shrunk
                owners = np.repeat(ids[shrink], dim)
                fsim[shrink, 1:] = f(shrunk.reshape(-1, dim), owners).reshape(-1, dim)
            nit += 1
            order = np.argsort(fsim, axis=1)
            sim, fsim = sim[rows, order], fsim[rows, order]
    for i in range(ids.size):
        finish(i, False)
    return results


def standard_errors(fit: FitResult, data: Dataset) -> FitResult:
    """Attach finite-difference standard errors to a converged fit.

    The Hessian of the negative log-likelihood is taken in the original
    parameterization by centered differences.  Parameters whose rows
    contain non-finite entries (e.g. theta pinned at the support
    boundary) are dropped from the inversion and report None, matching
    the convention of quoting NA instead of a fabricated error bar.
    """
    if not fit.converged:
        raise ValueError("standard_errors requires a converged fit")
    spec = fit.spec
    free = np.asarray(spec.extract(fit.params), dtype=np.float64)
    k = free.size
    steps = 1e-4 * np.maximum(np.abs(free), 1e-3)

    # the whole stencil as one kernel call, its values read back below in
    # the order the points go in; a point that leaves the parameter space
    # (a value <= 0 or not finite) is +inf
    unit = np.diag(steps)
    points = [free]
    for i in range(k):
        points += [free + unit[i], free - unit[i]]
        for j in range(i + 1, k):
            points += [
                free + unit[i] + unit[j],
                free + unit[i] - unit[j],
                free - unit[i] + unit[j],
                free - unit[i] - unit[j],
            ]
    points = np.array(points)
    fixed = [float(spec.fixed_map.get(name, 0.0)) for name in PARAM_NAMES]
    rows = np.tile(fixed, (len(points), 1))
    rows[:, [PARAM_NAMES.index(name) for name in spec.free_names]] = points
    valid = np.all(np.isfinite(points) & (points > 0.0), axis=1)
    vals = np.full(len(points), math.inf)
    if valid.any():
        vals[valid] = _nll(rows[valid], data.values)
    f = iter(vals.tolist())

    hess = np.full((k, k), math.nan)
    f0 = next(f)
    for i in range(k):
        hess[i, i] = (next(f) - 2.0 * f0 + next(f)) / steps[i] ** 2
        for j in range(i + 1, k):
            hess[i, j] = hess[j, i] = (next(f) - next(f) - next(f) + next(f)) / (
                4.0 * steps[i] * steps[j]
            )

    se: list[Optional[float]] = [None] * k
    # a parameter at the support boundary (e.g. theta pinned near -min x)
    # poisons its own row and the cross terms of every other parameter;
    # drop by own curvature first, then prune leftover bad interactions
    usable = np.isfinite(np.diag(hess))
    while usable.any():
        idx = np.nonzero(usable)[0]
        bad = ~np.isfinite(hess[np.ix_(idx, idx)])
        if not bad.any():
            break
        usable[idx[np.argmax(bad.sum(axis=1))]] = False
    if usable.any():
        sub = hess[np.ix_(usable, usable)]
        try:
            cov = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            cov = None
        if cov is not None:
            diag = np.diag(cov)
            for pos, idx in enumerate(np.nonzero(usable)[0]):
                d = diag[pos]
                if math.isfinite(d) and d > 0.0:
                    se[idx] = math.sqrt(d)
    return replace(fit, se=tuple(se))
