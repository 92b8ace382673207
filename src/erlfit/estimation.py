"""Maximum-likelihood estimation for the family and its sub-models.

The negative log-likelihood is assembled from the same log-density core
the pdf uses, as one kernel over rows of raw floats (a, b, theta, lam,
beta): _nll maps an (m, 5) array to m values, taking the rows in chunks
of at most 2^14 doubles per (rows, n) temporary.  Points at or outside
the support boundary make a row +inf, which is how the simplex search
learns about the theta constraint theta > -min(x).  Free parameters are
searched in log space (theta as ln(theta - shift) when the data dips
below zero), and the objective is built once per fit.

The search is multi-started from a span heuristic plus seeded
log-uniform draws, with a single polish restart of the best run.  All
starts run in lock-step in one in-house Nelder-Mead driver: the
simplices are one (S, k+1, k) array, every step evaluates the
reflections of all live starts in one kernel call (then the expansion
or contraction points, then any shrunken vertices, in one call each),
and a start leaves the arrays when it converges.  Each start takes
exactly scipy's default Nelder-Mead steps, so a fit is the one a loop
over scipy.optimize.minimize would give.  Standard errors come from a
centered finite-difference Hessian in the original parameterization;
parameters whose Hessian entries are unusable (boundary kinks, failed
inversions) report None rather than a made-up number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from .baseline import _transform
from .core import ErlParams, _log_density_v
from .specfun import digamma
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
    or the sum is not finite."""
    out = np.empty(len(values))
    step = max(1, _CHUNK_DOUBLES // x.size)
    for lo in range(0, len(values), step):
        rows = values[lo : lo + step]
        # parameter columns, one per row of (v, T); a lone row runs on
        # floats, where numpy's per-call overhead is lower
        a, b, theta, lam, beta = rows[0].tolist() if len(rows) == 1 else rows.T[:, :, None]
        v, t = _transform(x, theta, lam, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(_log_density_v(v, t, a, b, theta, lam, beta), axis=-1)
        inside = (x[0] > -np.ravel(theta)) & np.isfinite(total)
        out[lo : lo + step] = np.where(inside, -total, math.inf)
    return out


def score_ab(params: ErlParams, data: Dataset) -> tuple[float, float]:
    """Analytic score components for the shape pair (a, b).

    d l / d a = n [psi(a+b) - psi(a)] + sum ln K(x_i)
    d l / d b = n [psi(a+b) - psi(b)] + sum ln(1 - K(x_i))
    """
    _a, _b, theta, lam, beta = params.values()
    if data.values[0] <= -theta:
        raise ValueError("score_ab requires every point inside the support")
    _v, t = _transform(data.values, theta, lam, beta)
    log_big_k = np.log(-np.expm1(-t))
    log_comp_k = -t
    n = data.n
    common = digamma(params.a + params.b)
    d_a = n * (common - digamma(params.a)) + float(np.sum(log_big_k))
    d_b = n * (common - digamma(params.b)) + float(np.sum(log_comp_k))
    return (d_a, d_b)


def _theta_shift(data: Dataset) -> float:
    """Lower bound for theta implied by the support x > -theta."""
    lo = float(data.values[0])
    if lo >= 0.0:
        return 0.0
    return -lo * (1.0 + _BOUND_EPS) + _BOUND_EPS


def _objective(spec: ModelSpec, data: Dataset):
    """(free, values_at, objective) of spec's search over data.

    Free parameter i sits at values[slot_i] = offset_i + exp(z_i), with
    free = [(slot_i, offset_i)]; the offset is the theta shift for theta
    and 0 for the other four.  values_at maps rows of z, shape (m, k),
    to rows (a, b, theta, lam, beta), and objective maps them to nll.
    """
    shift = _theta_shift(data)
    free = [
        (PARAM_NAMES.index(name), shift if name == "theta" else 0.0)
        for name in spec.free_names
    ]
    fixed = spec.fixed_map
    base = np.array([float(fixed.get(name, 0.0)) for name in PARAM_NAMES])
    # values = base + exp(z) @ onehot: row i of onehot is 1 at the slot of
    # free parameter i, and base holds that slot's offset.  Every other
    # product is an exact zero (exp(z) is finite inside the box), so each
    # value is offset + exp(z_i) exactly
    onehot = np.zeros((len(free), len(PARAM_NAMES)))
    for i, (slot, offset) in enumerate(free):
        onehot[i, slot] = 1.0
        base[slot] = offset
    x = data.values

    def values_at(z: np.ndarray) -> np.ndarray:
        # libm's exp per element, as a lone float gets: np.exp may differ
        # in the last bit, and fits would then depend on the batch
        exp_z = np.fromiter(map(math.exp, z.ravel().tolist()), np.float64, z.size)
        return base + exp_z.reshape(z.shape) @ onehot

    def objective(z: np.ndarray) -> np.ndarray:
        # trust box: beyond e^30 the likelihood terms cancel at scales
        # where double precision returns noise, not likelihood; NaN fails too
        if np.abs(z).max(initial=0.0) <= _Z_BOUND:
            return _nll(values_at(z), x)
        inside = np.abs(z).max(axis=1) <= _Z_BOUND
        out = np.full(len(z), math.inf)
        if inside.any():
            out[inside] = _nll(values_at(z[inside]), x)
        return out

    return free, values_at, objective


def fit_mle(
    spec: ModelSpec,
    data: Dataset,
    cfg: FitConfig = FitConfig(),
    *,
    extra_starts: Optional[Sequence[ErlParams]] = None,
) -> FitResult:
    """Multi-start Nelder-Mead maximum likelihood for one model spec.

    Deterministic for a fixed cfg.seed.  extra_starts may carry full
    parameter points (e.g. fitted sub-models) used as additional warm
    starts when they satisfy this spec's constraints.
    """
    k = spec.free_count
    if data.n <= k:
        raise ValueError(f"{spec.name}: need at least {k + 1} observations, got {data.n}")
    span = float(data.values[-1] - data.values[0])
    if span <= 0.0:
        span = max(1.0, abs(float(data.values[0])))
    free, values_at, objective = _objective(spec, data)

    starts: list[np.ndarray] = []
    heuristic = [math.log(span) if name == "theta" else 0.0 for name in spec.free_names]
    starts.append(np.asarray(heuristic, dtype=np.float64))
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.starts - 1):
        starts.append(rng.uniform(math.log(1e-2), math.log(1e2), size=k))
    for params in extra_starts or ():
        full = params.values()
        offsets = [full[slot] - offset for slot, offset in free]
        if spec.admits(params) and all(o > 0.0 for o in offsets):
            starts.append(np.asarray([math.log(o) for o in offsets], dtype=np.float64))
    z0 = np.array(starts)
    z0 = z0[np.isfinite(objective(z0))]

    best_z: Optional[np.ndarray] = None
    best_val = math.inf
    converged = False
    for res in _nelder_mead(objective, z0, cfg.max_iters, cfg.tol):
        converged = converged or bool(res.success)
        if math.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            best_z = res.x
    if best_z is None:
        raise ValueError(f"{spec.name}: no admissible starting point found")
    # one polish restart: a fresh simplex around the winner often shaves
    # the last little bit the first pass left on the table
    (res,) = _nelder_mead(objective, best_z[None, :], cfg.max_iters, cfg.tol)
    converged = converged or bool(res.success)
    if math.isfinite(res.fun) and res.fun < best_val:
        best_val = float(res.fun)
        best_z = res.x
    return FitResult(
        spec=spec,
        params=ErlParams.from_values(*values_at(best_z[None, :])[0].tolist()),
        nll=best_val,
        n=data.n,
        k=k,
        converged=converged,
    )


def _nelder_mead(f, x0: np.ndarray, maxiter: int, fatol: float) -> list[optimize.OptimizeResult]:
    """Nelder-Mead from every row of x0, shape (S, N), in lock-step.

    f maps an (m, N) array of points to their (m,) values.  Every start
    takes exactly the steps of scipy.optimize.minimize(method=
    "Nelder-Mead") with options maxiter, fatol and xatol=1e-8, but each
    step evaluates the reflections of all live starts in one call of f,
    then the expansion or contraction points of the starts that need
    one, then the shrunken vertices.  All live starts are on the same
    iteration; a start leaves the arrays when it converges.  Returns one
    OptimizeResult (x, fun, nit, success) per start, in order; success
    means it converged before maxiter, as in scipy.
    """
    n_starts, dim = x0.shape
    results: list = [None] * n_starts
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for j in range(dim):
        coord = sim[:, j + 1, j]
        sim[:, j + 1, j] = np.where(coord != 0, (1 + _NONZDELT) * coord, _ZDELT)
    fsim = f(sim.reshape(-1, dim)).reshape(n_starts, dim + 1)
    rows = np.arange(n_starts)[:, None]
    # scipy sorts the first simplex twice, and argsort is not stable
    for _ in range(2):
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    ids = np.arange(n_starts)
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
            fxr = f(xr)
            expand = fxr < fsim[:, 0]
            second = expand | ~(fxr < fsim[:, -2])
            outside = fxr < f_worst
            coef = _SECOND_POINT[np.where(expand, 0, np.where(outside, 1, 2))]
            x2 = coef[:, :1] * xbar - coef[:, 1:] * worst
            if second.all():
                f2 = f(x2)
            else:
                f2 = np.full(ids.size, math.inf)
                if second.any():
                    f2[second] = f(x2[second])
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
                fsim[shrink, 1:] = f(shrunk.reshape(-1, dim)).reshape(-1, dim)
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

    def f(vals: np.ndarray) -> float:
        try:
            return nll(spec.embed(vals), data)
        except ValueError:
            return math.inf

    hess = np.full((k, k), math.nan)
    f0 = f(free)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        hess[i, i] = (f(free + ei) - 2.0 * f0 + f(free - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                f(free + ei + ej) - f(free + ei - ej) - f(free - ei + ej) + f(free - ei - ej)
            ) / (4.0 * steps[i] * steps[j])

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
