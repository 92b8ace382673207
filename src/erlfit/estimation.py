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
starts run in lock-step in one in-house Nelder-Mead optimizer
(neldermead._nelder_mead): the simplices are one (S, k+1, k) array, k
the largest number of free parameters among them; every step evaluates
the reflections of all live starts in one kernel call (then the
expansion or contraction points, then any shrunken vertices, in one
call each), and a start leaves the arrays when it converges or reaches
its own maxiter.  Each start takes exactly scipy's default Nelder-Mead
steps, so a fit is the one a loop over scipy.optimize.minimize would
give.

fit_ladder fits several models this way in one run, whatever their
numbers k of free parameters: _nelder_mead tells the objective which
start each point belongs to, the objective maps every row through its
own model's parameter map, and all rows go into one kernel call.  A
start joins the run as soon as its point exists: the heuristic and the
draws of every model at once, a warm start from the optimum of a model
with fewer free parameters when that fit is final, and a model's polish
when its last start has finished.  Since a kernel row does not depend
on the batch it is evaluated in, and each model's runs are reduced in
its own start order, each model's fit is exactly the one it gets alone;
fit_mle is fit_ladder of one model.

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
from .neldermead import _nelder_mead, _pad
from .specfun import _log_beta, digamma
from .submodels import PARAM_NAMES, ModelSpec

_BOUND_EPS = 1e-9
# the likelihood kernel takes its rows in chunks of at most this many
# doubles per (rows, n) temporary, so a batch of trial points at large n
# costs little memory over a single one
_CHUNK_DOUBLES = 16384
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


def _sums(x: np.ndarray, theta: np.ndarray, lam: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(sum ln v, sum T, sum ln(1 - e^-T)) over x at each entry of theta,
    lam and beta, shape (m,): the data part of the log-likelihood, and
    of the (a, b) score, as a (3, m) array.  The three (m, n) terms go
    into one work array and are summed in one reduction.  The caller
    sets np.errstate."""
    work = np.empty((3, theta.size, x.size))
    _log_transform(x, theta[:, None], lam[:, None], beta[:, None], out=work[:2])
    t, log_big_k = work[1], work[2]
    np.negative(t, out=log_big_k)
    np.expm1(log_big_k, out=log_big_k)
    np.negative(log_big_k, out=log_big_k)
    np.log(log_big_k, out=log_big_k)
    return np.add.reduce(work, axis=2)


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

    Free parameter i of spec s sits at values[slot] = offset + exp(z_i),
    with free[s][i] = (slot, offset); the offset is the theta shift for
    theta and 0 for the other four.  values_at(z, models) maps rows of z,
    shape (m, w), to rows (a, b, theta, lam, beta), row r through the map
    of specs[models[r]], which reads the first k of the w columns (the
    specs may differ in k; the columns past a row's k are padding and
    must be finite); objective(z, models) maps them to nll, all rows in
    one kernel call.
    """
    shift = _theta_shift(data)
    free = [
        [(PARAM_NAMES.index(name), shift if name == "theta" else 0.0) for name in spec.free_names]
        for spec in specs
    ]
    # base holds each spec's fixed values and, at its free slots, their
    # offsets, so that adding exp(z_i) at slot_i gives offset_i + exp(z_i);
    # its last column is a spare that takes the padding of narrower specs
    spare = len(PARAM_NAMES)
    base = np.zeros((len(specs), spare + 1))
    slots = np.full((len(specs), max(len(spec_free) for spec_free in free)), spare, dtype=np.intp)
    for row, spec_slots, spec, spec_free in zip(base, slots, specs, free):
        for name, value in spec.fixed:
            row[PARAM_NAMES.index(name)] = value
        for i, (slot, offset) in enumerate(spec_free):
            row[slot] = offset
            spec_slots[i] = slot
    x = data.values

    def values_at(z: np.ndarray, models: np.ndarray) -> np.ndarray:
        # libm's exp per element, as a lone float gets: np.exp may differ
        # in the last bit, and fits would then depend on the batch
        exp_z = np.fromiter(map(math.exp, z.ravel().tolist()), np.float64, z.size)
        values = base[models]
        values[np.arange(len(z))[:, None], slots[models, : z.shape[1]]] += exp_z.reshape(z.shape)
        return np.ascontiguousarray(values[:, :spare])

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


def fit_ladder(
    specs: Sequence[ModelSpec],
    data: Dataset,
    cfg: FitConfig = FitConfig(),
    *,
    extra_starts: Optional[Sequence[ErlParams]] = None,
) -> list[FitResult]:
    """Multi-start Nelder-Mead maximum likelihood for every spec, in one
    lock-step run; one FitResult per spec, in order.

    Each spec gets the starts of a fit of its own, in this order: the
    span heuristic; cfg.starts - 1 seeded log-uniform draws, the same for
    every spec with its number k of free parameters; every point of
    extra_starts that it admits; and the optimum of every spec with
    fewer free parameters that it admits (a warm start), in the order of
    specs.  A start whose likelihood is not finite is dropped.  The best
    run then gets one polish restart.

    All of it is one _nelder_mead run, in which each start joins as soon
    as its point exists: the heuristic, the draws and extra_starts at
    once, a warm start when the fit it comes from is final, and a spec's
    polish when its last start has finished.  A start takes the same
    steps whatever else shares the run, and each spec's runs are reduced
    in the order above (the first lowest value wins, then the polish if
    it is lower still), so each result is the fit of its spec alone from
    those starts.  Deterministic for a fixed cfg.seed.
    """
    for spec in specs:
        if data.n <= spec.free_count:
            raise ValueError(
                f"{spec.name}: need at least {spec.free_count + 1} observations, got {data.n}"
            )
    span = float(data.values[-1] - data.values[0])
    if span <= 0.0:
        span = max(1.0, abs(float(data.values[0])))
    free, values_at, objective = _objective(specs, data)
    draws = {}
    for k in {spec.free_count for spec in specs}:
        rng = np.random.default_rng(cfg.seed)
        draws[k] = [rng.uniform(math.log(1e-2), math.log(1e2), size=k) for _ in range(cfg.starts - 1)]

    def warm(model: int, params: ErlParams) -> Optional[np.ndarray]:
        # the start of specs[model] at params, or None if it does not admit them
        full = params.values()
        offsets = [full[slot] - offset for slot, offset in free[model]]
        if specs[model].admits(params) and all(o > 0.0 for o in offsets):
            return np.array([math.log(o) for o in offsets])
        return None

    # runs[s] holds spec s's starts in reduction order: None while a start
    # runs or its point does not exist yet, False once it is dropped, and
    # then its OptimizeResult; lower[s] are the specs that warm-start it,
    # whose entries close runs[s]
    lower = [
        [t for t, other in enumerate(specs) if other.free_count < spec.free_count]
        for spec in specs
    ]
    candidates = []
    runs: list[list] = []
    for model, spec in enumerate(specs):
        heuristic = [math.log(span) if name == "theta" else 0.0 for name in spec.free_names]
        points = [np.array(heuristic), *draws[spec.free_count]]
        points += [z for z in (warm(model, p) for p in extra_starts or ()) if z is not None]
        candidates += [(model, entry, z) for entry, z in enumerate(points)]
        runs.append([None] * (len(points) + len(lower[model])))
    best: list[Optional[optimize.OptimizeResult]] = [None] * len(specs)
    fits: list[Optional[FitResult]] = [None] * len(specs)
    # (spec, entry in runs, or None for a polish) of every start, in the
    # order the starts join the run, and the specs as an array for f
    roles: list[tuple[int, Optional[int]]] = []
    owners = np.empty(0, dtype=np.intp)

    def launch(candidates) -> list[np.ndarray]:
        """The points of the candidates (spec, entry, z) that are finite,
        and the polish of every spec whose starts have all finished."""
        nonlocal owners
        points = []
        if candidates:
            models = np.array([model for model, _entry, _z in candidates], dtype=np.intp)
            finite = np.isfinite(objective(_pad([z for *_, z in candidates]), models))
            for (model, entry, z), ok in zip(candidates, finite):
                if ok:
                    roles.append((model, entry))
                    points.append(z)
                else:
                    runs[model][entry] = False
        for model, spec_runs in enumerate(runs):
            if best[model] is None and None not in spec_runs:
                finished = [run for run in spec_runs if run is not False]
                if not finished:
                    raise ValueError(f"{specs[model].name}: no admissible starting point found")
                # a fresh simplex around the winner often shaves the last
                # little bit the first pass left on the table
                best[model] = min(finished, key=lambda run: run.fun)
                roles.append((model, None))
                points.append(best[model].x)
        owners = np.array([model for model, _entry in roles], dtype=np.intp)
        return points

    def join(done) -> list[np.ndarray]:
        candidates = []
        for start, run in done:
            model, entry = roles[start]
            if entry is not None:
                runs[model][entry] = run
                continue
            final = run if run.fun < best[model].fun else best[model]
            converged = run.success or any(r is not False and r.success for r in runs[model])
            row = values_at(final.x[None, :], np.array([model]))[0]
            fits[model] = FitResult(
                spec=specs[model],
                params=ErlParams.from_values(*row.tolist()),
                nll=float(final.fun),
                n=data.n,
                k=specs[model].free_count,
                converged=bool(converged),
            )
            for other, sources in enumerate(lower):
                if model in sources:
                    z = warm(other, fits[model].params)
                    entry = len(runs[other]) - len(sources) + sources.index(model)
                    if z is None:
                        runs[other][entry] = False
                    else:
                        candidates.append((other, entry, z))
        return launch(candidates)

    _nelder_mead(
        lambda z, starts: objective(z, owners[starts]),
        launch(candidates),
        cfg.max_iters,
        cfg.tol,
        join=join,
    )
    return fits


def fit_mle(
    spec: ModelSpec,
    data: Dataset,
    cfg: FitConfig = FitConfig(),
    *,
    extra_starts: Optional[Sequence[ErlParams]] = None,
) -> FitResult:
    """Multi-start Nelder-Mead maximum likelihood for one model spec:
    fit_ladder of spec alone.

    Deterministic for a fixed cfg.seed.  extra_starts may carry full
    parameter points (e.g. fitted sub-models) used as additional warm
    starts when they satisfy this spec's constraints.
    """
    (fit,) = fit_ladder([spec], data, cfg, extra_starts=extra_starts)
    return fit


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
