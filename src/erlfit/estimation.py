"""Maximum-likelihood estimation for the family and its sub-models.

The log-likelihood depends on the data only through three sums,

    l = n ln(beta lam / theta) + (2 lam - 1) sum ln v_i
        + (a - 1) sum ln(1 - e^-T_i) - b sum T_i - n ln B(a, b),

so the kernel over rows of raw floats (a, b, theta, lam, beta) forms
ln v, T and ln(1 - e^-T) once per point (baseline._log_transform, as
the pdf, cdf and survival do), reduces that (3, rows, n) block to the
row sums and combines them with per-row scalars: _nll maps an (m, 5)
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
the widest model's number of free parameters; every step evaluates
the reflections of all live starts in one kernel call (then the
expansion or contraction points, then any shrunken vertices, in one
call each), and a start leaves the arrays when it converges, reaches
its own maxiter, or stops at a fixed point (a step that leaves its
sorted simplex and values bit for bit as they were, so that every later
step would repeat it; it ends as at maxiter).  Each start takes exactly
scipy's default Nelder-Mead steps, so a fit is the one a loop over
scipy.optimize.minimize would give.  On the bundled data, compare at
seed 0 takes 1,897 lock-step steps and 4,254 kernel calls carrying
120,412 parameter rows.

fit_ladder fits several models this way in one run, whatever their
numbers k of free parameters: _nelder_mead tells the objective which
start each point belongs to, the objective maps every row through its
own model's parameter map, and all rows go into one kernel call.  A
start joins the run as soon as its point exists: the heuristic and the
draws of every model at once, a warm start from the optimum of a model
with fewer free parameters when that fit is final, and a model's polish
as soon as it has a provisional winner, the first lowest of its runs so
far.  When a later run wins, the running polish ends and a new one
starts from the new winner; a fit is final once all its runs and the
polish from its final winner have finished.  Since a kernel row does not
depend on the batch it is evaluated in, a start's steps depend on its
own point alone, so that polish is the one started after the last run,
and each model's runs are reduced in its own start order: each model's
fit is exactly the one it gets alone; fit_mle is fit_ladder of one
model.

Standard errors come from a centered finite-difference Hessian in the
original parameterization, its stencil built as arrays and evaluated in
one kernel call; parameters whose Hessian entries are unusable (boundary
kinks, failed inversions) report None rather than a made-up number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import optimize, special

from .baseline import _log_transform
from .core import ErlParams
from .errors import InputError
from .neldermead import _nelder_mead, _pad
from .specfun import _integer, _log_beta
from .submodels import PARAM_NAMES, ModelSpec

_BOUND_EPS = 1e-9
# the likelihood kernel takes its rows in chunks of at most this many
# doubles per (rows, n) temporary, so a batch of trial points at large n
# costs little memory over a single one
_CHUNK_DOUBLES = 16384
# search box half-width in log-parameter space; e^30 ~ 1e13 comfortably
# covers any realistic estimate while keeping the arithmetic trustworthy
_Z_BOUND = 30.0
_MAX_ITERS = 2000
_FATOL = 1e-8
_THETA = PARAM_NAMES.index("theta")


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
    seed: int = 0

    def __post_init__(self):
        _integer(self.starts, 1, "FitConfig requires starts >= 1")
        _integer(self.seed, 0, "FitConfig requires seed >= 0")


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
            sum_log_v, sum_t, sum_log_k = np.add.reduce(
                _log_transform(x, theta[:, None], lam[:, None], beta[:, None]), axis=2
            )
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


def score_ab(params: ErlParams, data: Dataset) -> tuple[float, float]:
    """Analytic score components for the shape pair (a, b), from the
    sums the likelihood kernel reads.

    d l / d a = n [psi(a+b) - psi(a)] + sum ln K(x_i)
    d l / d b = n [psi(a+b) - psi(b)] + sum ln(1 - K(x_i)),  ln(1 - K) = -T
    """
    _a, _b, theta, lam, beta = params.values()
    if data.values[0] <= -theta:
        raise ValueError("score_ab requires every point inside the support")
    with np.errstate(over="ignore"):
        _sum_log_v, sum_t, sum_log_k = np.add.reduce(
            _log_transform(data.values, theta, lam, beta), axis=1
        )
    n = data.n
    common = special.psi(params.a + params.b)
    d_a = float(n * (common - special.psi(params.a)) + sum_log_k)
    d_b = float(n * (common - special.psi(params.b)) - sum_t)
    return (d_a, d_b)


def _theta_shift(data: Dataset) -> float:
    """Lower bound for theta implied by the support x > -theta."""
    lo = float(data.values[0])
    if lo >= 0.0:
        return 0.0
    return -lo * (1.0 + _BOUND_EPS) + _BOUND_EPS


def _objective(specs: Sequence[ModelSpec], data: Dataset):
    """(start_at, values_at, objective) of the search of specs over data.

    Free parameter i of spec s sits at values[slot] = offset + exp(z_i),
    slot = s.slots[i]; the offset is the theta shift for theta and 0 for
    the other four.  values_at(z, models) maps rows of z, shape (m, w), to
    rows (a, b, theta, lam, beta), row r through the map of
    specs[models[r]], which reads the first k of the w columns (the specs
    may differ in k; the columns past a row's k are padding, which it does
    not read); objective(z, models) maps them to nll, all rows in one
    kernel call.  start_at(model, params) is the inverse of that map for
    specs[model]: the z at params, or None where params break one of its
    fixed values or put a free value at or below its offset.
    """
    shift = _theta_shift(data)
    # base holds each spec's fixed values and, at its free slots, their
    # offsets, so that adding exp(z_i) at free slot i gives offset_i + exp(z_i)
    base = np.array([spec.row for spec in specs])
    is_free = np.array([[slot in spec.slots for slot in range(len(PARAM_NAMES))] for spec in specs])
    base[is_free[:, _THETA], _THETA] = shift
    counts = np.array([spec.free_count for spec in specs])
    x = data.values

    def values_at(z: np.ndarray, models: np.ndarray) -> np.ndarray:
        # each row's first k columns fill its free slots in order, through
        # libm's exp per element: np.exp's last bit may depend on the batch
        live = z[np.arange(z.shape[1]) < counts[models][:, None]]
        values = base[models]
        values[is_free[models]] += np.fromiter(map(math.exp, live.tolist()), np.float64, live.size)
        return values

    def objective(z: np.ndarray, models: np.ndarray) -> np.ndarray:
        # trust box: beyond e^30 the likelihood terms cancel at scales
        # where double precision returns noise, not likelihood; NaN fails too
        inside = (np.abs(z) <= _Z_BOUND).all(axis=1)
        out = np.full(len(z), math.inf)
        if inside.any():
            out[inside] = _nll(values_at(z[inside], models[inside]), x)
        return out

    def start_at(model: int, params: ErlParams) -> Optional[np.ndarray]:
        spec, offsets, full = specs[model], base[model].tolist(), params.values()
        gaps = [full[slot] - offsets[slot] for slot in spec.slots]
        if spec.admits(params) and all(gap > 0.0 for gap in gaps):
            return np.array([math.log(gap) for gap in gaps])
        return None

    return start_at, values_at, objective


def fit_ladder(specs: Sequence[ModelSpec], data: Dataset, cfg: FitConfig) -> list[FitResult]:
    """Multi-start Nelder-Mead maximum likelihood for every spec, in one
    lock-step run; one FitResult per spec, in order.

    Each spec gets the starts of a fit of its own, in this order: the
    span heuristic; cfg.starts - 1 seeded log-uniform draws, the same for
    every spec with its number k of free parameters; and the optimum of
    every spec with fewer free parameters that it admits (a warm start),
    in the order of specs.  A start whose likelihood is not finite is
    dropped.  The best run then gets one polish restart.

    All of it is one _nelder_mead run, in which each start joins as soon
    as its point exists: the heuristic and the draws at once, a warm
    start when the fit it comes from is final, and a spec's polish from
    its provisional winner, the first lowest of its finished runs, as
    soon as there is one.  When a later run becomes the winner,
    the running polish ends (it leaves the run with no result) and a new
    one starts from the new winner.  A fit is final when all its runs and
    the polish from its final winner have finished, never later than if
    the polish had waited for the last run.  A start takes the same steps
    whatever else shares the run and whenever it joins, and each spec's
    runs are reduced in the order above (the first lowest value wins,
    then the polish if it is lower still), so each result is the fit of
    its spec alone from those starts.  A fit is converged when the run
    it reports, that winner or the polish, met the stopping rule before
    maxiter.  Deterministic for a fixed cfg.seed.
    """
    for spec in specs:
        if data.n <= spec.free_count:
            raise InputError(
                f"{spec.name}: need at least {spec.free_count + 1} observations, got {data.n}"
            )
    span = float(data.values[-1] - data.values[0])
    if span <= 0.0:
        span = max(1.0, abs(float(data.values[0])))
    start_at, values_at, objective = _objective(specs, data)
    # the widest spec's k, even while none of its own starts has joined
    width = max(spec.free_count for spec in specs)
    draws = {}
    for k in {spec.free_count for spec in specs}:
        rng = np.random.default_rng(cfg.seed)
        draws[k] = [rng.uniform(math.log(1e-2), math.log(1e2), size=k) for _ in range(cfg.starts - 1)]

    # runs[s] holds spec s's starts in reduction order, then its polish:
    # None while a start runs or its point does not exist yet, False once
    # it is dropped, and then its OptimizeResult; lower[s] are the specs
    # that warm-start it, whose entries come just before the polish
    lower = [
        [t for t, other in enumerate(specs) if other.free_count < spec.free_count]
        for spec in specs
    ]
    candidates = []
    runs: list[list] = []
    for model, spec in enumerate(specs):
        heuristic = [math.log(span) if slot == _THETA else 0.0 for slot in spec.slots]
        points = [np.array(heuristic), *draws[spec.free_count]]
        candidates += [(model, entry, z) for entry, z in enumerate(points)]
        runs.append([None] * (len(points) + len(lower[model]) + 1))
    # per spec: its provisional winner and the start of the polish from it
    best: list[Optional[optimize.OptimizeResult]] = [None] * len(specs)
    polish: list[Optional[int]] = [None] * len(specs)
    fits: list[Optional[FitResult]] = [None] * len(specs)
    # (spec, entry in runs) of every start, in the order the starts join
    # the run, and the specs as an array for f
    roles: list[tuple[int, int]] = []
    owners = np.empty(0, dtype=np.intp)

    def launch(todo) -> tuple[list[np.ndarray], list[int]]:
        """The points of the starts that join now: the candidates (spec,
        entry, z) in todo that are finite, a polish from every new
        provisional winner and the finite warm starts from every fit that
        is now final; and the polishes that end because their spec's
        provisional winner changed."""
        nonlocal owners
        points, ended = [], []
        while True:
            if todo:
                models = np.array([model for model, _entry, _z in todo], dtype=np.intp)
                finite = np.isfinite(objective(_pad([z for *_, z in todo], width), models))
                for (model, entry, z), ok in zip(todo, finite):
                    if ok:
                        roles.append((model, entry))
                        points.append(z)
                    else:
                        runs[model][entry] = False
                todo = []
            for model, spec_runs in enumerate(runs):
                if fits[model] is not None:
                    continue
                finished = [run for run in spec_runs[:-1] if run is not None and run is not False]
                if not finished:
                    if None not in spec_runs[:-1]:
                        raise ValueError(f"{specs[model].name}: no admissible starting point found")
                    continue
                # a fresh simplex around the winner often shaves the last
                # little bit the first pass left on the table; it starts
                # from the first lowest run so far and again whenever that
                # changes, so the one from the final winner is never late
                lead = min(finished, key=lambda run: run.fun)
                if lead is not best[model]:
                    if polish[model] is not None:
                        ended.append(polish[model])
                    best[model], polish[model], spec_runs[-1] = lead, len(roles), None
                    roles.append((model, len(spec_runs) - 1))
                    points.append(lead.x)
                    continue
                if None in spec_runs:
                    continue
                # on a tie the winner stays
                final = min((lead, spec_runs[-1]), key=lambda run: run.fun)
                row = values_at(final.x[None, :], np.array([model]))[0]
                fits[model] = FitResult(
                    spec=specs[model],
                    params=ErlParams(*row.tolist()),
                    nll=float(final.fun),
                    n=data.n,
                    k=specs[model].free_count,
                    converged=final.success,
                )
                for other, sources in enumerate(lower):
                    if model in sources:
                        z = start_at(other, fits[model].params)
                        entry = len(runs[other]) - 1 - len(sources) + sources.index(model)
                        if z is None:
                            runs[other][entry] = False
                        else:
                            todo.append((other, entry, z))
            if not todo:
                break
        owners = np.array([model for model, _entry in roles], dtype=np.intp)
        return points, ended

    def join(done) -> tuple[list[np.ndarray], list[int]]:
        for start, run in done:
            model, entry = roles[start]
            runs[model][entry] = run
        return launch([])

    _nelder_mead(
        lambda z, starts: objective(z, owners[starts]),
        launch(candidates)[0],
        width,
        _MAX_ITERS,
        _FATOL,
        join=join,
    )
    return fits


def fit_mle(spec: ModelSpec, data: Dataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Multi-start Nelder-Mead maximum likelihood for one model spec:
    fit_ladder of spec alone, so its starts are the span heuristic and
    the seeded draws, and it is converged when its reported run is.
    Deterministic for a fixed cfg.seed.
    """
    (fit,) = fit_ladder([spec], data, cfg)
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

    # the whole stencil as one kernel call: the centre, +- a step along
    # each axis, then the four +- corners of each pair i < j; a point that
    # leaves the parameter space (a value <= 0 or not finite) is +inf
    unit = np.diag(steps)
    i, j = np.triu_indices(k, 1)
    corners = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    points = np.concatenate(
        [free[None, :], free + unit, free - unit]
        + [free + si * unit[i] + sj * unit[j] for si, sj in corners]
    )
    rows = np.tile(spec.row, (len(points), 1))
    rows[:, list(spec.slots)] = points
    valid = np.all(np.isfinite(points) & (points > 0.0), axis=1)
    vals = np.full(len(points), math.inf)
    vals[valid] = _nll(rows[valid], data.values)
    plus, minus = vals[1 : k + 1], vals[k + 1 : 2 * k + 1]
    pp, pm, mp, mm = vals[2 * k + 1 :].reshape(4, -1)

    hess = np.empty((k, k))
    # a +inf point makes its entries NaN, which the pruning drops; float_power
    # squares by libm's pow, as float ** 2 does, and steps ** 2 may differ by 1 ulp
    with np.errstate(invalid="ignore", over="ignore"):
        hess[np.diag_indices(k)] = (plus - 2.0 * vals[0] + minus) / np.float_power(steps, 2)
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * steps[i] * steps[j])

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
