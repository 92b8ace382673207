"""Maximum-likelihood estimation for the family and its sub-models.

The negative log-likelihood is assembled from the same log-density core
the pdf uses, as one kernel over raw floats (a, b, theta, lam, beta);
points at or outside the support boundary make it +inf, which is how
the simplex search learns about the theta constraint theta > -min(x).
Free parameters are searched in log space (theta as ln(theta - shift)
when the data dips below zero).  The objective is built once per fit:
each evaluation fills a list of five floats and calls the kernel, with
no parameter objects in between.  The search is multi-started from a
span heuristic plus seeded log-uniform draws, with a single polish
restart of the best run.  Standard errors come from a centered
finite-difference Hessian in the original parameterization; parameters
whose Hessian entries are unusable (boundary kinks, failed inversions)
report None rather than a made-up number.
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
    return _nll(params.values(), data.values)


def _nll(values, x: np.ndarray) -> float:
    """nll at values = (a, b, theta, lam, beta) for data x sorted ascending."""
    a, b, theta, lam, beta = values
    if x[0] <= -theta:
        return math.inf
    v, t = _transform(x, theta, lam, beta)
    with np.errstate(over="ignore"):
        total = float(np.sum(_log_density_v(v, t, a, b, theta, lam, beta)))
    if not math.isfinite(total):
        return math.inf
    return -total


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
    # free parameter i sits at values[slot_i] = offset_i + exp(z_i); the
    # offset is the theta shift for theta and 0 for the other four
    shift = _theta_shift(data)
    free = [
        (PARAM_NAMES.index(name), shift if name == "theta" else 0.0)
        for name in spec.free_names
    ]
    fixed = spec.fixed_map
    template = [float(fixed.get(name, 0.0)) for name in PARAM_NAMES]
    x = data.values

    def values_at(z: np.ndarray) -> list[float]:
        values = template.copy()
        for (slot, offset), zi in zip(free, z.tolist()):
            values[slot] = offset + math.exp(zi)
        return values

    def objective(z: np.ndarray) -> float:
        # trust box: beyond e^30 the likelihood terms cancel at scales
        # where double precision returns noise, not likelihood; NaN fails too
        if not np.max(np.abs(z)) <= _Z_BOUND:
            return math.inf
        return _nll(values_at(z), x)

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

    best_z: Optional[np.ndarray] = None
    best_val = math.inf
    converged = False
    options = {"maxiter": cfg.max_iters, "fatol": cfg.tol, "xatol": 1e-8}
    for z0 in starts:
        if not math.isfinite(objective(z0)):
            continue
        res = optimize.minimize(objective, z0, method="Nelder-Mead", options=options)
        converged = converged or bool(res.success)
        if math.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            best_z = np.asarray(res.x)
    if best_z is None:
        raise ValueError(f"{spec.name}: no admissible starting point found")
    # one polish restart: a fresh simplex around the winner often shaves
    # the last little bit the first pass left on the table
    res = optimize.minimize(objective, best_z, method="Nelder-Mead", options=options)
    converged = converged or bool(res.success)
    if math.isfinite(res.fun) and res.fun < best_val:
        best_val = float(res.fun)
        best_z = np.asarray(res.x)
    return FitResult(
        spec=spec,
        params=ErlParams.from_values(*values_at(best_z)),
        nll=best_val,
        n=data.n,
        k=k,
        converged=converged,
    )


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
