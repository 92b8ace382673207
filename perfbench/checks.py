"""Output checks computed with numpy and scipy, without erlfit code.

Each check takes a parsed erlfit report plus what the benchmark knows
about the call (data, parameters, seed) and returns a list of problems;
an empty list means the report passed.  The reference values come from
an independent log-density built on scipy.special.betaln, the cdf
betainc(a, b, K(x)) and adaptive scipy.integrate.quad, or from
properties every correct report has (criteria arithmetic, AIC order,
nesting of the sub-models).  Nothing is compared against a stored copy
of an earlier report.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, special

LABELS = ("a", "b", "theta", "lambda", "beta")

# nll and EDF statistics agree with the references to about 1e-12 on
# correct code; the bars leave three orders of margin
NLL_RTOL = 1e-9
STAT_RTOL = 1e-9
CRITERIA_RTOL = 1e-12
# sub-model optima are warm starts of the larger models, so a larger
# model may not end above a sub-model by more than this
NESTING_ATOL = 1e-6
CDF_ATOL = 1e-11
GRID_ATOL = 1e-10
DENSITY_RTOL = 1e-10
MOMENT_RTOL = 1e-9
# P(sqrt(n) * D > 3) under the Kolmogorov limit law is 2 exp(-18) ~ 3e-8
KS_SAMPLE_BAR = 3.0
# (sub-model, larger model): the larger model's nll may not be higher
NESTED = (
    ("LRLD", "ERLD"), ("ExpRLD", "ERLD"), ("BLD", "ERLD"), ("BRD", "ERLD"),
    ("RLD", "ERLD"), ("ExpLD", "ERLD"),
    ("RLD", "LRLD"), ("RLD", "ExpRLD"), ("ExpLD", "BLD"),
)


def params_tuple(mapping) -> tuple[float, ...]:
    """(a, b, theta, lam, beta) from a report's label -> value mapping."""
    return tuple(float(mapping[label]) for label in LABELS)


def _t(x, theta, lam, beta):
    v = (theta + np.asarray(x, dtype=np.float64)) / theta
    with np.errstate(over="ignore"):
        return v, 0.5 * beta * np.power(v, 2.0 * lam)


def log_density(x, params):
    """ln g(x) on the support x > -theta, written out from the definition."""
    a, b, theta, lam, beta = params
    v, t = _t(x, theta, lam, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            (a - 1.0) * np.log(-np.expm1(-t))
            + math.log(beta * lam / theta)
            + (2.0 * lam - 1.0) * np.log(v)
            - b * t
            - special.betaln(a, b)
        )


def nll(x, params) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.min() <= -params[2]:
        return math.inf
    return -float(np.sum(log_density(x, params)))


def cdf(x, params):
    """betainc(a, b, K(x)) with K the Rayleigh-Lomax baseline cdf.

    Where K > 1/2 the identity I_K(a, b) = 1 - I_{1-K}(b, a) is used with
    1 - K = exp(-T) formed directly: K itself rounds to 1 once T > 37,
    while the law can keep mass there when b is small.
    """
    a, b, theta, lam, beta = params
    _, t = _t(x, theta, lam, beta)
    big_k = -np.expm1(-t)
    upper = big_k > 0.5
    return np.where(
        upper,
        1.0 - special.betainc(b, a, np.where(upper, np.exp(-t), 0.5)),
        special.betainc(a, b, np.where(upper, 0.5, big_k)),
    )


def _close(got, want, rtol, scale=1.0) -> bool:
    if got is None or not math.isfinite(want):
        return got == want
    return abs(got - want) <= rtol * max(scale, abs(want))


def fit_report(report, x, models) -> list[str]:
    """fit/compare: nll, criteria, AIC order, selection and nesting."""
    problems = []
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    summary = report["data_summary"]
    if (summary["n"], summary["min"], summary["max"]) != (n, x[0], x[-1]):
        problems.append(f"data_summary {summary} does not describe the input")
    names = [record["name"] for record in report["models"]]
    if sorted(names) != sorted(models):
        problems.append(f"reported models {names}, expected {sorted(models)}")
    nlls = {}
    for record in report["models"]:
        name = record["name"]
        params = params_tuple({**record["fixed"], **record["estimates"]})
        value = record["nll"]
        nlls[name] = value
        ref = nll(x, params)
        if not _close(value, ref, NLL_RTOL):
            problems.append(f"{name}: nll {value!r}, recomputed {ref!r}")
        k = len(record["estimates"])
        aic = 2.0 * value + 2.0 * k
        want = {
            "aic": aic,
            "bic": 2.0 * value + k * math.log(n),
            "hqic": 2.0 * value + 2.0 * k * math.log(math.log(n)),
            "caic": aic + 2.0 * k * (k + 1.0) / (n - k - 1.0),
        }
        for key, ref_value in want.items():
            if not _close(record[key], ref_value, CRITERIA_RTOL):
                problems.append(f"{name}: {key} {record[key]!r}, recomputed {ref_value!r}")
    aics = [record["aic"] for record in report["models"]]
    if aics != sorted(aics):
        problems.append("models are not sorted by AIC")
    best = min(report["models"], key=lambda record: record["aic"])["name"]
    if report["selected"] != best:
        problems.append(f"selected {report['selected']}, AIC minimum is {best}")
    for small, large in NESTED:
        if small in nlls and large in nlls and nlls[large] > nlls[small] + NESTING_ATOL:
            problems.append(f"nll {large} {nlls[large]!r} above its sub-model {small} {nlls[small]!r}")
    return problems


def not_above(report, x, params) -> list[str]:
    """A maximum-likelihood fit ends at or below the nll of the law that
    generated the data."""
    ref = nll(x, params)
    return [f"{record['name']}: fitted nll {record['nll']!r} above {ref!r} at the generating law"
            for record in report["models"] if record["nll"] > ref]


def _ks(z) -> float:
    """Kolmogorov-Smirnov D from the fitted probabilities of a sorted sample."""
    n = z.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - z), np.max(z - (i - 1) / n)))


def edf_stats(x, params):
    """KS D, Cramer-von Mises W^2 and Anderson-Darling A^2 of x."""
    z = cdf(np.sort(np.asarray(x, dtype=np.float64)), params)
    n = z.size
    i = np.arange(1, n + 1)
    ks = _ks(z)
    cvm = float(1.0 / (12.0 * n) + np.sum((z - (2.0 * i - 1.0) / (2.0 * n)) ** 2))
    ad = float(-n - np.sum((2.0 * i - 1.0) * (np.log(z) + np.log1p(-z[::-1]))) / n)
    return ks, cvm, ad


def gof_report(report, x, params) -> list[str]:
    """gof --params: EDF statistics, KS p-value and nll at the given law."""
    problems = []
    if params_tuple(report["model"]["params"]) != tuple(params):
        problems.append(f"gof reports params {report['model']['params']}, asked {params}")
    ref_nll = nll(x, params)
    if not _close(report["model"]["nll"], ref_nll, NLL_RTOL):
        problems.append(f"gof nll {report['model']['nll']!r}, recomputed {ref_nll!r}")
    stats = report["gof"]
    n = len(x)
    ks, cvm, ad = edf_stats(x, params)
    # the asymptotic series 2 sum (-1)^(j-1) exp(-2 j^2 n D^2) is the
    # Kolmogorov survival function at sqrt(n) D
    pvalue = float(special.kolmogorov(math.sqrt(n) * ks))
    for key, ref, scale in (("ks", ks, 0.0), ("cvm", cvm, 0.0), ("ad", ad, 0.0), ("ks_pvalue", pvalue, 1.0)):
        if not _close(stats[key], ref, STAT_RTOL, scale):
            problems.append(f"gof {key} {stats[key]!r}, recomputed {ref!r}")
    if stats["n"] != n:
        problems.append(f"gof n {stats['n']}, data has {n}")
    return problems


def curves_report(report, params, rows=512) -> list[str]:
    """curves: cdf against betainc and the probability grid, pdf against
    the independent density, cdf + survival = 1, hazard = pdf/survival."""
    problems = []
    x = np.asarray(report["x"], dtype=np.float64)
    cols = {key: np.asarray(report[key], dtype=np.float64) for key in ("pdf", "cdf", "survival", "hazard")}
    if x.size != rows or any(col.size != rows for col in cols.values()):
        return [f"curves table has {x.size} rows, expected {rows}"]
    if not np.all(np.diff(x) > 0.0):
        problems.append("curves x grid is not increasing")
    grid = np.linspace(0.001, 0.999, rows)
    comparisons = (
        ("cdf vs betainc(a, b, K(x))", np.abs(cols["cdf"] - cdf(x, params)), CDF_ATOL),
        ("cdf vs probability grid", np.abs(cols["cdf"] - grid), GRID_ATOL),
        ("cdf + survival - 1", np.abs(cols["cdf"] + cols["survival"] - 1.0), CDF_ATOL),
        ("pdf vs density (relative)", np.abs(cols["pdf"] / np.exp(log_density(x, params)) - 1.0), DENSITY_RTOL),
        ("hazard vs pdf/survival (relative)", np.abs(cols["hazard"] * cols["survival"] / cols["pdf"] - 1.0), DENSITY_RTOL),
    )
    for what, err, bar in comparisons:
        worst = float(np.max(err))
        if not worst <= bar:
            problems.append(f"curves {what}: max error {worst:.3e} > {bar:.0e}")
    return problems


def sample_report(report, params, n, seed) -> list[str]:
    """sample: size, seed echo, support and a KS test against the
    independent cdf at a Monte Carlo bar of sqrt(n) D <= 3."""
    values = np.sort(np.asarray(report["values"], dtype=np.float64))
    if (report["n"], report["seed"], values.size) != (n, seed, n):
        return [f"sample reports n={report['n']} seed={report['seed']} with {values.size} values"]
    if not values[0] > -params[2]:
        return ["sample has values outside the support"]
    d = _ks(cdf(values, params))
    if not math.sqrt(n) * d <= KS_SAMPLE_BAR:
        return [f"sample KS sqrt(n) D = {math.sqrt(n) * d:.3f} > {KS_SAMPLE_BAR}"]
    return []


def _beta_expectation(fn, params) -> float:
    """E[fn(Q(Y))] for Y ~ beta(a, b), by adaptive quad.

    Written in t = -ln(1 - y), where the beta density times dy is
    (1 - e^-t)^(a-1) e^(-b t) dt / B(a, b) and Q(y) is
    theta (2t/beta)^(1/(2 lam)) - theta; the integrand then has no
    end-point singularity for a >= 1.
    """
    a, b, theta, lam, beta = params

    def integrand(t):
        q = theta * (2.0 * t / beta) ** (0.5 / lam) - theta
        return fn(q) * math.exp((a - 1.0) * math.log(-math.expm1(-t)) - b * t) if t > 0.0 else 0.0

    value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return float(value / special.beta(a, b))


@functools.lru_cache(maxsize=None)
def moment_reference(params) -> dict:
    """Raw moments 1-4 and the moments and shape summaries built on the
    central moments, each from its own quad."""
    raw = {r: _beta_expectation(lambda q, r=r: q**r, params) for r in (1, 2, 3, 4)}
    mean = raw[1]
    mu = {k: _beta_expectation(lambda q, k=k: (q - mean) ** k, params) for k in (2, 3, 4)}
    sd = math.sqrt(mu[2])
    # quantity -> (reference, scale below which the error is absolute)
    return {
        **{f"raw.{r}": (value, 1.0) for r, value in raw.items()},
        "mean": (mean, sd),
        "variance": (mu[2], mu[2]),
        "mu3": (mu[3], sd**3),
        "mu4": (mu[4], mu[4]),
        "skewness": (mu[3] / sd**3, 1.0),
        "kurtosis_excess": (mu[4] / mu[2] ** 2 - 3.0, 1.0),
        "cv": (sd / mean, abs(sd / mean)),
    }


def moments_report(report, params) -> list[str]:
    """moments: raw moments against quad of Q(y)^r against the beta(a, b)
    density, the rest against quad of (Q(y) - mean)^k."""
    problems = []
    flat = {**{f"raw.{r}": value for r, value in report["raw"].items()}, **report}
    for key, (ref, scale) in moment_reference(tuple(params)).items():
        if not _close(flat[key], ref, MOMENT_RTOL, scale):
            problems.append(f"{key}: {flat[key]!r}, quad {ref!r}")
    return problems
