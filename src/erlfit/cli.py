"""Batch command-line interface.

Subcommands: fit, compare, gof, sample, curves, moments.  Each fit and
compare model record carries KS, its p-value, CvM and AD at its
estimate; gof gives them for a fixed law (--params).  Input files hold
one numeric value per line (or a single-column CSV whose optional
header line is skipped).  Reports are JSON (full float precision) or
CSV (6 significant digits), and each CSV table is read off its JSON
report: one row per model record for fit and compare, the list-valued
columns for curves, the dotted leaves as quantity,value for gof and
moments, one full-precision draw per line for sample.  Exit codes:
0 success, 1 input error or an output file that cannot be written, 2 at
least one requested fit failed to converge, 3 internal numerical error.
fit, compare and sample take --seed (seeded starts or draws) and are
byte-reproducible for a fixed one; gof, curves and moments draw nothing
and are deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .core import (
    ErlParams,
    central_from_raw,
    erl_cdf,
    erl_hazard,
    erl_pdf,
    erl_quantile,
    erl_raw_moment,
    erl_sample,
    erl_survival,
    shape_summaries,
)
from .errors import InputError, NumericalError
from .estimation import (
    Dataset,
    FitConfig,
    FitResult,
    fit_ladder,
    nll,
    standard_errors,
)
from .gof import gof_report, info_criteria, sample_kurtosis, sample_skewness
from .submodels import DEFAULT_COMPARE, PARAM_LABELS, ModelSpec, get_model

# floats formatted per join when a report writes a list of them
_BLOCK = 4096
_FINITE_FLOATS = json.JSONEncoder(allow_nan=False)

# documented shape of fit/compare reports (JSON Schema draft 2020-12)
REPORT_SCHEMA = {
    "type": "object",
    "required": ["data_summary", "models", "selected"],
    "properties": {
        "data_summary": {
            "type": "object",
            "required": ["n", "min", "max", "skewness", "kurtosis"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "min": {"type": "number"},
                "max": {"type": "number"},
                "skewness": {"type": ["number", "null"]},
                "kurtosis": {"type": ["number", "null"]},
            },
        },
        "models": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "name", "estimates", "fixed", "se",
                    "nll", "aic", "caic", "hqic", "bic", "converged",
                    "ks", "ks_pvalue", "cvm", "ad",
                ],
                "properties": {
                    "name": {"type": "string"},
                    "estimates": {
                        "type": "object",
                        "additionalProperties": {"type": "number"},
                    },
                    "fixed": {
                        "type": "object",
                        "additionalProperties": {"type": "number"},
                    },
                    "se": {
                        "type": "object",
                        "additionalProperties": {"type": ["number", "null"]},
                    },
                    "nll": {"type": "number"},
                    "aic": {"type": "number"},
                    "caic": {"type": ["number", "null"]},
                    "hqic": {"type": "number"},
                    "bic": {"type": "number"},
                    "converged": {"type": "boolean"},
                    "ks": {"type": "number"},
                    "ks_pvalue": {"type": "number"},
                    "cvm": {"type": "number"},
                    "ad": {"type": "number"},
                },
            },
        },
        "selected": {"type": "string"},
    },
}


def ingest(path: str) -> Dataset:
    """Read one numeric value per line; a single leading non-numeric
    line is treated as a CSV header and skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read input file {path!r}: {exc}") from exc
    values: list[float] = []
    problems: list[str] = []
    header = next((i for i, line in enumerate(raw_lines, start=1) if line.strip()), None)
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text:
            continue
        if "," in text:
            fields = [f for f in text.split(",") if f.strip()]
            if len(fields) != 1:
                problems.append(f"line {lineno}: expected a single column, got {line!r}")
                continue
            text = fields[0].strip()
        try:
            value = float(text)
        except ValueError:
            if lineno == header:
                continue  # header
            problems.append(f"line {lineno}: {text!r} is not numeric")
            continue
        if not math.isfinite(value):
            problems.append(f"line {lineno}: non-finite value {text!r}")
            continue
        values.append(value)
    if problems:
        raise InputError("; ".join(problems))
    if not values:
        raise InputError(f"no numeric data found in {path!r}")
    return Dataset(np.asarray(values))


def _data_summary(data: Dataset) -> dict:
    return {
        "n": data.n,
        "min": float(data.values[0]),
        "max": float(data.values[-1]),
        "skewness": sample_skewness(data),
        "kurtosis": sample_kurtosis(data),
    }


def _edf_statistics(data: Dataset, params: ErlParams) -> dict:
    """KS, its p-value, CvM and AD of the law at params against data."""
    report = gof_report(data, lambda x: erl_cdf(x, params))
    return {"ks": report.ks, "ks_pvalue": report.ks_pvalue, "cvm": report.cvm, "ad": report.ad}


def _model_record(fit: FitResult, data: Dataset) -> dict:
    spec = fit.spec
    crit = info_criteria(fit.nll, fit.k, fit.n)
    estimates = {
        PARAM_LABELS[name]: value
        for name, value in zip(spec.free_names, spec.extract(fit.params))
    }
    se_values = fit.se if fit.se is not None else (None,) * fit.k
    se = {PARAM_LABELS[name]: err for name, err in zip(spec.free_names, se_values)}
    return {
        "name": spec.name,
        "estimates": estimates,
        "fixed": {PARAM_LABELS[name]: value for name, value in spec.fixed},
        "se": se,
        "nll": fit.nll,
        "aic": crit.aic,
        "caic": crit.caic,
        "hqic": crit.hqic,
        "bic": crit.bic,
        "converged": fit.converged,
        **_edf_statistics(data, fit.params),
    }


def _fit_models(data: Dataset, specs: Sequence[ModelSpec], cfg: FitConfig) -> list[FitResult]:
    """Fit the specs as one ladder, in ascending number of free
    parameters k and within one k in name order, and attach standard
    errors to the converged fits.

    fit_ladder runs every start of every spec in one lock-step search.
    Each spec is warm-started from every optimum of a lower level that
    it admits, as soon as that optimum is final; fits of its own level
    are not offered.
    """
    ladder = sorted(specs, key=lambda spec: (spec.free_count, spec.name))
    return [
        standard_errors(fit, data) if fit.converged else fit
        for fit in fit_ladder(ladder, data, cfg)
    ]


def run_compare(data: Dataset, specs: Sequence[ModelSpec], cfg: FitConfig) -> dict:
    """Fit every requested spec and build the comparison report,
    sorted ascending by AIC with the minimal-AIC model selected."""
    fits = _fit_models(data, specs, cfg)
    records = [_model_record(f, data) for f in fits]
    records.sort(key=lambda r: r["aic"])
    return {
        "data_summary": _data_summary(data),
        "models": records,
        "selected": records[0]["name"],
    }


def run_gof(data: Dataset, params: ErlParams) -> dict:
    return {
        "data_summary": _data_summary(data),
        "model": {
            "name": "fixed",
            "params": _params_dict(params),
            "nll": nll(params, data),
        },
        "gof": {"n": data.n, **_edf_statistics(data, params)},
    }


def run_curves(params: ErlParams) -> dict:
    """Distribution curves on a quantile-adaptive grid of 512 points
    from the 0.001 to the 0.999 quantile."""
    probs = np.linspace(0.001, 0.999, 512)
    x = np.asarray(erl_quantile(probs, params))
    return {
        "params": _params_dict(params),
        "x": x.tolist(),
        "pdf": np.asarray(erl_pdf(x, params)).tolist(),
        "cdf": np.asarray(erl_cdf(x, params)).tolist(),
        "survival": np.asarray(erl_survival(x, params)).tolist(),
        "hazard": np.asarray(erl_hazard(x, params)).tolist(),
    }


def run_moments(params: ErlParams) -> dict:
    raw = [erl_raw_moment(r, params) for r in (1, 2, 3, 4)]
    central = central_from_raw(raw)
    mean, mu2, mu3, mu4 = central
    skewness, kurtosis, cv = shape_summaries(central)
    return {
        "params": _params_dict(params),
        "raw": {str(r): value for r, value in enumerate(raw, start=1)},
        "mean": mean,
        "variance": mu2,
        "mu3": mu3,
        "mu4": mu4,
        "skewness": skewness,
        "kurtosis_excess": kurtosis,
        "cv": cv,
    }


def run_sample(params: ErlParams, n: int, seed: int) -> dict:
    draws = erl_sample(n, params, seed)
    return {
        "params": _params_dict(params),
        "seed": seed,
        "n": n,
        "values": draws.tolist(),
    }


def _params_dict(params: ErlParams) -> dict:
    return dict(zip(PARAM_LABELS.values(), params.values()))


def _float_blocks(values, sep: str, null: str):
    """float.__repr__ of every value, joined by sep, as one string per
    _BLOCK values with sep yielded between them; a non-finite value is
    written as null.

    An all-finite block goes through json's C encoder, which writes
    float.__repr__ joined by ", " (a float's repr never contains one);
    it refuses a non-finite value, and such a block is joined per value.
    """
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        if start:
            yield sep
        try:
            yield _FINITE_FLOATS.encode(block)[1:-1].replace(", ", sep)
        except ValueError:
            yield sep.join(float.__repr__(v) if math.isfinite(v) else null for v in block)


def _json_chunks(obj, pad: str = ""):
    """The text of json.dumps(obj, indent=2, allow_nan=False), in pieces,
    with every non-finite float written as null.  Dict keys are str.
    A list or tuple of plain floats goes through _float_blocks."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{\n" + inner
        for key, value in obj.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        yield "[\n" + inner
        if all(type(item) is float for item in obj):
            yield from _float_blocks(obj, ",\n" + inner, "null")
        else:
            for i, item in enumerate(obj):
                if i:
                    yield ",\n" + inner
                yield from _json_chunks(item, inner)
        yield "\n" + pad + "]"
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield "null"
    else:
        yield json.dumps(obj)


def _format_number(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "NA"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv(header, rows) -> str:
    """A CSV table: the header line, then one line per row, every cell
    through _format_number."""
    lines = [",".join(header)]
    lines += [",".join(_format_number(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _model_table(records: list[dict]) -> str:
    """One row per model record: its name, the value and se of every
    parameter in PARAM_LABELS order (blank se for a fixed parameter,
    blank pair for an absent one), then every other field in record
    order."""
    labels = PARAM_LABELS.values()
    rest = [key for key in records[0] if key not in ("name", "estimates", "fixed", "se")]
    header = ["model", *(prefix + label for label in labels for prefix in ("", "se_")), *rest]
    rows = []
    for record in records:
        row = [record["name"]]
        for label in labels:
            if label in record["estimates"]:
                row += [record["estimates"][label], record["se"][label]]
            else:
                row += [record["fixed"].get(label, ""), ""]
        rows.append(row + [record[key] for key in rest])
    return _csv(header, rows)


def _leaves(obj: dict, prefix: str = ""):
    """(dotted key, value) of every value of obj that is not a dict."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _to_chunks(command: str, report: dict, fmt: str) -> list[str]:
    """The whole report text, as pieces to write in order; a CSV table
    takes its layout from the report (see the module docstring)."""
    if fmt == "json":
        return [*_json_chunks(report), "\n"]
    if command == "sample":
        return [*_float_blocks(report["values"], "\n", "NA"), "\n"]
    if command in ("fit", "compare"):
        return [_model_table(report["models"])]
    if command == "curves":
        columns = [key for key, value in report.items() if isinstance(value, list)]
        return [_csv(columns, zip(*(report[key] for key in columns)))]
    rest = {key: value for key, value in report.items() if key != "params"}
    return [_csv(("quantity", "value"), _leaves(rest))]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; 2 means
    # "convergence failure" here, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _parse_params(text: str) -> ErlParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise InputError("--params expects five comma-separated values: a,b,theta,lambda,beta")
    try:
        a, b, theta, lam, beta = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"--params values must be numeric: {exc}") from exc
    try:
        return ErlParams.from_values(a=a, b=b, theta=theta, lam=lam, beta=beta)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _seed(text: str) -> int:
    # numpy's generators take no negative seed
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="erlfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, data: bool, models: bool, params: bool, n: bool, seed: bool):
        cmd = sub.add_parser(name, help=help_text)
        if data:
            cmd.add_argument("--input", required=True, help="data file, one value per line")
        if models:
            cmd.add_argument(
                "--models",
                default=None,
                help="comma-separated model names (default: the seven standard models "
                "for compare, ERLD otherwise)",
            )
        if params:
            cmd.add_argument("--params", required=True, help="a,b,theta,lambda,beta")
        if n:
            cmd.add_argument("--n", type=int, default=1000, help="number of draws")
        if seed:
            cmd.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
        cmd.add_argument("--output", default=None, help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        return cmd

    add("fit", "fit one model by maximum likelihood", data=True, models=True, params=False, n=False, seed=True)
    add("compare", "fit several models and rank them by AIC", data=True, models=True, params=False, n=False, seed=True)
    add("gof", "goodness-of-fit statistics for a fixed law", data=True, models=False, params=True, n=False, seed=False)
    add("sample", "draw from the family", data=False, models=False, params=True, n=True, seed=True)
    add("curves", "pdf/cdf/survival/hazard table over the working range", data=False, models=False, params=True, n=False, seed=False)
    add("moments", "moments and shape summaries of the family", data=False, models=False, params=True, n=False, seed=False)
    return parser


def _resolve_models(text: Optional[str], command: str) -> tuple[ModelSpec, ...]:
    if text is None:
        names = DEFAULT_COMPARE if command == "compare" else ("ERLD",)
    else:
        names = tuple(t for t in (s.strip() for s in text.split(",")) if t)
        if not names:
            raise InputError("--models must name at least one model")
    try:
        specs = tuple(get_model(name) for name in names)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    repeated = sorted({spec.name for spec in specs if specs.count(spec) > 1})
    if repeated:
        raise InputError(f"--models names {', '.join(repeated)} more than once")
    if command != "compare" and len(specs) != 1:
        raise InputError(f"{command} takes exactly one model; use compare for several")
    return specs


def _dispatch(args: argparse.Namespace) -> tuple[dict, bool]:
    """Returns (report, all_converged)."""
    if args.command in ("fit", "compare"):
        data = ingest(args.input)
        specs = _resolve_models(args.models, args.command)
        report = run_compare(data, specs, FitConfig(seed=args.seed))
        ok = all(record["converged"] for record in report["models"])
        return report, ok
    params = _parse_params(args.params)
    if args.command == "gof":
        return run_gof(ingest(args.input), params), True
    if args.command == "sample":
        if args.n < 1:
            raise InputError("--n must be a positive integer")
        return run_sample(params, args.n, args.seed), True
    if args.command == "curves":
        return run_curves(params), True
    return run_moments(params), True


def _emit(chunks: list[str], path: Optional[str]):
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise InputError(f"cannot write output file {path!r}: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, ok = _dispatch(args)
        _emit(_to_chunks(args.command, report, args.format), args.output)
        return 0 if ok else 2
    except InputError as exc:
        print(f"erlfit: input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"erlfit: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
