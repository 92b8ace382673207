"""erlfit benchmark: one workload per run, through erlfit.cli.main in-process.

    python3 perfbench/run.py --workload select37 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; erlfit is imported from its
src/ directory.  The workload's set-up (import of erlfit.cli, input
generation, one warm-up call of each cheap command) is done five
times and timed.  Then whole rounds of the workload's CLI calls run
until --seconds have passed, at least one round.  Every call writes
its report to a temporary file; only main() is timed, and every report
is checked afterwards against numpy/scipy computations (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 starts the same
workload untraced in a child process, runs it here with every public
erlfit function wrapped in a span (tracing.py), and prints the
per-layer metrics per round, plus the traced minus the untraced round
time.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Results and span arrays
are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import checks
import inputs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BUNDLED = SRC / "erlfit" / "data" / "synthetic_demo.csv"

SETUPS = 5
# the trace run's untraced child gets this long before it is stopped
CHILD_TIMEOUT_S = 170.0
PARAMS = {
    "A": (2.0, 1.5, 1.0, 1.0, 1.0),
    # b < 1 sends the cdf down its complementary upper-tail branch
    "B": (3.0, 0.7, 2.0, 1.2, 0.5),
}
SAMPLE_N = 100_000
FIT_N = 2000
# fixed fit2000 samples: the work of an n=2000 ERLD fit depends on the
# sample (25k to 39k nll calls over generator seeds 0-5), which would make
# the spread of run times the samples' and not the program's.  Two fits a
# round average the noise of timing one; the ERLD optimum of sample 0 is
# interior, that of sample 1 lies on the ridge b -> inf, beta -> 0.
FIT_DATA_SEEDS = (0, 1)
LADDER = ("ERLD", "ExpLD", "LRLD", "BRD", "RLD", "ExpRLD", "BLD")


def flag(params) -> str:
    return ",".join(repr(float(v)) for v in params)


class Session:
    """One run: the imported CLI, its inputs, and the calls made so far."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.cli = None
        self.inputs: dict = {}  # label -> (path, values)
        self.times = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, label, argv, check) -> float:
        """Time one main(argv) call, then check its report; the seconds
        main took."""
        path = self.tmp / f"{label}.out"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.cli.main([*argv, "--output", str(path)])
        except Exception:  # a crash inside erlfit is a failed operation
            rc = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            print(f"{label}: failed ({rc})", file=sys.stderr)
            return seconds
        self.times[label].append(seconds)
        report = json.loads(path.read_text(encoding="utf-8"))
        self.problems += [f"{label}: {p}" for p in check(report)]
        return seconds


# workloads ---------------------------------------------------------------

def select37_inputs(s: Session):
    s.inputs = {"bundled": (BUNDLED, np.loadtxt(BUNDLED, skiprows=1))}  # one header line


def select37_round(s: Session) -> float:
    path, x = s.inputs["bundled"]
    return s.call("compare", ["compare", "--input", str(path), "--seed", "0"],
                  lambda r: checks.fit_report(r, x, LADDER))


def fit2000_inputs(s: Session):
    s.inputs = {}
    for seed in FIT_DATA_SEEDS:
        path = s.tmp / f"fit2000-{seed}.txt"
        x = inputs.draw(PARAMS["A"], FIT_N, seed)
        inputs.write_values(path, x)
        s.inputs[f"sample{seed}"] = (path, x)


def fit2000_round(s: Session) -> float:
    truth = PARAMS["A"]
    total = 0.0
    for label, (path, x) in s.inputs.items():
        total += s.call(
            f"fit.{label}", ["fit", "--input", str(path), "--models", "ERLD"],
            lambda r, x=x: checks.fit_report(r, x, ("ERLD",)) + checks.not_above(r, x, truth))
        # gof at the generating parameters: at the fitted estimates of
        # sample 1 (b ~ 1e11) erlfit's incomplete beta is off by 1e-5
        total += s.call(f"gof.{label}", ["gof", "--input", str(path), "--params", flag(truth)],
                        lambda r, x=x: checks.gof_report(r, x, truth))
    return total


def distribution_inputs(s: Session):
    s.inputs = {}  # sample, curves and moments take parameters only


def distribution_round(s: Session) -> float:
    total = 0.0
    for key, params in PARAMS.items():
        total += s.call(
            f"sample.{key}",
            ["sample", "--params", flag(params), "--n", str(SAMPLE_N), "--seed", str(s.seed)],
            lambda r, p=params: checks.sample_report(r, p, SAMPLE_N, s.seed))
        total += s.call(f"curves.{key}", ["curves", "--params", flag(params)],
                        lambda r, p=params: checks.curves_report(r, p))
        total += s.call(f"moments.{key}", ["moments", "--params", flag(params)],
                        lambda r, p=params: checks.moments_report(r, p))
    return total


WORKLOADS = {
    "select37": (select37_inputs, select37_round),
    "fit2000": (fit2000_inputs, fit2000_round),
    "distribution": (distribution_inputs, distribution_round),
}


# set-up and measurement ---------------------------------------------------

def import_cli():
    """Import erlfit.cli afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "erlfit" or m.startswith("erlfit.")]:
        del sys.modules[name]
    cli = importlib.import_module("erlfit.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "erlfit").resolve():
        raise ImportError(f"erlfit imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(s: Session) -> float:
    """Import, inputs and one warm-up call of each cheap command; seconds."""
    make_inputs, _ = WORKLOADS[s.workload]
    t0 = time.perf_counter()
    s.cli = import_cli()
    make_inputs(s)
    warm_data = s.tmp / "warmup.txt"
    inputs.write_values(warm_data, inputs.draw(PARAMS["A"], 100, s.seed))
    warm = s.tmp / "warmup.out"
    a = flag(PARAMS["A"])
    for argv in (["moments", "--params", a], ["curves", "--params", a],
                 ["sample", "--params", a, "--n", "100", "--seed", str(s.seed)],
                 ["gof", "--input", str(warm_data), "--params", a]):
        rc = s.cli.main([*argv, "--output", str(warm)])
        if rc != 0:
            raise RuntimeError(f"warm-up call {argv[0]} exited {rc}")
    return time.perf_counter() - t0


def measure(s: Session, seconds: float) -> list[float]:
    """Whole rounds until `seconds` have passed; each round's main() time."""
    _, run_round = WORKLOADS[s.workload]
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(s))
    return rounds


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def per_layer(table: dict, counts, rounds: list[float], untraced_round_s: float) -> dict:
    """The per-layer metrics, per round of the workload, from the span
    table and counters of a Tracer."""
    r = len(rounds)
    m = {}
    for span in ("specfun.log_gamma", "specfun.log_beta", "specfun.reg_inc_beta",
                 "specfun.inv_reg_inc_beta", "core.erl_raw_moment", "submodels.embed",
                 "estimation.nll"):
        m[f"{span}.calls"] = metric(table[span]["calls"] / r, "count")
    for span in ("specfun.log_gamma", "specfun.log_beta", "specfun.reg_inc_beta",
                 "specfun.inv_reg_inc_beta", "baseline.baseline_quantile", "core.erl_cdf",
                 "core.erl_quantile", "core.erl_sample", "core.erl_raw_moment",
                 "submodels.embed", "estimation.nll", "estimation.minimize",
                 "estimation.standard_errors", "gof.gof_report", "cli.ingest"):
        m[f"{span}.self_s"] = metric(table[span]["self_s"] / r, "s")
    scalar = counts["log_beta.scalar_calls"]
    m["specfun.log_beta.scalar_us"] = metric(
        counts["log_beta.scalar_ns"] / scalar / 1e3 if scalar else 0.0, "us")
    nll = table["estimation.nll"]
    m["estimation.nll.us_per_call"] = metric(
        nll["total_s"] / nll["calls"] * 1e6 if nll["calls"] else 0.0, "us")
    m["estimation.nll.finite_ratio"] = metric(
        counts["nll.finite"] / nll["calls"] if nll["calls"] else 0.0, "ratio")
    for model in LADDER:
        m[f"estimation.nll_calls.{model}"] = metric(counts[f"nll_calls.{model}"] / r, "count")
    runs = counts["optimizer_runs"]
    m["estimation.optimizer_runs"] = metric(runs / r, "count")
    m["estimation.best_basin_ratio"] = metric(counts["basin_runs"] / runs if runs else 0.0, "ratio")
    m["cli.format_s"] = metric(table["cli.main"]["self_s"] / r, "s")
    m["trace.overhead_s"] = metric(statistics.median(rounds) - untraced_round_s, "s")
    return m


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def untraced(args, s: Session):
    setups = [setup(s) for _ in range(SETUPS)]
    rounds = measure(s, args.seconds)
    metrics = {
        "round_s": metric(statistics.median(rounds), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"setups_s": setups, "rounds_s": rounds}


def traced(args, s: Session):
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        setup(s)
        tracer = Tracer()
        tracer.install()
        rounds = measure(s, args.seconds)
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"untraced child run exited {child.returncode}")
    plain = json.loads(out.strip().splitlines()[-1])
    if not plain["correct"]:
        s.problems.append("untraced child run reported incorrect output")
    untraced_round_s = plain["metrics"]["round_s"]["value"]
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    table = tracer.table()
    detail = {"rounds_s": rounds, "untraced_round_s": untraced_round_s,
              "spans": table, "counters": dict(tracer.counters)}
    return per_layer(table, tracer.counters, rounds, untraced_round_s), detail


def main() -> int:
    parser = argparse.ArgumentParser(description="erlfit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "erlfit" / "cli.py").is_file():
        print(f"perfbench: no erlfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        s = Session(args.workload, args.seed, Path(tmp))
        metrics, detail = (traced if args.trace else untraced)(args, s)
    for problem in s.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for label, times in s.times.items():
        print(f"  {label}: median {statistics.median(times):.6g} s over {len(times)} calls")
    result = {"correct": not s.problems, "attempted": s.attempted, "failed": s.failed,
              "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "problems": s.problems,
              "calls_s": dict(s.times), **detail}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
