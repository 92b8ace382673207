"""Write a fixed set of CLI reports into one directory.

Each report is what ``erlfit.cli.main`` writes for one command line,
run in-process, to its --output file or, for the ``.stdout`` reports,
to standard output; ``exit_codes.txt`` lists every command line with
its exit status.  Two checkouts give byte-identical directories exactly
when their reports agree, so comparing two commits is one ``diff -rq``:

    python3 tools/report_snapshot.py snap_new
    python3 /path/to/other/checkout/tools/report_snapshot.py snap_old
    diff -rq snap_old snap_new

The package is imported from this checkout's ``src``, whatever is
installed.  The two n = 2000 fit inputs come from ``perfbench/inputs.py``,
which draws with numpy and scipy only, so they do not depend on erlfit's
own sampler; the third input is the bundled sample moved to start at 1.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from erlfit.cli import main as erlfit_main  # noqa: E402
from erlfit.datasets import SYNTHETIC_PARAMS, load_synthetic, synthetic_path  # noqa: E402
from perfbench.inputs import draw, write_values  # noqa: E402

FIT_POINT = (2.0, 1.5, 1.0, 1.0, 1.0)
PARAM_SETS = {
    "p1": "2,1.5,1,1,1",
    "p2": "3,0.7,2,1.2,0.5",
    "bundled": ",".join(str(SYNTHETIC_PARAMS[k]) for k in ("a", "b", "theta", "lam", "beta")),
}


def runs(out: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(report file name, erlfit arguments) of every report."""
    sample = synthetic_path()
    todo = [
        ("compare_seed0.json", ["compare", "--input", sample, "--seed", "0"]),
        ("compare_seed3.csv", ["compare", "--input", sample, "--seed", "3", "--format", "csv"]),
        ("gof_params.json", ["gof", "--input", sample, "--params", "2,1.5,1,1,1"]),
    ]
    # with seeds 0 and 3 above, compare is checked at seeds 0-9, so a change
    # to the optimizer or the ladder meets ten sets of seeded starts
    todo += [
        (f"compare_seed{seed}.json", ["compare", "--input", sample, "--seed", str(seed)])
        for seed in (1, 2, 4, 5, 6, 7, 8, 9)
    ]
    # a fit of one model polishes without warm starts from lower levels
    todo += [
        (f"fit_{name}.json", ["fit", "--input", sample, "--models", name])
        for name in ("ExpLD", "RLD", "BLD", "BRD", "ExpRLD", "LRLD", "ERLD")
    ]
    for seed in (0, 1):
        path = out / f"input_n2000_seed{seed}.txt"
        write_values(path, draw(FIT_POINT, 2000, seed))
        todo.append((f"fit_n2000_seed{seed}.json", ["fit", "--input", str(path), "--models", "ERLD"]))
    # every parameter of ERLD is estimated here, so each column of the table is filled
    fit_csv = ["fit", "--input", str(out / "input_n2000_seed0.txt"), "--models", "ERLD", "--format", "csv"]
    todo.append(("fit_n2000_seed0.csv", fit_csv))
    for label, params in PARAM_SETS.items():
        todo += [
            (f"curves_{label}.json", ["curves", "--params", params]),
            (f"moments_{label}.json", ["moments", "--params", params]),
            (f"sample_{label}.json", ["sample", "--params", params, "--n", "100000", "--seed", "7"]),
        ]
    p2 = PARAM_SETS["p2"]
    todo += [
        ("gof_params_p2.csv", ["gof", "--input", sample, "--params", p2, "--format", "csv"]),
        ("curves_p2.csv", ["curves", "--params", p2, "--format", "csv"]),
        ("moments_p2.csv", ["moments", "--params", p2, "--format", "csv"]),
        ("sample_p2.csv", ["sample", "--params", p2, "--n", "100000", "--seed", "7", "--format", "csv"]),
        ("sample_p2_n10000.json.stdout", ["sample", "--params", p2, "--n", "10000", "--seed", "8"]),
    ]
    # lambda = 0.001 sends about one draw in eight to inf, so these cover the
    # null and NA writer; at a = b = 1 each inverse gets about 20,000 draws,
    # enough for at least two blocks of specfun._on_blocks on two CPUs
    overflow = ["sample", "--params", "1,1,1,0.001,1", "--n", "40000", "--seed", "1"]
    todo += [("sample_overflow.json", overflow), ("sample_overflow.csv", [*overflow, "--format", "csv"])]
    # the bundled data dips below 0, so every fit above searches theta above
    # a shift; moved to x - x_(1) + 1 it does not, and the shift is 0
    moved = out / "input_bundled_moved.txt"
    values = load_synthetic().values
    write_values(moved, values - values[0] + 1.0)
    todo.append(("compare_moved_seed0.json", ["compare", "--input", str(moved), "--seed", "0"]))
    return todo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to write the reports into (created if missing)")
    out = pathlib.Path(parser.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, argv in runs(out):
        if name.endswith(".stdout"):
            with open(out / name, "w", encoding="utf-8", newline="\n") as fh, \
                    contextlib.redirect_stdout(fh):
                code = erlfit_main(argv)
        else:
            code = erlfit_main([*argv, "--output", str(out / name)])
        # the input paths differ between checkouts; the file names do not
        shown = [pathlib.Path(arg).name if pathlib.Path(arg).is_file() else arg for arg in argv]
        lines.append(f"{code} {name}: erlfit {' '.join(shown)}\n")
        print(lines[-1], end="")
    (out / "exit_codes.txt").write_text("".join(lines))


if __name__ == "__main__":
    main()
