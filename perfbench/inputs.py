"""Workload inputs, generated without erlfit.

Draws from the extended Rayleigh-Lomax law by the double inverse
transform written out here with numpy and scipy only: u ~ U(0, 1) from
numpy.random.default_rng(seed), y = betaincinv(a, b, u), then the
closed-form Rayleigh-Lomax quantile

    x = theta * ((-2/beta) * ln(1 - y))**(1/(2 lam)) - theta.

A later change to erlfit's own sampler therefore leaves the workload
inputs unchanged.

Run as a script to write one sample, one value per line at full
precision:

    python3 perfbench/inputs.py --seed 3 --n 2000 --params 2,1.5,1,1,1 --out data.txt
"""

from __future__ import annotations

import argparse

import numpy as np
from scipy import special


def draw(params, n: int, seed: int) -> np.ndarray:
    """n draws at params = (a, b, theta, lam, beta) from the given seed."""
    a, b, theta, lam, beta = params
    u = np.random.default_rng(seed).random(n)
    y = special.betaincinv(a, b, u)
    return theta * np.power(-(2.0 / beta) * np.log1p(-y), 0.5 / lam) - theta


def write_values(path, values) -> None:
    """One value per line; repr keeps every digit of the float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{float(v)!r}\n" for v in values))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--params", required=True, help="a,b,theta,lambda,beta")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    params = tuple(float(p) for p in args.params.split(","))
    if len(params) != 5:
        parser.error("--params expects five comma-separated values")
    write_values(args.out, draw(params, args.n, args.seed))


if __name__ == "__main__":
    main()
