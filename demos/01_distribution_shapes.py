"""How the five parameters reshape the distribution.

The family composes a Rayleigh-Lomax baseline cdf K (parameters theta,
lam, beta) with a beta density in K (shape pair a, b). This script
prints density and hazard profiles for a few settings so the roles are
visible without plotting: a controls the lower tail, b the upper tail,
and the baseline carries location and spread.

Run: python3 demos/01_distribution_shapes.py
"""

import numpy as np

from erlfit.core import ErlParams, erl_cdf, erl_hazard, erl_pdf, erl_quantile

BARS = " .:-=+*#%@"


def sparkline(values):
    """Render nonnegative values as a coarse ASCII intensity strip."""
    top = max(float(np.max(values)), 1e-300)
    idx = np.minimum((np.asarray(values) / top * (len(BARS) - 1)).astype(int), len(BARS) - 1)
    return "".join(BARS[i] for i in idx)


def profile(label, p, grid):
    pdf = np.asarray(erl_pdf(grid, p))
    hazard = np.asarray(erl_hazard(grid, p))
    print(f"{label:28s} pdf    |{sparkline(pdf)}|")
    print(f"{'':28s} hazard |{sparkline(hazard)}|")


def main():
    base = {"theta": 1.0, "lam": 1.0, "beta": 1.0}
    grid = np.linspace(-0.95, 3.0, 64)

    print("Density and hazard on x in [-0.95, 3.0] (support starts at -theta = -1)")
    print()
    print("Varying a with b = 1 (cdf raised to the power a):")
    for a in (0.5, 1.0, 3.0):
        profile(f"  a={a}, b=1", ErlParams(a, 1.0, **base), grid)
    print()
    print("Varying b with a = 1 (survival raised to the power b):")
    for b in (0.5, 1.0, 3.0):
        profile(f"  a=1, b={b}", ErlParams(1.0, b, **base), grid)
    print()
    print("a = b = 1 collapses to the baseline itself:")
    profile("  baseline (1, 1, 1)", ErlParams(1.0, 1.0, **base), grid)
    print()

    # one closed-form corner worth knowing: theta=1, lam=0.5, beta=2
    # turns the baseline into a unit-rate exponential shifted to -1,
    # so the hazard is exactly constant
    p = ErlParams(1.0, 1.0, 1.0, 0.5, 2.0)
    h = np.asarray(erl_hazard(grid, p))
    print(f"Shifted-exponential corner (1,1,1,0.5,2): hazard min {h.min():.12f}, max {h.max():.12f}")
    print()

    print("Quantiles move with the baseline scale beta (a=2, b=1.5, theta=1, lam=1):")
    probs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    header = "  beta   " + "".join(f"q{int(100 * q):02d}     " for q in probs)
    print(header)
    for beta in (0.5, 1.0, 2.0):
        p = ErlParams(2.0, 1.5, 1.0, 1.0, beta)
        q = np.asarray(erl_quantile(probs, p))
        row = "".join(f"{v:8.3f}" for v in q)
        print(f"  {beta:4.1f} {row}")
        # quantile and cdf are mutual inverses; show the roundtrip once
        assert np.allclose(np.asarray(erl_cdf(q, p)), probs, atol=1e-9)


if __name__ == "__main__":
    main()
