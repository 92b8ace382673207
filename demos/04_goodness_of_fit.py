"""Goodness of fit: does a fitted curve actually describe the sample?

Uses the bundled synthetic dataset (37 values generated from a known
parameter point; it is not real-world data). The EDF statistics
compare the empirical distribution with a hypothesized cdf: small
KS/CvM/AD values and a large KS p-value mean the curve is compatible
with the sample. A deliberately wrong parameter point shows what
rejection looks like.

Run: python3 demos/04_goodness_of_fit.py
"""

from erlfit.core import ErlParams, erl_cdf
from erlfit.datasets import SYNTHETIC_PARAMS, load_synthetic
from erlfit.gof import gof_report, sample_kurtosis, sample_skewness


def report(label, data, params):
    rep = gof_report(data, lambda x: erl_cdf(x, params))
    print(f"{label}")
    print(f"    KS  = {rep.ks:.4f}   (p = {rep.ks_pvalue:.4f})")
    print(f"    CvM = {rep.cvm:.4f}")
    print(f"    AD  = {rep.ad:.4f}")
    print()


def main():
    data = load_synthetic()
    print(f"Bundled synthetic dataset: n = {data.n}, "
          f"range [{data.values[0]:.3f}, {data.values[-1]:.3f}]")
    print(f"sample skewness {sample_skewness(data):.3f}, "
          f"raw kurtosis {sample_kurtosis(data):.3f}")
    print()

    generating = ErlParams(**SYNTHETIC_PARAMS)
    report("At the generating parameter point (should be compatible):",
           data, generating)

    wrong = ErlParams(3.0, 0.5, 1.0, 1.0, 1.0)
    report("At a deliberately wrong point (should be rejected):",
           data, wrong)

    print("Reading the numbers: the generating point leaves KS near the")
    print("sampling-noise floor with a comfortable p-value, while the wrong")
    print("point pushes every statistic up and the p-value to zero.")


if __name__ == "__main__":
    main()
