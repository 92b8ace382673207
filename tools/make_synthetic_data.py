"""Regenerate the bundled synthetic demo dataset.

The packaged file ``src/erlfit/data/synthetic_demo.csv`` holds 37 draws
from the five-parameter family at a fixed, documented seed.  The data is
synthetic: it is NOT the epidemiological case-count series that
motivated the parameter point, and must never be presented as real
observations.

The file is frozen.  Today's sampler gives the same 37 values to within
1e-12 relative (up to 7.3e-13) but not byte for byte, so rewriting the
file would move every report made from the bundled data.  A test checks
the file against this draw to 1e-10 relative; run the tool only to
change the dataset on purpose.  Run from the repository root:

    python3 tools/make_synthetic_data.py
"""

from __future__ import annotations

import pathlib

from erlfit import ErlParams, erl_sample
from erlfit.datasets import SYNTHETIC_FILE, SYNTHETIC_PARAMS, SYNTHETIC_SEED


def main() -> None:
    params = ErlParams(**SYNTHETIC_PARAMS)
    draws = erl_sample(37, params, seed=SYNTHETIC_SEED)
    out = pathlib.Path(__file__).resolve().parent.parent / "src" / "erlfit" / "data" / SYNTHETIC_FILE
    lines = ["value"] + [repr(float(x)) for x in draws]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(draws)} draws to {out}")


if __name__ == "__main__":
    main()
