"""The names that the package and its traced benchmark promise.

`erlfit.__all__` is the public surface.  The traced benchmark run
(`perfbench/run.py --trace 1`) looks up each `(module, attribute)` pair
of `perfbench/tracing.py`'s `TRACED` with getattr, and also wraps
`ModelSpec.embed` and `estimation.optimize.minimize`, so deleting any of
them breaks that run; these tests break first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import erlfit
from erlfit import estimation, submodels

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, attr", _traced(), ids=lambda v: v)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"erlfit.{module}"), attr))


def test_tracer_hooks_resolve():
    assert callable(submodels.ModelSpec.embed)
    assert callable(estimation.optimize.minimize)


def test_all_is_sorted_unique_and_resolves():
    names = erlfit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(erlfit, name), name
