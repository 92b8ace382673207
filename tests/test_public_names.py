"""The names that the package and its traced benchmark promise, the
form of what its elementwise functions return, and the rule for its
integer arguments.

`erlfit.__all__` is the public surface.  The traced benchmark run
(`perfbench/run.py --trace 1`) looks up each `(module, attribute)` pair
of `perfbench/tracing.py`'s `TRACED` with getattr, and also wraps
`ModelSpec.embed` and `estimation.optimize.minimize`, so deleting any of
them breaks that run; these tests break first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


_LAW = erlfit.ErlParams(2.0, 3.0, 1.0, 1.0, 1.0)

# each public elementwise function as a function of one argument
ELEMENTWISE = {
    "erl_pdf": lambda x: erlfit.erl_pdf(x, _LAW),
    "erl_cdf": lambda x: erlfit.erl_cdf(x, _LAW),
    "erl_survival": lambda x: erlfit.erl_survival(x, _LAW),
    "erl_hazard": lambda x: erlfit.erl_hazard(x, _LAW),
    "erl_reversed_hazard": lambda x: erlfit.erl_reversed_hazard(x, _LAW),
    "erl_quantile": lambda x: erlfit.erl_quantile(x, _LAW),
    "baseline_quantile": lambda x: erlfit.baseline_quantile(x, _LAW),
    "log_gamma": erlfit.log_gamma,
    "log_beta": lambda x: erlfit.log_beta(x, 2.0),
    "reg_inc_beta": lambda x: erlfit.reg_inc_beta(x, 2.0, 3.0),
    "inv_reg_inc_beta": lambda x: erlfit.inv_reg_inc_beta(x, 2.0, 3.0),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
def test_scalar_in_float_out_array_in_array_out(name):
    f = ELEMENTWISE[name]
    for scalar in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(f(scalar)) is float
    for shape in ((1,), (2, 3)):
        out = f(np.full(shape, 0.3))
        assert isinstance(out, np.ndarray)
        assert out.shape == shape


_INTEGER_ARGUMENTS = {
    "FitConfig.starts": lambda v: erlfit.FitConfig(starts=v),
    "FitConfig.seed": lambda v: erlfit.FitConfig(seed=v),
    "erl_sample": lambda v: erlfit.erl_sample(v, _LAW, 0),
    "erl_raw_moment": lambda v: erlfit.erl_raw_moment(v, _LAW),
    "baseline_moment_series": lambda v: erlfit.baseline_moment_series(v, _LAW),
}


@pytest.mark.parametrize("value", [True, False, 1.5, 2.0, np.float64(2.0), "2"], ids=repr)
@pytest.mark.parametrize("name", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_take_integers_only(name, value):
    # a numbers.Integral that is not a bool; np.int64 is one
    call = _INTEGER_ARGUMENTS[name]
    call(np.int64(2))
    with pytest.raises(ValueError):
        call(value)
