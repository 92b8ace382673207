"""Spans and counters around erlfit's public functions, from outside.

The traced run replaces module attributes such as erlfit.core.log_beta,
erlfit.estimation.nll and erlfit.cli.fit_mle with wrappers, in every
erlfit module that holds the same function object, so that calls made
through any of those names are recorded.  scipy's minimize is wrapped
only as erlfit.estimation sees it.  Spans (name, start, end, parent) go
into flat arrays and counters into a dict; nothing is written until
the run ends.  A span's self time is its duration minus the durations
of its child spans, so a wrapper's own bookkeeping is charged to its
parent.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) pairs wrapped in the traced run; a span is named
# "<module>.<attribute>".  Everything cli calls below main is listed, so
# that main's self time is the cli layer's own work.
TRACED = (
    ("specfun", "log_gamma"),
    ("specfun", "log_beta"),
    ("specfun", "reg_inc_beta"),
    ("specfun", "inv_reg_inc_beta"),
    ("baseline", "baseline_quantile"),
    ("core", "erl_pdf"),
    ("core", "erl_cdf"),
    ("core", "erl_survival"),
    ("core", "erl_hazard"),
    ("core", "erl_quantile"),
    ("core", "erl_sample"),
    ("core", "erl_raw_moment"),
    ("core", "erl_central_moments"),
    ("core", "erl_skewness"),
    ("core", "erl_kurtosis"),
    ("core", "erl_cv"),
    ("estimation", "nll"),
    ("estimation", "fit_mle"),
    ("estimation", "standard_errors"),
    ("gof", "gof_report"),
    ("gof", "info_criteria"),
    ("gof", "sample_skewness"),
    ("gof", "sample_kurtosis"),
    ("cli", "ingest"),
    ("cli", "main"),
)
# an optimizer run ends in the model's best basin when its final nll is
# within this distance of the best nll of the same fit_mle call
BASIN_ATOL = 1e-6


class _Forward:
    """Stands in for a module: overridden attributes first, then the module's."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.model = None
        self.runs: list[float] = []

    def wrap(self, name, fn, enter=None, leave=None):
        """fn wrapped in a span; enter(args) runs first and its result
        reaches leave(args, out, ns, state), which runs even on error."""
        self.names.append(name)
        nid = len(self.names) - 1
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            state = enter(args) if enter is not None else None
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if leave is not None:
                    leave(args, out, t1 - t0, state)

        return traced

    # hooks -----------------------------------------------------------

    def _log_beta_leave(self, args, out, ns, state):
        if np.ndim(args[0]) == 0 and np.ndim(args[1]) == 0:
            self.counters["log_beta.scalar_calls"] += 1
            self.counters["log_beta.scalar_ns"] += ns

    def _nll_leave(self, args, out, ns, state):
        self.counters[f"nll_calls.{self.model}"] += 1
        if out is not None and math.isfinite(out):
            self.counters["nll.finite"] += 1

    def _fit_enter(self, args):
        previous = (self.model, self.runs)
        self.model, self.runs = args[0].name, []
        return previous

    def _fit_leave(self, args, out, ns, previous):
        finite = [value for value in self.runs if math.isfinite(value)]
        if finite:
            best = min(finite)
            self.counters["basin_runs"] += sum(value <= best + BASIN_ATOL for value in finite)
        self.model, self.runs = previous

    def _se_enter(self, args):
        previous = self.model
        self.model = args[0].spec.name
        return previous

    def _se_leave(self, args, out, ns, previous):
        self.model = previous

    def _minimize_leave(self, args, out, ns, state):
        self.counters["optimizer_runs"] += 1
        self.runs.append(float(out.fun) if out is not None else math.inf)

    # installation ----------------------------------------------------

    def install(self):
        """Wrap the TRACED functions, ModelSpec.embed and estimation's
        minimize in the erlfit modules imported last."""
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == "erlfit" or name.startswith("erlfit.")}
        hooks = {
            "specfun.log_beta": (None, self._log_beta_leave),
            "estimation.nll": (None, self._nll_leave),
            "estimation.fit_mle": (self._fit_enter, self._fit_leave),
            "estimation.standard_errors": (self._se_enter, self._se_leave),
        }
        for module, attr in TRACED:
            original = getattr(loaded[f"erlfit.{module}"], attr)
            name = f"{module}.{attr}"
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            for mod in loaded.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        spec_cls = loaded["erlfit.submodels"].ModelSpec
        spec_cls.embed = self.wrap("submodels.embed", spec_cls.embed)
        estimation = loaded["erlfit.estimation"]
        minimize = self.wrap("estimation.minimize", estimation.optimize.minimize,
                             leave=self._minimize_leave)
        estimation.optimize = _Forward(estimation.optimize, minimize=minimize)

    # results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def table(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        spans = self.arrays()
        dur = (spans["end"] - spans["start"]).astype(np.float64)
        parent = spans["parent"]
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        size = len(self.names)
        calls = np.bincount(spans["name"], minlength=size)
        total = np.bincount(spans["name"], weights=dur, minlength=size)
        own = np.bincount(spans["name"], weights=dur - child_ns, minlength=size)
        return {
            name: {"calls": int(calls[i]), "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
