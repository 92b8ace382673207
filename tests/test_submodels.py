"""Tests for the named sub-model registry."""

import math

import numpy as np
import pytest

from erlfit.core import ErlParams, normalization_check
from erlfit.submodels import (
    DEFAULT_COMPARE,
    MODELS,
    PARAM_LABELS,
    PARAM_NAMES,
    ModelSpec,
    get_model,
)

EXPECTED_CONSTRAINTS = {
    "ERLD": {},
    "LRLD": {"a": 1.0},
    "ExpRLD": {"b": 1.0},
    "BLD": {"beta": 1.0},
    "BRD": {"lam": 1.0},
    "RLD": {"a": 1.0, "b": 1.0},
    "ExpLD": {"b": 1.0, "beta": 1.0},
    "Rayleigh": {"a": 1.0, "b": 1.0, "lam": 1.0, "theta": 1.0},
}


class TestRegistry:
    def test_membership(self):
        assert set(MODELS) == set(EXPECTED_CONSTRAINTS)

    @pytest.mark.parametrize("name, fixed", sorted(EXPECTED_CONSTRAINTS.items()))
    def test_constraints(self, name, fixed):
        assert dict(MODELS[name].fixed) == fixed
        assert MODELS[name].row == tuple(fixed.get(p, 0.0) for p in PARAM_NAMES)

    @pytest.mark.parametrize(
        "name, k",
        [
            ("ERLD", 5),
            ("LRLD", 4),
            ("ExpRLD", 4),
            ("BLD", 4),
            ("BRD", 4),
            ("RLD", 3),
            ("ExpLD", 3),
            ("Rayleigh", 1),
        ],
    )
    def test_free_counts(self, name, k):
        assert MODELS[name].free_count == k
        assert len(MODELS[name].free_names) == k
        assert MODELS[name].free_names == tuple(PARAM_NAMES[slot] for slot in MODELS[name].slots)

    def test_default_compare_order(self):
        assert DEFAULT_COMPARE == ("ERLD", "ExpLD", "LRLD", "BRD", "RLD", "ExpRLD", "BLD")
        assert all(name in MODELS for name in DEFAULT_COMPARE)

    @pytest.mark.parametrize("alias", ["erld", "ERLD", " eRLd ", "rayleigh"])
    def test_lookup_is_case_insensitive(self, alias):
        spec = get_model(alias)
        assert spec.name.lower() == alias.strip().lower()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="known models"):
            get_model("Weibull")


class TestModelSpec:
    def test_embed_fills_fixed_slots(self):
        spec = get_model("ExpLD")
        p = spec.embed((2.0, 0.5, 1.5))
        assert p.values() == (2.0, 1.0, 0.5, 1.5, 1.0)

    def test_embed_full_family(self):
        p = get_model("ERLD").embed((0.8, 5.5, 0.025, 0.113, 0.501))
        assert p.values() == (0.8, 5.5, 0.025, 0.113, 0.501)

    def test_embed_wrong_arity(self):
        with pytest.raises(ValueError):
            get_model("RLD").embed((1.0, 2.0))

    @pytest.mark.parametrize("name", sorted(EXPECTED_CONSTRAINTS))
    def test_extract_inverts_embed(self, name):
        spec = MODELS[name]
        free = tuple(0.4 + 0.3 * i for i in range(spec.free_count))
        assert spec.extract(spec.embed(free)) == free

    def test_admits(self):
        rld = get_model("RLD")
        assert rld.admits(ErlParams(1.0, 1.0, 2.0, 0.7, 1.3))
        assert not rld.admits(ErlParams(1.1, 1.0, 2.0, 0.7, 1.3))
        assert get_model("ERLD").admits(ErlParams(9.0, 0.1, 1.0, 1.0, 1.0))

    def test_rejects_bad_fixed_entries(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bogus", fixed=(("gamma", 1.0),))
        with pytest.raises(ValueError):
            ModelSpec(name="bogus", fixed=(("a", -1.0),))

    @pytest.mark.parametrize("key", PARAM_NAMES)
    def test_fixed_values_follow_the_parameter_rule(self, key):
        # the rule of ErlParams: a finite positive real that is not a bool,
        # stored as a float; and a name is fixed at most once
        for value in (math.inf, math.nan, 0, -1, True, "1"):
            with pytest.raises(ValueError, match="finite positive"):
                ModelSpec(name="bad", fixed=((key, value),))
        with pytest.raises(ValueError, match="twice"):
            ModelSpec(name="bad", fixed=((key, 1.0), (key, 2.0)))
        spec = ModelSpec(name="ok", fixed=((key, np.float32(2)),))
        assert dict(spec.fixed) == {key: 2.0} and type(dict(spec.fixed)[key]) is float
        assert spec.embed([1.0] * 4).values() == tuple(2.0 if p == key else 1.0 for p in PARAM_NAMES)

    @pytest.mark.parametrize("name", sorted(EXPECTED_CONSTRAINTS))
    def test_embedded_density_normalizes(self, name):
        spec = MODELS[name]
        free = tuple(0.7 + 0.25 * i for i in range(spec.free_count))
        total = normalization_check(spec.embed(free))
        assert total == pytest.approx(1.0, abs=1e-8)


class TestLabels:
    def test_lambda_spelling(self):
        assert PARAM_LABELS["lam"] == "lambda"
