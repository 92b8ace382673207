"""Named sub-models of the five-parameter family.

Each entry pins a subset of (a, b, theta, lam, beta) to constants; the
free remainder is what estimation optimizes.  Model names are the
identifiers users type at the CLI and are matched case-insensitively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import ErlParams

PARAM_NAMES = ("a", "b", "theta", "lam", "beta")

# external spelling used in CLI flags, JSON reports and CSV headers
PARAM_LABELS = {"a": "a", "b": "b", "theta": "theta", "lam": "lambda", "beta": "beta"}


@dataclass(frozen=True)
class ModelSpec:
    """A named constraint set over the five parameters."""

    name: str
    fixed: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self):
        for key, value in self.fixed:
            if key not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {key!r} in ModelSpec {self.name!r}")
            if not value > 0:
                raise ValueError(f"fixed value for {key!r} must be positive")

    @property
    def fixed_map(self) -> dict[str, float]:
        return dict(self.fixed)

    @property
    def free_names(self) -> tuple[str, ...]:
        fixed = self.fixed_map
        return tuple(name for name in PARAM_NAMES if name not in fixed)

    @property
    def free_count(self) -> int:
        return 5 - len(self.fixed)

    def embed(self, free_values) -> ErlParams:
        """Assemble full ErlParams from values for the free parameters.

        free_values follows the (a, b, theta, lam, beta) order with the
        fixed entries skipped.
        """
        free_values = tuple(float(v) for v in free_values)
        if len(free_values) != self.free_count:
            raise ValueError(
                f"{self.name} expects {self.free_count} free values, got {len(free_values)}"
            )
        full = self.fixed_map
        for name, value in zip(self.free_names, free_values):
            full[name] = value
        return ErlParams.from_values(**full)

    def extract(self, params: ErlParams) -> tuple[float, ...]:
        """Free-parameter values of `params` in registry order."""
        full = dict(zip(PARAM_NAMES, params.values()))
        return tuple(full[name] for name in self.free_names)

    def admits(self, params: ErlParams) -> bool:
        """True if `params` satisfies this spec's fixed constraints, each
        to 1e-9 relative."""
        full = dict(zip(PARAM_NAMES, params.values()))
        return all(
            abs(full[name] - value) <= 1e-9 * max(1.0, abs(value))
            for name, value in self.fixed
        )


def _spec(name: str, **fixed: float) -> ModelSpec:
    return ModelSpec(name=name, fixed=tuple(sorted(fixed.items())))


MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        _spec("ERLD"),
        _spec("LRLD", a=1.0),
        _spec("ExpRLD", b=1.0),
        _spec("BLD", beta=1.0),
        _spec("BRD", lam=1.0),
        _spec("RLD", a=1.0, b=1.0),
        _spec("ExpLD", b=1.0, beta=1.0),
        _spec("Rayleigh", a=1.0, b=1.0, lam=1.0, theta=1.0),
    )
}

# the seven models reported in the comparison table, in its column order
DEFAULT_COMPARE = ("ERLD", "ExpLD", "LRLD", "BRD", "RLD", "ExpRLD", "BLD")


def get_model(name: str) -> ModelSpec:
    """Case-insensitive registry lookup."""
    for key, spec in MODELS.items():
        if key.lower() == name.strip().lower():
            return spec
    known = ", ".join(MODELS)
    raise ValueError(f"unknown model {name!r}; known models: {known}")
