"""Named sub-models of the five-parameter family.

Each entry pins a subset of (a, b, theta, lam, beta) to constants; the
free remainder is what estimation optimizes.  Model names are the
identifiers users type at the CLI and are matched case-insensitively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import ErlParams, _positive

PARAM_NAMES = ("a", "b", "theta", "lam", "beta")

# external spelling used in CLI flags, JSON reports and CSV headers
PARAM_LABELS = {"a": "a", "b": "b", "theta": "theta", "lam": "lambda", "beta": "beta"}


@dataclass(frozen=True)
class ModelSpec:
    """A named constraint set over the five parameters, each fixed once under ErlParams'
    rule; row holds them in PARAM_NAMES order (0.0 where free), slots the free slots."""

    name: str
    fixed: tuple[tuple[str, float], ...] = field(default=())
    row: tuple[float, ...] = field(init=False, repr=False, compare=False)
    slots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row: list = [None] * len(PARAM_NAMES)
        fixed = []
        for key, value in self.fixed:
            if key not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {key!r} in ModelSpec {self.name!r}")
            slot = PARAM_NAMES.index(key)
            if row[slot] is not None:
                raise ValueError(f"parameter {key!r} fixed twice in ModelSpec {self.name!r}")
            row[slot] = _positive(value, f"fixed {key!r} in ModelSpec {self.name!r}")
            fixed.append((key, row[slot]))
        object.__setattr__(self, "fixed", tuple(fixed))
        object.__setattr__(self, "slots", tuple(s for s, value in enumerate(row) if value is None))
        object.__setattr__(self, "row", tuple(0.0 if value is None else value for value in row))

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(PARAM_NAMES[slot] for slot in self.slots)

    @property
    def free_count(self) -> int:
        return len(self.slots)

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
        full = list(self.row)
        for slot, value in zip(self.slots, free_values):
            full[slot] = value
        return ErlParams(*full)

    def extract(self, params: ErlParams) -> tuple[float, ...]:
        """Free-parameter values of `params` in registry order."""
        return tuple(params.values()[slot] for slot in self.slots)

    def admits(self, params: ErlParams) -> bool:
        """True if `params` satisfies this spec's fixed constraints, each
        to 1e-9 relative."""
        return all(
            abs(have - value) <= 1e-9 * max(1.0, abs(value))
            for slot, (have, value) in enumerate(zip(params.values(), self.row))
            if slot not in self.slots
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
