"""Exception types, and the integer-input rule, shared across the package."""

import operator


class ModelError(ValueError):
    """The model (or a model file) violates a structural requirement."""


class NumericError(RuntimeError):
    """A computation broke down numerically (singularity, overflow, lost positivity)."""


class EstimationError(RuntimeError):
    """A simulation estimate cannot be produced from the given configuration."""


def as_integer(value, name: str) -> int:
    """An integer input as an int: anything ``operator.index`` takes but a bool, else ValueError naming it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")
