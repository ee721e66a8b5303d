"""Exception types shared across the package, and the finite-value check
of the config dataclasses."""

import math


class MlnetVadError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(MlnetVadError, ValueError):
    """An operation received operands with incompatible shapes."""


class NonFiniteError(MlnetVadError, ArithmeticError):
    """A NaN or infinity appeared where only finite values are allowed."""


class GraphError(MlnetVadError, RuntimeError):
    """Invalid use of the computation graph (e.g. backward on a non-scalar)."""


class ConfigError(MlnetVadError, ValueError):
    """A configuration value violates its documented constraints."""


class CorpusError(MlnetVadError, ValueError):
    """Corpus construction failed (zero-power signal, bad mask, ...)."""


class FormatError(MlnetVadError, ValueError):
    """A file does not conform to its declared binary or text format."""


class TrainingError(MlnetVadError, RuntimeError):
    """Training aborted (non-finite gradients, empty corpus, ...)."""


def require_finite(config, *names: str) -> None:
    """Raise ``ConfigError`` for the first of ``config``'s named fields that
    is NaN or infinite; ordered comparisons let NaN through."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
