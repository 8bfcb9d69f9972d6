"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """An input's length or shape does not match what the operation expects."""


class NonFiniteInput(ValueError):
    """An input vector holds NaN or infinity."""


class ModelFormatError(ValueError):
    """A model document lacks a required key or holds inconsistent shapes."""


class NumericOverflow(ArithmeticError):
    """A forward evaluation or line search produced a non-finite value."""


class UnsupportedNetwork(TypeError):
    """The operation is not defined for this network kind."""


class TrainingDiverged(RuntimeError):
    """Training loss became non-finite."""


class ConfigError(ValueError):
    """A configuration value violates its constraints."""
