"""Exception hierarchy shared by every ivforest module."""


class IvforestError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(IvforestError):
    """Operands or rows do not have matching dimensions."""


class EmptySampleError(IvforestError):
    """An operation that needs at least one observation got none."""


class ParseError(IvforestError):
    """A CSV file violates the expected schema; message carries row/column context."""


class SplitError(IvforestError):
    """A train/test split would leave one side degenerate."""


class UnknownSettingError(IvforestError):
    """Simulation setting id outside the supported range."""


class UnderdeterminedError(IvforestError):
    """Fewer observations than coefficients to estimate."""


class NumericError(IvforestError):
    """Non-finite values or a numerically unusable problem."""


class ConfigError(IvforestError, ValueError):
    """Invalid configuration value (model name, grid, replication count, ...)."""


class DegenerateTruthError(IvforestError):
    """Evaluation target has zero variance, so R-squared is undefined."""


class OOBUnavailableError(IvforestError):
    """No row was ever out of bag, so no out-of-bag estimate exists."""
