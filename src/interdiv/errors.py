"""Exception types shared across the toolkit."""
from contextlib import contextmanager


class InterdivError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(InterdivError):
    """A required column is missing or the schema is inconsistent."""


class ConfigError(InterdivError):
    """A config file has a bad line or value, or an unknown, repeated or missing key."""


class EmptyDataError(InterdivError):
    """No usable rows remain after parsing."""


class DegenerateAttributeError(InterdivError):
    """A protected column has a single observed value; groups collapse."""


class SplitError(InterdivError):
    """A train/test partition would be empty."""


class ValidationError(InterdivError):
    """Invalid construction arguments (control points, parameters, ...)."""


class InputError(InterdivError):
    """Invalid runtime input (non-finite values, length mismatch, ...)."""


class UndefinedMetricError(InterdivError):
    """The requested measure is undefined for this group structure."""


class DegenerateObjectiveError(InterdivError):
    """The objective produced no usable curvature (all-zero Hessians)."""


class ParameterError(InterdivError):
    """Approximation or boosting parameters outside their valid range."""


class InternalError(InterdivError):
    """Invariant violated inside the library; indicates a bug."""


@contextmanager
def decode_errors_as(error, path):
    """Raise ``error`` naming ``path`` for text read from it that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None
