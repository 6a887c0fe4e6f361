"""Exception types shared across the toolkit."""
import csv
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


@contextmanager
def read_errors_as(error, path):
    """Raise ``error`` naming ``path`` for text read from it that is not UTF-8,
    or for a record that a ``csv.reader`` passed through the context value
    rejects, naming its line: the reader's plus the ``lines_before`` passed."""
    line_now = []  # per watched reader, the file line it stopped on

    def watch(reader, lines_before=0):
        line_now.append(lambda: lines_before + reader.line_num)
        return reader

    try:
        yield watch
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise error(f"{path}, line {line_now[-1]()}: {exc}") from None
