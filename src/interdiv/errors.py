"""Exception types shared across the toolkit, and the checked read of input files."""
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


# bytes of a file decoded at a time when it is checked as UTF-8
_SCAN_BYTES = 1 << 18


def read_utf8(path, error=InputError) -> bytes:
    """The bytes of ``path``, read once and checked to be UTF-8 text: the
    first bad byte raises ``error`` naming its offset and line, where a line
    ends in LF, CRLF or a bare CR, as the readers take it. The bytes are
    decoded a slice at a time, each ending on a newline, a byte no UTF-8
    character holds but its own."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii():
        return data
    at = 0
    while at < len(data):
        end = data.find(b"\n", at + _SCAN_BYTES) + 1 or len(data)
        try:
            data[at:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = at + exc.start
            ends = data.count(b"\n", 0, bad) + data.count(b"\r", 0, bad)
            line = ends - data.count(b"\r\n", 0, bad) + 1
            raise error(f"{path} is not UTF-8 text: byte {data[bad]:#04x} at offset "
                        f"{bad} (line {line}): {exc.reason}") from None
        at = end
    return data


@contextmanager
def read_errors_as(error, path):
    """Raise ``error`` naming ``path`` and the line for a record that a
    ``csv.reader`` passed through the context value rejects: the reader's
    line plus the ``lines_before`` passed. :func:`read_utf8` checks the text."""
    line_now = []  # per watched reader, the file line it stopped on

    def watch(reader, lines_before=0):
        line_now.append(lambda: lines_before + reader.line_num)
        return reader

    try:
        yield watch
    except csv.Error as exc:
        raise error(f"{path}, line {line_now[-1]()}: {exc}") from None
