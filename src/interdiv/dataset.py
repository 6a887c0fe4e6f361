"""Tabular regression data with intersectional group structure.

A :class:`GroupedDataset` binds a numeric feature matrix and target vector to
a per-sample intersectional group id. Groups are the observed combinations of
binarized protected attributes (value equal to the designated privileged
value maps to 1, anything else to 0). Group ids are assigned in decreasing
order of group size so reports are stable across reloads.

Protected columns are deliberately excluded from the feature matrix: models
trained on ``features`` never see the attributes directly, only whatever
proxies the remaining columns carry.
"""
from __future__ import annotations

import collections
import csv
import io
import itertools
import logging
import types
from dataclasses import dataclass

import numpy as np

from . import relevance
from .errors import (
    DegenerateAttributeError,
    EmptyDataError,
    InputError,
    SchemaError,
    SplitError,
    ValidationError,
    read_errors_as,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for a CSV file.

    ``privileged_values`` is aligned with ``protected_columns``; each entry
    names the attribute value that binarizes to 1. The features are every
    column that is not the target, protected or in ``drop_columns``.
    """

    target_column: str
    protected_columns: tuple[str, ...]
    privileged_values: tuple[str, ...]
    drop_columns: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "protected_columns", tuple(self.protected_columns))
        object.__setattr__(self, "privileged_values", tuple(str(v) for v in self.privileged_values))
        object.__setattr__(self, "drop_columns", tuple(self.drop_columns))
        if not self.protected_columns:
            raise SchemaError("at least one protected column is required")
        if self.target_column in self.protected_columns:
            raise SchemaError("target column cannot also be a protected column")
        if len(set(self.protected_columns)) != len(self.protected_columns):
            raise SchemaError("protected columns must be distinct")
        if len(self.privileged_values) != len(self.protected_columns):
            raise SchemaError("one privileged value is required per protected column")


@dataclass(frozen=True)
class GroupInfo:
    """One observed protected-attribute combination."""

    combo: tuple[int, ...]


@dataclass(frozen=True)
class GroupedDataset:
    """Immutable feature/target arrays plus intersectional group index."""

    features: np.ndarray            # (n, d) float64
    targets: np.ndarray             # (n,)
    protected: np.ndarray           # (n, a) uint8, 1 = privileged value
    group_of: np.ndarray            # (n,) int group id into group_catalog
    group_catalog: tuple[GroupInfo, ...]
    feature_names: tuple[str, ...]
    protected_names: tuple[str, ...]
    target_name: str = "y"
    n_dropped: int = 0

    def __post_init__(self):
        for arr in (self.features, self.targets, self.protected, self.group_of):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self.group_catalog)

    def group_counts(self) -> np.ndarray:
        return np.bincount(self.group_of, minlength=self.n_groups)

    def subset(self, ids) -> "GroupedDataset":
        """Row subset that keeps the parent catalog (absent groups count 0)."""
        ids = np.asarray(ids, dtype=int)
        return GroupedDataset(
            features=self.features[ids],
            targets=self.targets[ids],
            protected=self.protected[ids],
            group_of=self.group_of[ids],
            group_catalog=self.group_catalog,
            feature_names=self.feature_names,
            protected_names=self.protected_names,
            target_name=self.target_name,
        )


def _build_catalog(protected: np.ndarray):
    """Assign group ids by decreasing size (ties broken by combo tuple)."""
    # A 0/1 row packed into bytes, first attribute in the top bit, sorts as a
    # byte string in the lexicographic order of its combo tuple.
    packed = np.packbits(protected, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    combos = protected[first]
    order = sorted(
        range(len(combos)), key=lambda i: (-int(counts[i]), tuple(combos[i].tolist()))
    )
    remap = np.empty(len(combos), dtype=int)
    for new_id, old_id in enumerate(order):
        remap[old_id] = new_id
    group_of = remap[inverse.ravel()]
    catalog = tuple(GroupInfo(combo=tuple(int(v) for v in combos[old_id])) for old_id in order)
    return group_of.astype(np.int64), catalog


def from_arrays(
    features,
    targets,
    protected,
    feature_names=None,
    protected_names=None,
    target_name: str = "y",
    n_dropped: int = 0,
) -> GroupedDataset:
    """Assemble a GroupedDataset from in-memory arrays.

    ``protected`` must already be binarized (0/1 per attribute). Used by the
    synthetic generators and anywhere a dataset is built programmatically.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(targets, dtype=float)
    A = np.asarray(protected)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if not np.all((A == 0) | (A == 1)):
        raise InputError("protected matrix must be binarized to 0/1")
    A = A.astype(np.uint8)
    n = y.shape[0]
    if X.shape[0] != n or A.shape[0] != n:
        raise InputError("features, targets, and protected must share their length")
    if not np.all(np.isfinite(y)):
        raise InputError("targets must be finite")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    if protected_names is None:
        protected_names = tuple(f"a{i}" for i in range(A.shape[1]))
    for kind, names, width in (("feature", feature_names, X.shape[1]),
                               ("protected", protected_names, A.shape[1])):
        if len(names) != width:
            raise InputError(f"{kind} names: {len(names)} given for {width} columns")
    group_of, catalog = _build_catalog(A)
    return GroupedDataset(
        features=X,
        targets=y,
        protected=A,
        group_of=group_of,
        group_catalog=catalog,
        feature_names=tuple(feature_names),
        protected_names=tuple(protected_names),
        target_name=target_name,
        n_dropped=n_dropped,
    )


# records parsed at a time when a dataset CSV is read, lines at a time when a
# prediction file is read or written, and rows formatted at a time when a
# curve file is written: it bounds the Python objects alive at once
BLOCK_ROWS = 1024

_MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?"})


def _float_or_nan(token: str) -> float:
    try:
        return float(token.strip())
    except ValueError:
        return np.nan


def parse_floats(tokens) -> tuple[np.ndarray, np.ndarray]:
    """Parse a sequence of string tokens as float64 in one pass.

    Surrounding whitespace is ignored and a token that does not parse is
    NaN. Returns the values and the ascending indices of those that are not
    finite (unparseable, NaN or infinite). A float array, as numpy's reader
    gives a column, is taken as it is.
    """
    if isinstance(tokens, np.ndarray):
        return tokens, np.flatnonzero(~np.isfinite(tokens))
    n = len(tokens)
    try:
        values = np.fromiter(map(float, tokens), float, n)
    except ValueError:
        # float() skips the same whitespace as str.strip() except the ASCII
        # separators \x1c-\x1f, so tokens are stripped on this path only
        values = np.fromiter(map(_float_or_nan, tokens), float, n)
    return values, np.flatnonzero(~np.isfinite(values))


def _factorize(tokens):
    """The distinct tokens, each stripped (two may strip alike), and each
    token's index into that list."""
    first = {}  # token -> position of its first occurrence
    pos = np.fromiter(map(first.setdefault, tokens, itertools.count()), np.intp, len(tokens))
    code_at = np.empty(len(tokens), dtype=np.intp)
    code_at[np.fromiter(first.values(), np.intp, len(first))] = np.arange(len(first))
    return [t.strip() for t in first], code_at[pos]


def _missing(stripped) -> np.ndarray:
    return np.array([t.lower() in _MISSING_TOKENS for t in stripped], dtype=bool)


def _one_hot(name: str, col):
    """Categories in lexicographic order; a missing token encodes as all zeros."""
    uniq, codes = _factorize(col)
    cats = sorted({t for t, m in zip(uniq, _missing(uniq)) if not m})
    cat_of = {c: k for k, c in enumerate(cats)}
    row_cat = np.array([cat_of.get(t, -1) for t in uniq], dtype=np.intp)[codes]
    hit = np.flatnonzero(row_cat >= 0)
    onehot = np.zeros((len(col), len(cats)))
    onehot[hit, row_cat[hit]] = 1.0
    return onehot, [f"{name}={c}" for c in cats]


class _FeatureColumn:
    """A feature column of the kept rows, parsed block by block.

    The column is numeric while every token that is not a missing token
    parses as a number; the first token that does not makes it categorical,
    and its float parts are dropped. A number that is not finite (``inf``,
    ``1e999``) is an error only if the column stays numeric, so the first
    one is noted and raised at the end.
    """

    def __init__(self, name: str):
        self.name = name
        self.parts = []
        self.categorical = False
        self.non_finite = None  # (stripped token, data row) of the first one

    def add(self, col, row_no: np.ndarray) -> None:
        if self.categorical:
            return
        values, bad = parse_floats(col)
        if bad.size:
            uniq, codes = _factorize([col[i] for i in bad])
            present = ~_missing(uniq)
            if not all(relevance.is_number(t) for t, p in zip(uniq, present) if p):
                self.categorical = True
                self.parts = []
                return
            if present.any() and self.non_finite is None:
                k = int(bad[np.argmax(present[codes])])
                self.non_finite = (col[k].strip(), int(row_no[k]))
        self.parts.append(values)

    def numeric(self, path) -> np.ndarray:
        """The values as one column; missing entries take the median."""
        if self.non_finite is not None:
            token, row = self.non_finite
            raise InputError(
                f"non-finite value {token!r} in numeric feature column "
                f"{self.name!r} at data row {row} of {path}"
            )
        values = np.concatenate(self.parts)
        self.parts = []
        missing = np.isnan(values)
        if missing.all():
            values = np.zeros(len(values))
        elif missing.any():
            with np.errstate(over="ignore"):
                median = np.nanmedian(values)
            if not np.isfinite(median):
                # the two middle values' sum overflowed: halve each first,
                # only here, so that every finite median keeps its bits
                mid = np.sort(values[~missing])
                median = 0.5 * mid[(len(mid) - 1) // 2] + 0.5 * mid[len(mid) // 2]
            values = np.where(missing, median, values)
        return values.reshape(-1, 1)


def _text(data: bytes):
    """``data`` decoded as UTF-8 lines, a leading BOM dropped."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _kept_tokens(data: bytes, i: int, width: int, keep: np.ndarray) -> list:
    """Column ``i`` of the kept rows, parsed again from ``data``."""
    records = csv.reader(_text(data))
    next(records)
    return list(itertools.compress((r[i] for r in records if len(r) == width), keep))


def _numpy_reader(width: int, numeric_at, protected_at):
    """A function from a block of a plain file's lines to its columns as
    numpy's reader parses them: floats, parsed as ``float()`` parses a
    stripped token, for ``numeric_at`` and tokens, padding kept, for
    ``protected_at``. It gives None for a block whose values could differ
    from ``csv``'s: one with a blank, ragged or overlong line, or a number
    numpy cannot parse or finds not finite (``1_0``, non-ASCII digits, a
    word, NA, inf)."""
    used = sorted([*numeric_at, *protected_at])
    fields = np.dtype([(str(i), object if i in protected_at else float) for i in used])

    def read(batch):
        if set(map(str.count, batch, itertools.repeat(","))) != {width - 1} or max(
                map(len, batch)) > csv.field_size_limit():
            return None
        try:
            values = np.loadtxt(batch, fields, delimiter=",", usecols=used, comments=None,
                                ndmin=1)
        except ValueError:  # a token numpy does not parse
            return None
        if not all(np.isfinite(values[str(i)]).all() for i in numeric_at):
            return None
        # copies, so that no float column keeps the block's tokens alive
        return {i: values[str(i)].tolist() if i in protected_at else values[str(i)].copy()
                for i in used}

    return read


def _blocks(text, watch, lines_before: int, width: int, read_numpy):
    """Each block of ``BLOCK_ROWS`` records in ``text``, the lines of the
    file after its first ``lines_before``, as columns, leaving out records
    not ``width`` long, and the mask of the records kept.

    ``read_numpy`` is given for a plain file, one with no quote, CR or NUL
    byte, where a line is a record: it reads each block of lines until the
    first it gives None for. ``csv`` reads that block and every later one,
    and every block of any other file.
    """
    rows = text if read_numpy else filter(None, watch(csv.reader(text), lines_before))
    while batch := list(itertools.islice(rows, BLOCK_ROWS)):
        n_lines, columns = len(batch), read_numpy and read_numpy(batch)
        if columns is not None:
            yield columns, np.ones(n_lines, dtype=bool)
        else:
            if read_numpy:  # and csv reads the rest of the file straight from the text
                batch = list(filter(None, watch(csv.reader(batch), lines_before)))
                rows = filter(None, watch(csv.reader(text), lines_before + n_lines))
                read_numpy = None
            whole = np.fromiter(map(len, batch), np.intp, len(batch)) == width
            if not whole.all():
                batch = list(itertools.compress(batch, whole))
            yield list(zip(*batch)) or [()] * width, whole
        lines_before += n_lines


class _Reduced:
    """Blocks of records reduced as they are read: per block, the mask of
    the records kept, and the kept records' targets and protected bits;
    each feature's parts gather in its :class:`_FeatureColumn`.
    ``n_records`` counts the records added."""

    def __init__(self, target_at: int, protected, features):
        self.target_at = target_at
        self.protected = protected  # (column, privileged value) pairs
        self.features = [(i, _FeatureColumn(name)) for i, name in features]
        self.kept, self.targets, self.bits = [], [], []
        self.n_records = 0

    def add(self, columns, whole) -> None:
        y, _ = parse_floats(columns[self.target_at])
        keep = np.isfinite(y)
        bits = np.empty((len(y), len(self.protected)), dtype=np.uint8)
        for j, (i, privileged) in enumerate(self.protected):
            uniq, codes = _factorize(columns[i])
            keep &= ~_missing(uniq)[codes]
            bits[:, j] = (np.array(uniq, dtype=str) == privileged)[codes]
        row_no = (np.flatnonzero(whole) + self.n_records + 1)[keep]
        self.n_records += len(whole)
        self.kept.append(keep)
        self.targets.append(y[keep])
        self.bits.append(bits[keep])
        if row_no.size:
            for i, f in self.features:
                col = columns[i]
                if row_no.size < len(keep):
                    col = list(itertools.compress(col, keep))
                f.add(col, row_no)


# bytes of a file decoded at a time when it is checked as UTF-8
_SCAN_BYTES = 1 << 18


def _check_utf8(data: bytes, path) -> None:
    """Raise ``InputError`` for the first byte of ``data`` that is not
    UTF-8, naming its offset and line in the file; a line ends in LF, CRLF
    or a bare CR, as the readers take it. The bytes are decoded a slice at a
    time, each ending on a newline, a byte no UTF-8 character holds but its
    own."""
    if data.isascii():
        return
    at = 0
    while at < len(data):
        end = data.find(b"\n", at + _SCAN_BYTES) + 1 or len(data)
        try:
            data[at:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = at + exc.start
            ends = data.count(b"\n", 0, bad) + data.count(b"\r", 0, bad)
            line = ends - data.count(b"\r\n", 0, bad) + 1
            raise InputError(f"{path} is not UTF-8 text: byte {data[bad]:#04x} at offset "
                             f"{bad} (line {line}): {exc.reason}") from None
        at = end


def _parse(data: bytes, path, schema: DatasetSchema, features: bool):
    """Targets, protected bits, feature blocks and names, and ``n_dropped``.
    Without ``features`` no feature column is parsed, and there are no
    feature blocks or names.

    ``data`` is checked to be UTF-8 first, so its first bad byte is
    reported before any malformed record or schema error, and no decode
    can fail later. :func:`_blocks` reads the records after the header, and
    each block is reduced to float parts, protected bits and notes of bad
    tokens before the next is read. The first malformed record is an error
    naming its line of the file; every other check runs only after the last
    record.
    """
    _check_utf8(data, path)
    with read_errors_as(InputError, path) as watch:
        text = _text(data)
        records = watch(csv.reader(text))
        header = next(records, None)
        if header is None:
            raise EmptyDataError(f"no header row in {path}")
        header = [h.strip() for h in header]
        try:
            col_index = {}
            for i, name in enumerate(header):
                if col_index.setdefault(name, i) != i:
                    raise SchemaError(f"duplicate column {name!r} in the header of {path}")
            for col in (schema.target_column, *schema.protected_columns, *schema.drop_columns):
                if col not in col_index:
                    raise SchemaError(f"column {col!r} not found in {path}")
        except SchemaError:
            # a malformed record further on is reported first, as it was
            # when the whole file was parsed before any check
            collections.deque(records, maxlen=0)
            raise

    excluded = {schema.target_column, *schema.protected_columns, *schema.drop_columns}
    width = len(header)
    target_at = col_index[schema.target_column]
    privileged = [(col_index[c], v) for c, v in zip(schema.protected_columns,
                                                    schema.privileged_values)]
    features = [(col_index[c], c) for c in header if c not in excluded] if features else []
    read_numpy = None
    if not any(c in data for c in (b'"', b"\r", b"\0")):
        read_numpy = _numpy_reader(width, sorted({target_at, *(i for i, _ in features)}),
                                   [i for i, _ in privileged])
    reduced = _Reduced(target_at, privileged, features)
    with read_errors_as(InputError, path) as watch:
        for columns, whole in _blocks(text, watch, records.line_num, width, read_numpy):
            reduced.add(columns, whole)

    targets = np.concatenate(reduced.targets) if reduced.targets else np.zeros(0)
    n = len(targets)
    if n == 0:
        raise EmptyDataError(f"zero usable rows in {path}")
    n_dropped = reduced.n_records - n
    if n_dropped:
        log.info("dropped %d unusable rows while loading %s", n_dropped, path)
    protected = np.concatenate(reduced.bits)
    for j, cname in enumerate(schema.protected_columns):
        if np.unique(protected[:, j]).size < 2:
            raise DegenerateAttributeError(
                f"protected column {cname!r} has a single "
                "observed value after binarization; group structure collapses"
            )

    blocks = []
    names = []
    keep = np.concatenate(reduced.kept)
    for i, f in reduced.features:
        if f.categorical:
            tokens = _kept_tokens(data, i, width, keep)
            block, block_names = _one_hot(f.name, tokens)
        else:
            block, block_names = f.numeric(path), [f.name]
        blocks.append(block)
        names.extend(block_names)
    return targets, protected, blocks, names, n_dropped


def load_csv(path, schema: DatasetSchema, features: bool = True) -> GroupedDataset:
    """Load an RFC-4180 CSV and index rows by intersectional group.

    Rows of the wrong width, and rows whose target or protected value is
    missing/unparseable, are dropped (the count is kept on ``n_dropped`` and
    logged). Feature columns that fail to parse as numbers are treated as
    categorical and one-hot encoded in lexicographic category order;
    missing values in numeric feature columns are imputed with the column
    median. The file is read once, as bytes, checked to be UTF-8 (the
    first bad byte is an ``InputError`` naming its offset and line), and
    parsed in blocks of ``BLOCK_ROWS`` records, by numpy's C reader where
    it gives the values ``csv`` would (see :func:`_blocks`); a categorical
    column is parsed again from those bytes. The whole load runs in the
    calling process.

    With ``features=False``, for a caller that reads only the targets and
    groups, no feature column is parsed: ``features`` is an ``(n, 0)``
    matrix, and a feature cell is checked only for the record's width.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    targets, protected, blocks, names, n_dropped = _parse(data, path, schema, features)
    del data  # before the feature matrix is assembled, to keep the peak lower
    X = np.hstack(blocks) if blocks else np.zeros((len(targets), 0))
    return from_arrays(
        X,
        targets,
        protected,
        feature_names=names,
        protected_names=schema.protected_columns,
        target_name=schema.target_column,
        n_dropped=n_dropped,
    )


def read_preds(path) -> np.ndarray:
    """The first column of a predictions CSV; a header line is optional.

    Lines end in ``\\r\\n``, ``\\r`` or ``\\n``, and blank ones are skipped.
    Non-finite values are read as they are, for the caller to reject; a row
    that is not a number is an ``InputError``, and so is a byte that is not
    UTF-8, named by its offset and line in the file. The bytes are checked
    whole, then decoded and parsed ``BLOCK_ROWS`` lines at a time.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    _check_utf8(data, path)
    parts = []
    with _text(data) as lines:  # a line keeps its LF, CRLF or CR end, which strip() drops
        first = next(lines, "").strip()
        try:
            float(first.split(",")[0])
        except ValueError:
            first = ""  # header line
        rows = itertools.chain([first], lines)
        while block := list(itertools.islice(rows, BLOCK_ROWS)):
            block = [line for line in map(str.strip, block) if line]
            fields = [line.split(",")[0] for line in block]
            vals, bad = parse_floats(fields)
            for i in bad:  # non-finite values parse; the commands reject them later
                try:
                    float(fields[i])
                except ValueError as exc:
                    raise InputError(f"bad prediction row {block[i]!r} in {path}") from exc
            parts.append(vals)
    return np.concatenate(parts)


def write_preds(path, preds) -> None:
    """Write a ``pred`` header and one ``%.17g`` value per line,
    ``BLOCK_ROWS`` lines at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pred\n")
        for at in range(0, len(preds), BLOCK_ROWS):
            fh.write("".join("%.17g\n" % v for v in preds[at:at + BLOCK_ROWS].tolist()))


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a CSV file with ``\\n`` line ends.

    A float cell is written as ``%.17g``, any other as ``str`` gives it, and
    a cell is quoted only where it holds a comma, a double quote or a line
    break.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # csv.writer quotes a cell holding CR or LF only if its line end holds
        # it: so rows end in "\r\n", and each, written in one call, as "\n"
        out = csv.writer(types.SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")))
        out.writerow(header)
        out.writerows(["%.17g" % c if isinstance(c, float) else c for c in row] for row in rows)


def write_csv(path, ds: GroupedDataset) -> None:
    """Write ``ds`` as a dataset CSV that :func:`load_csv` reads back.

    Columns are the target, the protected attributes as their 0/1 bits
    (1 is privileged) and the features; numbers are ``%.17g``.
    """
    write_rows(path, [ds.target_name, *ds.protected_names, *ds.feature_names],
               ([t, *a, *x] for t, a, x in zip(ds.targets.tolist(), ds.protected.tolist(),
                                               ds.features.tolist())))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed!r}")


def _rng(seed: int) -> np.random.Generator:
    _check_seed(seed)
    return np.random.default_rng(seed)


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int):
    """SeedSequence's 32-bit hash, whose multiplier steps on every call."""

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_state(seed: int) -> list[int]:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` as ints."""
    entropy = [seed & _M32]
    while seed >> 32 * len(entropy):
        entropy.append(seed >> 32 * len(entropy) & _M32)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [draw(pool[i % 4]) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class _SplitStream:
    """The stream of ``np.random.default_rng(seed)`` that ``permutation`` reads.

    numpy's PCG64 (a 128-bit LCG with the XSL-RR output), seeded through
    SeedSequence, and drawn 32 bits at a time: a draw takes the low half of a
    64-bit output and keeps the high half for the next one. Owning it keeps
    every split's rows fixed across numpy releases, and a split imports no
    ``numpy.random``, whose import (with the OpenSSL library its seeding
    loads) raises a process's peak memory by about 5.5 MB.
    """

    def __init__(self, seed: int):
        _check_seed(seed)
        v0, v1, v2, v3 = _seed_state(seed)
        self._inc = (v2 << 64 | v3) << 1 & _M128 | 1
        self._state = ((self._inc + (v0 << 64 | v1)) * _PCG_MULT + self._inc) & _M128
        self._spare = None

    def permutation(self, n: int) -> np.ndarray:
        """``Generator.permutation(n)``: the shuffle of ``range(n)`` from the top.

        For rows up to 2**32 only, where numpy draws 32 bits per try.
        """
        perm = list(range(n))
        state, inc, spare = self._state, self._inc, self._spare
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if spare is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    hi = state >> 64
                    out = hi ^ state & _M64
                    rot = hi >> 58
                    out = (out >> rot | out << (64 - rot)) & _M64
                    j = out & mask
                    spare = out >> 32
                else:
                    j = spare & mask
                    spare = None
                if j <= i:
                    break
            perm[i], perm[j] = perm[j], perm[i]
        self._state, self._spare = state, spare
        return np.array(perm, dtype=np.int64)


def split(ds: GroupedDataset, train_ratio: float, seed: int, stratify_groups: bool = False):
    """Reproducible uniform random split into (train, test).

    With ``stratify_groups`` the shuffle and ratio are applied per group, so
    group proportions carry over; the default is a plain shuffle.
    """
    if not 0.0 < train_ratio < 1.0:
        raise SplitError(f"train_ratio must be in (0, 1), got {train_ratio!r}")
    rng = _SplitStream(seed)
    if stratify_groups:
        train_ids = []
        test_ids = []
        for g in range(ds.n_groups):
            ids = np.nonzero(ds.group_of == g)[0]
            perm = ids[rng.permutation(len(ids))]
            k = int(train_ratio * len(ids))
            train_ids.append(perm[:k])
            test_ids.append(perm[k:])
        train_ids = np.sort(np.concatenate(train_ids))
        test_ids = np.sort(np.concatenate(test_ids))
    else:
        perm = rng.permutation(ds.n)
        k = int(train_ratio * ds.n)
        train_ids = np.sort(perm[:k])
        test_ids = np.sort(perm[k:])
    if len(train_ids) == 0 or len(test_ids) == 0:
        raise SplitError(
            f"split of n={ds.n} at ratio={train_ratio} leaves an empty partition"
        )
    return ds.subset(train_ids), ds.subset(test_ids)


def synth_imbalanced_scenario(n_per_group: int, divergence: float, seed: int):
    """Two groups with equal total absolute error but skewed error placement.

    Both groups share the same targets, so their relevance profiles are
    identical. Per-sample absolute errors are 1 for the privileged group; for
    the unprivileged group they are tilted toward high-relevance targets by
    ``divergence`` while keeping the group MAE equal to within float
    round-off. Returns ``(dataset, predictions)`` ready for auditing.
    """
    if n_per_group < 10:
        raise ValidationError("n_per_group must be at least 10")
    if not 0.0 <= divergence < np.inf:  # NaN fails this comparison too
        raise ValidationError(f"divergence must be nonnegative and finite, got {divergence!r}")
    rng = _rng(seed)
    n = int(n_per_group)
    y = np.linspace(0.0, 10.0, n)
    phi = relevance.from_boxplot(y)
    r = phi(y)
    s = r - r.mean()
    if divergence > 0 and np.max(np.abs(s)) > 0:
        s = s / np.max(np.abs(s))
        s = s - s.mean()
        c = 0.95 * divergence / (1.0 + divergence)
    else:
        s = np.zeros_like(s)
        c = 0.0
    err_priv = np.ones(n)
    err_unpriv = 1.0 + c * s
    sign_p = rng.choice([-1.0, 1.0], size=n)
    sign_u = rng.choice([-1.0, 1.0], size=n)
    preds = np.concatenate([y + sign_p * err_priv, y + sign_u * err_unpriv])
    targets = np.concatenate([y, y])
    protected = np.concatenate([np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)])
    features = np.column_stack(
        [targets + rng.normal(0.0, 0.5, size=2 * n), rng.normal(size=2 * n)]
    )
    ds = from_arrays(
        features,
        targets,
        protected.reshape(-1, 1),
        feature_names=("x0", "x1"),
        protected_names=("a0",),
    )
    return ds, preds


# synth_biased: the tail bump's relative extra height when the first
# attribute is unprivileged (half of it for the second), and the standard
# deviation of the target noise
TAIL_BIAS = 0.8
TARGET_NOISE = 0.5


def synth_biased(n: int, seed: int, n_protected: int = 2):
    """Trainable dataset whose high-target tail depends on group membership.

    The target has a common linear part plus a tail bump triggered by one
    feature; the bump is larger for unprivileged groups. Noisy proxy columns
    leak group membership into the features, so a capacity-limited model can
    in principle learn the group-specific tails but a squared-error fit will
    favour the majority pattern. This is the training counterpart of
    :func:`synth_imbalanced_scenario`.
    """
    if n < 50:
        raise ValidationError("n must be at least 50")
    if n_protected not in (1, 2):
        raise ValidationError("n_protected must be 1 or 2")
    rng = _rng(seed)
    a1 = (rng.random(n) < 0.6).astype(np.uint8)
    cols = [a1]
    if n_protected == 2:
        a2 = (rng.random(n) < 0.55).astype(np.uint8)
        cols.append(a2)
    A = np.column_stack(cols)
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    proxies = [A[:, j] + 0.35 * rng.normal(size=n) for j in range(A.shape[1])]
    tail = (x2 > 1.0).astype(float)
    mult = 1.0 + TAIL_BIAS * (1 - A[:, 0])
    if A.shape[1] == 2:
        mult = mult + 0.5 * TAIL_BIAS * (1 - A[:, 1])
    y = 3.0 * x0 + 2.0 * x1 + 8.0 * tail * mult + TARGET_NOISE * rng.normal(size=n)
    X = np.column_stack([x0, x1, x2, *proxies])
    names = ["x0", "x1", "x2"] + [f"proxy{j}" for j in range(A.shape[1])]
    return from_arrays(
        X,
        y,
        A,
        feature_names=names,
        protected_names=tuple(f"a{j}" for j in range(A.shape[1])),
    )
