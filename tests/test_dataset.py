import collections
import csv
import functools
import os
import re
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parent_split, parent_write_csv, rowwise_load_csv
from interdiv import curves, dataset, errors, metrics, parallel, relevance
from interdiv.dataset import DatasetSchema
from interdiv.errors import (
    DegenerateAttributeError,
    EmptyDataError,
    InputError,
    InterdivError,
    SchemaError,
    SplitError,
    ValidationError,
)


def write_csv(path, header, rows):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def basic_csv(tmp_path, name="d.csv"):
    rows = []
    for i in range(12):
        sex = "M" if i % 2 else "F"
        race = "W" if i % 3 else "B"
        rows.append(f"{sex},{race},{i * 0.5},{i}")
    return write_csv(tmp_path / name, "sex,race,y,x1", rows)


SCHEMA = DatasetSchema("y", ("sex", "race"), ("M", "W"))


class TestSchema:
    def test_requires_protected(self):
        with pytest.raises(SchemaError):
            DatasetSchema("y", (), ())

    def test_target_cannot_be_protected(self):
        with pytest.raises(SchemaError):
            DatasetSchema("y", ("y",), ("1",))

    def test_privileged_alignment(self):
        with pytest.raises(SchemaError):
            DatasetSchema("y", ("sex", "race"), ("M",))


class TestLoadCsv:
    def test_four_groups_stable_across_reloads(self, tmp_path):
        path = basic_csv(tmp_path)
        ds1 = dataset.load_csv(path, SCHEMA)
        ds2 = dataset.load_csv(path, SCHEMA)
        assert ds1.n_groups == 4
        assert [g.combo for g in ds1.group_catalog] == [g.combo for g in ds2.group_catalog]
        assert np.array_equal(ds1.group_of, ds2.group_of)
        assert np.array_equal(ds1.features, ds2.features)

    def test_compas_shaped_group_sizes(self, tmp_path):
        # two binary protected attributes with heavily imbalanced groups
        sizes = {("M", "C"): 4813, ("M", "O"): 2377, ("F", "C"): 1100, ("F", "O"): 759}
        rows = []
        i = 0
        for (sex, race), cnt in sizes.items():
            for _ in range(cnt):
                rows.append(f"{sex},{race},{(i % 10) / 10},{i % 7}")
                i += 1
        path = write_csv(tmp_path / "compas.csv", "sex,race,y,x1", rows)
        ds = dataset.load_csv(path, DatasetSchema("y", ("sex", "race"), ("M", "C")))
        counts = ds.group_counts().tolist()
        assert counts == [4813, 2377, 1100, 759]
        assert counts == sorted(counts, reverse=True)

    def test_unparseable_target_dropped(self, tmp_path):
        rows = ["M,W,1.0,3", "F,B,2.0,4", "M,B,NA,5", "F,W,0.5,6", "M,W,2.5,7"]
        path = write_csv(tmp_path / "na.csv", "sex,race,y,x1", rows)
        ds = dataset.load_csv(path, SCHEMA)
        assert ds.n == 4
        assert ds.n_dropped == 1

    def test_missing_column_named_in_error(self, tmp_path):
        path = basic_csv(tmp_path)
        with pytest.raises(SchemaError, match="income"):
            dataset.load_csv(path, DatasetSchema("income", ("sex",), ("M",)))

    def test_zero_usable_rows(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "sex,race,y,x1", ["M,W,NA,1"])
        with pytest.raises(EmptyDataError):
            dataset.load_csv(path, SCHEMA)

    def test_one_sided_protected_column(self, tmp_path):
        rows = [f"M,W,{i}.0,{i}" for i in range(6)]
        path = write_csv(tmp_path / "onesided.csv", "sex,race,y,x1", rows)
        with pytest.raises(DegenerateAttributeError, match="sex"):
            dataset.load_csv(path, SCHEMA)

    def test_categorical_one_hot_lexicographic(self, tmp_path):
        rows = ["M,W,1.0,red", "F,B,2.0,blue", "M,B,3.0,green", "F,W,4.0,red"]
        path = write_csv(tmp_path / "cat.csv", "sex,race,y,color", rows)
        ds = dataset.load_csv(path, SCHEMA)
        assert ds.feature_names == ("color=blue", "color=green", "color=red")
        assert np.array_equal(ds.features[:, 2], [1.0, 0.0, 0.0, 1.0])

    def test_numeric_feature_median_imputed(self, tmp_path):
        rows = ["M,W,1.0,10", "F,B,2.0,NA", "M,B,3.0,30", "F,W,4.0,20"]
        path = write_csv(tmp_path / "imp.csv", "sex,race,y,x1", rows)
        ds = dataset.load_csv(path, SCHEMA)
        assert ds.features[1, 0] == pytest.approx(20.0)  # median of 10, 30, 20

    def test_binarization_fixed_point(self, tmp_path):
        path = basic_csv(tmp_path)
        ds = dataset.load_csv(path, SCHEMA)
        rows = [
            f"{int(ds.protected[i, 0])},{int(ds.protected[i, 1])},"
            f"{ds.targets[i]},{ds.features[i, 0]}"
            for i in range(ds.n)
        ]
        path2 = write_csv(tmp_path / "rebin.csv", "sex,race,y,x1", rows)
        ds2 = dataset.load_csv(path2, DatasetSchema("y", ("sex", "race"), ("1", "1")))
        assert np.array_equal(ds.protected, ds2.protected)
        assert np.array_equal(ds.group_of, ds2.group_of)

    def test_drop_columns_excluded(self, tmp_path):
        rows = ["M,W,1.0,3,9", "F,B,2.0,4,9", "M,B,3.0,5,9", "F,W,4.0,6,9"]
        path = write_csv(tmp_path / "drop.csv", "sex,race,y,x1,junk", rows)
        schema = DatasetSchema("y", ("sex", "race"), ("M", "W"), drop_columns=("junk",))
        ds = dataset.load_csv(path, schema)
        assert ds.feature_names == ("x1",)


    def test_duplicate_header_named_in_error(self, tmp_path):
        rows = ["1.0,M,W,3,4", "2.0,F,B,5,6"]
        path = write_csv(tmp_path / "dup.csv", "y,sex,race,x,x", rows)
        with pytest.raises(SchemaError, match="duplicate column 'x'"):
            dataset.load_csv(path, SCHEMA)

    def test_undecodable_byte_reported_before_a_header_error(self, tmp_path):
        # the bad byte lies far past the header, beyond the first chunk the
        # decoder sees
        path = tmp_path / "d.csv"
        path.write_bytes(b"sex,race,y,x1,x1\n" + b"M,W,1.0,3,4\n" * 5000 + b"F,B,2.0,\xff,4\n")
        with pytest.raises(InputError, match="is not UTF-8 text"):
            dataset.load_csv(path, SCHEMA)

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e999", "-nan"])
    def test_non_finite_numeric_feature_rejected(self, tmp_path, token):
        rows = ["M,W,1.0,3", "F,B,2.0,NA", "M,B,3.0,nan", f"F,W,4.0, {token}", "M,W,5.0,inf"]
        path = write_csv(tmp_path / "inf.csv", "sex,race,y,x1", rows)
        with pytest.raises(InputError, match=rf"'{token}' .* 'x1' at data row 4 "):
            dataset.load_csv(path, SCHEMA)
        # a load without the features never parses the column
        ds = dataset.load_csv(path, SCHEMA, features=False)
        assert ds.features.shape == (5, 0)
        assert ds.targets.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_nan_token_is_missing_not_non_finite(self, tmp_path):
        rows = ["M,W,1.0,10", "F,B,2.0, NaN ", "M,B,3.0,30", "F,W,4.0,20"]
        path = write_csv(tmp_path / "nan.csv", "sex,race,y,x1", rows)
        ds = dataset.load_csv(path, SCHEMA)
        assert ds.feature_names == ("x1",)
        assert ds.features[1, 0] == 20.0

    def test_non_finite_number_in_categorical_column_is_a_category(self, tmp_path):
        rows = ["M,W,1.0,red", "F,B,2.0,inf", "M,B,3.0,2", "F,W,4.0,red"]
        path = write_csv(tmp_path / "catinf.csv", "sex,race,y,color", rows)
        ds = dataset.load_csv(path, SCHEMA)
        assert ds.feature_names == ("color=2", "color=inf", "color=red")

    def test_rows_dropped_before_columns_are_typed(self, tmp_path):
        # the word sits in a dropped row, so the column stays numeric
        rows = ["M,W,1.0,1", "F,B,NA,word", "M,B,3.0,3", "F,W,4.0", "", "F,W,2.0,5"]
        path = write_csv(tmp_path / "typed.csv", "sex,race,y,x1", rows)
        ds = dataset.load_csv(path, SCHEMA)
        assert ds.feature_names == ("x1",)
        assert ds.n_dropped == 2
        assert ds.features[:, 0].tolist() == [1.0, 3.0, 5.0]


_PAD = st.sampled_from(["", " ", "  ", "\t", "\x1c"])
_MISSING = st.sampled_from(["", "NA", "na", "N/A", "n/a", "NaN", "nan", "NULL", "None", "?"])
_NUMBER = st.one_of(
    st.sampled_from(["0", "3", "-0", "+1e3", "1_0", "2.5", ".5", "5.", "-7.5e-3", "1e-320"]),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda v: "%.17g" % v),
)
_NON_FINITE = st.sampled_from(["inf", "-inf", "Infinity", "1e999", "-1e999", "-nan", "+NaN"])
_WORD = st.sampled_from(["red", "Red", "blue", "a,b", "x, y", 'say "hi"', "1 2", "é"])
_ATTR = st.sampled_from(["M", "F", "m", "W", "B", "1", "0", "inf"])
_FEATURE_KINDS = {
    # every non-missing value a finite number
    "num": st.one_of(_NUMBER, _MISSING),
    # the first row, always kept, holds a word, so the column is categorical
    "cat": st.one_of(_NUMBER, _MISSING, _NON_FINITE, _WORD),
}


def _padded(token_strategy):
    return st.tuples(_PAD, token_strategy, _PAD).map("".join)


def _cell(draw, text):
    if "," in text or '"' in text or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _csv_case(draw):
    """A CSV text, its schema, and the header it was written with.

    Two inputs whose handling changed on purpose are excluded by
    construction: headers repeat no name (repeats are now a SchemaError),
    and numeric feature columns hold no non-finite number such as ``inf``
    (now an InputError instead of a switch to one-hot encoding). Non-finite
    tokens appear only in the target, the protected columns and columns
    that the always-kept first row makes categorical.
    """
    kinds = draw(st.lists(st.sampled_from(sorted(_FEATURE_KINDS)), min_size=1, max_size=3))
    features = [f"f{i}" for i in range(len(kinds))]
    protected = ["a", "b"][: draw(st.integers(1, 2))]
    privileged = [draw(_ATTR) for _ in protected]
    header = draw(st.permutations(["y", *protected, *features, "junk"]))
    dropped = draw(st.permutations(features))[: draw(st.integers(0, len(features)))]
    schema = DatasetSchema("y", tuple(protected), tuple(privileged),
                           drop_columns=("junk", *dropped))

    lines = [",".join(_cell(draw, draw(_padded(st.just(h)))) for h in header)]
    # the first row is kept and privileged; most often the second is kept
    # and unprivileged, so that most cases get past the degeneracy check
    mixed = draw(st.integers(0, 4)) > 0
    for r in range(draw(st.integers(1, 12))):
        cells = {"junk": draw(_padded(st.one_of(_WORD, _NUMBER, _MISSING)))}
        if r == 0:
            cells["y"] = draw(_padded(_NUMBER))
            cells.update((a, draw(_padded(st.just(v)))) for a, v in zip(protected, privileged))
        elif r == 1 and mixed:
            cells["y"] = draw(_padded(_NUMBER))
            cells.update((a, draw(_padded(_ATTR.filter(lambda t, v=v: t != v))))
                         for a, v in zip(protected, privileged))
        else:
            cells["y"] = draw(_padded(st.one_of(_NUMBER, _MISSING, _NON_FINITE, _WORD)))
            cells.update((a, draw(_padded(st.one_of(_ATTR, _MISSING)))) for a in protected)
        for name, kind in zip(features, kinds):
            token = _WORD if r == 0 and kind == "cat" else _FEATURE_KINDS[kind]
            cells[name] = draw(_padded(token))
        row = [cells[h] for h in header]
        if r > 1 and draw(st.integers(0, 5)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join(_cell(draw, c) for c in row))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(lines) + "\n", schema


def _load(loader, path, schema):
    try:
        return loader(path, schema)
    except InterdivError as exc:
        return type(exc), str(exc)


class TestMedianFill:
    def test_two_middle_values_past_the_float_range(self, tmp_path):
        # their mean overflows as (a + b) / 2, so each is halved first
        a, b = -1.7976931348623157e+308, -8.2135829049994676e+306
        path = tmp_path / "d.csv"
        path.write_text(f"y,a,f0\n1,M,{a!r}\n2,F,\n3,M,{b!r}\n4,F,\n")
        ds = dataset.load_csv(path, DatasetSchema("y", ("a",), ("M",)))
        assert ds.features[:, 0].tolist() == [a, 0.5 * a + 0.5 * b, b, 0.5 * a + 0.5 * b]

    def test_a_finite_mean_keeps_its_bits(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,f0\n1,M,0.1\n2,F,\n3,M,0.7\n4,F,0.2\n5,M,1e300\n")
        ds = dataset.load_csv(path, DatasetSchema("y", ("a",), ("M",)))
        assert ds.features[1, 0] == (0.2 + 0.7) / 2


class TestAgainstRowwiseLoader:
    @settings(max_examples=200, deadline=None)
    @given(case=_csv_case())
    # the median fill of f0 averages two values whose sum overflows
    @example(case=(
        'y,f0,junk,a\n0,-1.7976931348623157e+308,red,inf\n0,,red,M\n0,,red,M\n'
        '0,0,red,M,extra\n0,-8.2135829049994676e+306,"a,b",M\n0,0,"a,b"\n0,0,red,\n'
        '0,0,red,\n0,0,red\n0,0,red,\n0,0,red,\n0,0,red,\n',
        DatasetSchema("y", ("a",), ("inf",), drop_columns=("junk",)),
    ))
    def test_bit_identical(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.mktemp("diff") / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        new = _load(dataset.load_csv, path, schema)
        old = _load(rowwise_load_csv, path, schema)
        # no numeric feature column holds a non-finite number (see _csv_case),
        # so a load that parses no feature fails where one that parses all does
        lean = _load(functools.partial(dataset.load_csv, features=False), path, schema)
        if isinstance(old, tuple) or isinstance(new, tuple):
            assert new == old
            assert lean == old
            return
        for field in ("features", "targets", "protected", "group_of"):
            a, b = getattr(new, field), getattr(old, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field
        for field in ("group_catalog", "feature_names", "protected_names", "target_name",
                      "n_dropped"):
            assert getattr(new, field) == getattr(old, field), field
        assert lean.features.shape == (old.n, 0) and lean.feature_names == ()
        for field in ("targets", "protected", "group_of"):
            a, b = getattr(lean, field), getattr(old, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field
        for field in ("group_catalog", "protected_names", "target_name", "n_dropped"):
            assert getattr(lean, field) == getattr(old, field), field


# Rows that every loader drops: a target that is missing, not finite or not
# a number, or the wrong width. Put before a case's first row, they move its
# first kept row, and the word that makes a "cat" column categorical, past
# the first block when blocks hold one to three records.
_LEADING = st.lists(st.sampled_from(["NA", "inf", "word", "ragged"]), max_size=4)


def _with_leading_drops(text, leading):
    header, rest = text.split("\n", 1)
    width = len(next(csv.reader([header])))
    rows = ["x" if tok == "ragged" else ",".join([tok] * width) for tok in leading]
    return "\n".join([header, *rows, rest])


class TestSmallBlocks:
    """``load_csv`` with ``BLOCK_ROWS`` of 1 to 3 records, so that dropped
    rows, the first kept row, the row that makes a column categorical and a
    non-finite token each fall in a later block than the first."""

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @settings(max_examples=50, deadline=None)
    @given(case=_csv_case(), leading=_LEADING)
    def test_bit_identical_to_rowwise(self, tmp_path_factory, case, leading, block_rows):
        text, schema = case
        path = tmp_path_factory.mktemp("blocks") / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_with_leading_drops(text, leading))
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
            new = _load(dataset.load_csv, path, schema)
        old = _load(rowwise_load_csv, path, schema)
        if isinstance(old, tuple) or isinstance(new, tuple):
            assert new == old
            return
        for field in ("features", "targets", "protected", "group_of"):
            a, b = getattr(new, field), getattr(old, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field
        for field in ("group_catalog", "feature_names", "protected_names", "target_name",
                      "n_dropped"):
            assert getattr(new, field) == getattr(old, field), field

    ROWS = ["M,W,1.0,3", "F,B,2.0,NA", "M,B,NA,word", "F,W,4.0, inf", "M,W,5.0,-inf"]

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("rows, error, message", [
        # the first non-finite number of a kept row, by its data row
        (ROWS, InputError, r"value 'inf' in numeric feature column 'x1' at data row 4 "),
        # a word in a later kept row makes the column categorical instead
        (ROWS + ["F,B,6.0,red"], None, ("x1=-inf", "x1=3", "x1=inf", "x1=red")),
        # a single privileged value fails before the non-finite number
        ([r.replace(",B,", ",W,") for r in ROWS], DegenerateAttributeError, "'race'"),
        # and no usable row before both
        ([r.replace(".0,", ".0x,") for r in ROWS], EmptyDataError, "zero usable rows"),
    ], ids=["non-finite", "categorical", "degenerate", "empty"])
    def test_checks_run_after_the_last_block(
        self, tmp_path, block_rows, rows, error, message
    ):
        path = write_csv(tmp_path / "d.csv", "sex,race,y,x1", rows)
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
            if error is None:
                assert dataset.load_csv(path, SCHEMA).feature_names == message
            else:
                with pytest.raises(error, match=message):
                    dataset.load_csv(path, SCHEMA)


# Tokens for files with no quote, CR or NUL byte, which numpy's reader
# reads. Plain numbers are tokens numpy parses; the others it leaves to
# ``csv`` and ``float()``, which parse "1_0" and non-ASCII digits. "#" is
# not a comment.
_PLAIN_NUMBER = st.one_of(
    st.sampled_from(["0", "3", "-0", "+1e3", "2.5", ".5", "5.", "-7.5e-3", "1e-320"]),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda v: "%.17g" % v),
)
_PLAIN_OTHER = st.sampled_from(["1_0", "\u0661\u0662", "\u0663.5", "1#2", "#", "NA", "",
                                "inf", "nan", "red", "1 2", "\u00e9"])
_PLAIN_ATTR = st.one_of(_ATTR, st.sampled_from(["#", "M#1", "\u00e9"]))


@st.composite
def _plain_csv_case(draw):
    """A CSV text with no quoted cell, and its schema.

    Rows 0 to 6 have no missing attribute and only plain numbers in the
    target and feature columns, except that row 6 holds a word in each
    "cat" column. So with ``BLOCK_ROWS`` of 1 to 3 numpy reads the blocks of
    rows 0 to 5 whole, and a kept row makes each "cat" column categorical.
    Later rows hold any token, blank lines and ragged rows. As in
    :func:`_csv_case`, a non-finite number appears only where the old
    loader's handling is kept.
    """
    kinds = draw(st.lists(st.sampled_from(sorted(_FEATURE_KINDS)), min_size=1, max_size=3))
    features = [f"f{i}" for i in range(len(kinds))]
    protected = ["a", "b"][: draw(st.integers(1, 2))]
    privileged = [draw(_ATTR) for _ in protected]
    header = draw(st.permutations(["y", *protected, *features, "junk"]))
    schema = DatasetSchema("y", tuple(protected), tuple(privileged), drop_columns=("junk",))
    lines = [",".join(draw(_padded(st.just(h))) for h in header)]
    for r in range(draw(st.integers(7, 15))):
        cells = {"junk": draw(_padded(st.one_of(_PLAIN_NUMBER, _PLAIN_OTHER)))}
        number = _padded(_PLAIN_NUMBER if r < 7 else st.one_of(_PLAIN_NUMBER, _PLAIN_OTHER))
        cells["y"] = draw(number)
        for a, v in zip(protected, privileged):
            attr = st.just(v) if r == 0 else _PLAIN_ATTR.filter(lambda t, v=v: t != v)
            cells[a] = draw(_padded(attr if r < 7 else st.one_of(_PLAIN_ATTR, _MISSING)))
        for name, kind in zip(features, kinds):
            if r == 6 and kind == "cat":
                cells[name] = draw(_padded(st.just("red")))
            elif kind == "num" and r >= 7:
                cells[name] = draw(_padded(st.one_of(_PLAIN_NUMBER, _MISSING, st.just("1_0"))))
            else:
                cells[name] = draw(number)
        row = [cells[h] for h in header]
        if r >= 7 and draw(st.integers(0, 5)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        if r >= 7:
            lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join(row))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(lines) + "\n", schema


class TestNumpyReader:
    """``load_csv`` on files with no quote, CR or NUL byte, whose blocks
    numpy's reader reads where it can, against the row-at-a-time loader."""

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @settings(max_examples=80, deadline=None)
    @given(case=_plain_csv_case())
    def test_bit_identical_to_rowwise(self, tmp_path_factory, case, block_rows):
        text, schema = case
        path = tmp_path_factory.mktemp("plain") / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        read, failed = [], []  # the blocks numpy's reader took whole, and those it did not

        def loadtxt(*args, real=np.loadtxt, **kwargs):
            assert not failed, "numpy's reader was tried again after a token it did not parse"
            try:
                read.append(real(*args, **kwargs))
            except ValueError:
                failed.append(args)
                raise
            return read[-1]

        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows), \
                mock.patch.object(np, "loadtxt", wraps=loadtxt):
            new = _load(dataset.load_csv, path, schema)
        assert read
        self.assert_same(new, _load(rowwise_load_csv, path, schema))

    @staticmethod
    def assert_same(new, old):
        if isinstance(old, tuple) or isinstance(new, tuple):
            assert new == old
            return
        for field in ("features", "targets", "protected", "group_of"):
            a, b = getattr(new, field), getattr(old, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field
        for field in ("group_catalog", "feature_names", "protected_names", "target_name",
                      "n_dropped"):
            assert getattr(new, field) == getattr(old, field), field

    # a missing value, a word, a token numpy finds not finite, one it does not
    # parse, and a ragged line
    @pytest.mark.parametrize("token", ["NA", "red", "nan", "1_0", "7,8"])
    def test_csv_reads_every_block_from_the_first_numpy_leaves(self, tmp_path, token):
        rows = [f"{'MF'[i % 2]},{'WB'[i % 3 > 0]},{i}.5,{i}" for i in range(12)]
        rows[5] = rows[5].rsplit(",", 1)[0] + "," + token
        path = write_csv(tmp_path / "d.csv", "sex,race,y,x1", rows)
        with mock.patch.object(dataset, "BLOCK_ROWS", 4), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            new = dataset.load_csv(path, SCHEMA)
        # numpy reads the first block and no block after the second, which
        # holds the token; the ragged line's block it does not try
        assert loadtxt.call_count == (1 if "," in token else 2)
        self.assert_same(new, rowwise_load_csv(path, SCHEMA))

    @pytest.mark.parametrize("block_rows", [1, 2, 3, dataset.BLOCK_ROWS])
    @pytest.mark.parametrize("missing_target_at", [None, 1])
    def test_overlong_line_is_named(self, tmp_path, block_rows, missing_target_at):
        rows = [f"{'MF'[i % 2]},{'WB'[i % 3 > 0]},{i}.5,{i}" for i in range(8)]
        if missing_target_at is not None:
            # from the block holding it, csv reads the rest of the file
            rows[missing_target_at] = "M,W,NA,1"
        rows[5] = "F,B,1.5," + "7" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path / "d.csv", "sex,race,y,x1", rows)
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            with pytest.raises(InputError, match=r", line 7: field larger than field limit"):
                dataset.load_csv(path, SCHEMA)
        # the long line is the sixth after the header: a block of fewer lines
        # comes before it, which numpy reads, and the block holding it is csv's
        assert loadtxt.called == (block_rows < 6)

    def test_nul_byte_is_left_to_csv(self, tmp_path):
        # Python 3.10's csv rejects a NUL byte and 3.11's reads it as a character
        path = tmp_path / "d.csv"
        path.write_text("sex,race,y,x1\nM,W,1.0,3\nF,B\x00,2.0,4\nF,W,3.0,5\nM,B,4.0,6\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            try:
                want = rowwise_load_csv(path, SCHEMA)
            except csv.Error as exc:
                with pytest.raises(InputError, match=rf"^{path}, line 3: {exc}$"):
                    dataset.load_csv(path, SCHEMA)
            else:
                got = dataset.load_csv(path, SCHEMA)
                assert got.protected.tolist() == want.protected.tolist() == [
                    [1, 1], [0, 0], [0, 1], [1, 0]]
                assert got.features.tobytes() == want.features.tobytes()
        assert not loadtxt.called


class TestRanges:
    """``load_csv`` of plain files of several blocks while
    :func:`parallel.cpus` reports ``cpus`` CPUs and ``os.fork`` raises: one
    process reads every block, wherever a bad line falls, and loads what
    the row-at-a-time loader and a load on one CPU load. ``ROWS`` makes six
    blocks of two lines."""

    ROWS = [f"{'MF'[i % 2]},{'WB'[i % 3 > 0]},{i}.5,{i},{2 * i}" for i in range(12)]
    HEADER = "sex,race,y,x1,x2"

    @staticmethod
    def load(path, cpus, block_rows=2):
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows), \
                mock.patch.object(parallel, "cpus", lambda: cpus), \
                mock.patch.object(os, "fork", side_effect=AssertionError("load_csv forked")):
            return _load(dataset.load_csv, path, SCHEMA)

    def test_one_process_reads_every_block(self, tmp_path):
        rows = [f"{'MF'[i % 2]},{'WB'[i % 3 > 0]},{i}.5,{i},{i % 7}" for i in range(3000)]
        path = write_csv(tmp_path / "d.csv", self.HEADER, rows)
        new = self.load(path, 2, block_rows=dataset.BLOCK_ROWS)
        TestNumpyReader.assert_same(new, rowwise_load_csv(path, SCHEMA))

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("at", range(12))
    @pytest.mark.parametrize("kind", ["NA", "word", "inf", "ragged", "blank"])
    def test_bad_line_in_any_range(self, tmp_path, cpus, at, kind):
        rows = list(self.ROWS)
        sex, race, y, x1, x2 = rows[at].split(",")
        rows[at:at + 1] = {
            "NA": [f"{sex},{race},NA,{x1},{x2}"],      # a dropped row
            "word": [f"{sex},{race},{y},red,{x2}"],    # x1 becomes categorical
            "inf": [f"{sex},{race},{y},{x1},inf"],     # an error naming its data row
            "ragged": [f"{sex},{race},{y}"],           # a dropped row
            "blank": ["", rows[at]],                   # not a data row
        }[kind]
        path = write_csv(tmp_path / "d.csv", self.HEADER, rows)
        new = self.load(path, cpus)
        TestNumpyReader.assert_same(new, self.load(path, 1))
        if kind == "inf":  # which the row-at-a-time loader took for a category
            assert new == (InputError, "non-finite value 'inf' in numeric feature column "
                                       f"'x2' at data row {at + 1} of {path}")
        else:
            TestNumpyReader.assert_same(new, _load(rowwise_load_csv, path, SCHEMA))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_rows_are_counted_across_ranges(self, tmp_path, cpus):
        # a blank line and a ragged row in the first two blocks, a dropped row
        # in the middle, and the first non-finite number in the last block
        rows = list(self.ROWS)
        rows[1:2] = ["", "F,B,1.5"]
        rows[6] = "M,W,NA,6,12"
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ",-inf"
        path = write_csv(tmp_path / "d.csv", self.HEADER, rows)
        assert self.load(path, cpus) == self.load(path, 1) == (
            InputError,
            f"non-finite value '-inf' in numeric feature column 'x2' at data row 12 of {path}")

    def test_error_in_the_second_range_names_its_file_line(self, tmp_path):
        rows = list(self.ROWS)
        rows[9] = "F,B,9.5," + "7" * 30 + ",18"
        rows.insert(2, "")
        path = write_csv(tmp_path / "d.csv", self.HEADER, rows)
        limit = csv.field_size_limit(20)
        try:
            new = self.load(path, 2)
            assert new == self.load(path, 1)
        finally:
            csv.field_size_limit(limit)
        # the long field is on line 12 of the file, in its sixth block
        assert new == (InputError, f"{path}, line 12: field larger than field limit (20)")


class TestUndecodable:
    """A dataset CSV that is not UTF-8 names its first bad byte, the byte's
    offset in the file and its line."""

    HEADER = b"sex,race,y,x1,x2\n"
    # every row holds a two-byte character, so byte and character offsets
    # part ways from the first row on
    ROWS = ("M,W,1.0,3,café\n".encode(), "F,B,2.0,4,café\n".encode())

    def csv_bytes(self, n_rows, quoted, bom):
        rows = [b'"' + r[:1] + b'"' + r[1:] if quoted else r for r in self.ROWS]
        return ("\ufeff".encode() if bom else b"") + self.HEADER + b"".join(
            rows[i % 2] for i in range(n_rows))

    def assert_bad_byte(self, path, data, at, reason="invalid start byte"):
        path.write_bytes(data)
        line = data[:at].count(b"\n") + 1
        assert _load(dataset.load_csv, path, SCHEMA) == (InputError, (
            f"{path} is not UTF-8 text: byte {data[at]:#04x} at offset {at} (line {line}): "
            f"{reason}"))

    # a bad byte past the first 8 KB a decoder sees, and past the first 256
    # KB slice; then the newline that ends the file
    @pytest.mark.parametrize("row", [700, 19_000])
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
    def test_bad_byte_names_its_offset_and_line(self, tmp_path, row, quoted, bom):
        data = self.csv_bytes(20_000, quoted, bom)
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        assert isinstance(dataset.load_csv(path, SCHEMA), dataset.GroupedDataset)
        body = data.index(self.HEADER) + len(self.HEADER)
        # the first byte of the row's é
        at = data.index("é".encode(), body + row * (len(data) - body) // 20_000)
        assert at > (errors._SCAN_BYTES if row > 700 else 8192)
        self.assert_bad_byte(path, data[:at] + b"\xff" + data[at + 1:], at)
        self.assert_bad_byte(path, data[:-1] + b"\xff", len(data) - 1)

    # slices of a few bytes: each must end on a newline, or a character
    # would straddle two of them
    @pytest.mark.parametrize("scan", [1, 2, 3, 5, 8, 13])
    def test_small_slices(self, tmp_path, scan):
        data = self.csv_bytes(12, False, True)
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with mock.patch.object(errors, "_SCAN_BYTES", scan):
            assert isinstance(dataset.load_csv(path, SCHEMA), dataset.GroupedDataset)
            # the codec names the first byte of the sequence the 0xff breaks
            at = data.rindex("é".encode())
            self.assert_bad_byte(path, data[:at + 1] + b"\xff" + data[at + 2:], at,
                                 "invalid continuation byte")

    def test_truncated_character_at_the_end(self, tmp_path):
        data = self.csv_bytes(30, False, False) + "F,B,2.0,4,café".encode()[:-1]
        self.assert_bad_byte(tmp_path / "d.csv", data, len(data) - 1, "unexpected end of data")

    def test_bad_byte_is_reported_before_a_malformed_record(self, tmp_path):
        rows = [f"{'MF'[i % 2]},{'WB'[i % 3 > 0]},{i}.5,{i}" for i in range(3000)]
        rows[2] = "F,B,2.5," + "7" * (csv.field_size_limit() + 1)  # on line 4
        path = write_csv(tmp_path / "d.csv", "sex,race,y,x1", rows)
        data = Path(path).read_bytes()
        assert _load(dataset.load_csv, path, SCHEMA) == (
            InputError,
            f"{path}, line 4: field larger than field limit ({csv.field_size_limit()})")
        at = sum(len(line) + 1 for line in data.split(b"\n")[:2500])  # line 2501
        self.assert_bad_byte(Path(path), data[:at] + b"\xff" + data[at + 1:], at)


# Traced peak of loading a numeric CSV with word-valued protected columns,
# per byte of the file. Measured at 1.65 for the 50k-row file below (1.71
# for the loader that read every block with csv), and at 2.87 for a loader
# whose float columns kept each block of numpy-read tokens alive.
WORD_TOKENS_PEAK_PER_FILE_BYTE = 2.2


def _traced_load(path, schema, features=True):
    """``load_csv`` of ``path`` and its traced peak."""
    tracemalloc.start()
    try:
        return dataset.load_csv(path, schema, features=features), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _word_tokens_csv(path):
    rng = np.random.default_rng(3)
    n = 50_000
    words = [rng.choice(["Female", "Male"], n), rng.choice(["White", "Other"], n)]
    cells = [["%.17g" % v for v in rng.normal(size=n)], *words,
             *(["%.17g" % v for v in col] for col in rng.normal(size=(5, n)))]
    path.write_text("y,a0,a1,x0,x1,x2,x3,x4\n" + "".join(",".join(r) + "\n" for r in zip(*cells)))
    return n, DatasetSchema("y", ("a0", "a1"), ("Male", "White"))


def test_numpy_read_blocks_leave_no_tokens_behind(tmp_path):
    n, schema = _word_tokens_csv(tmp_path / "d.csv")
    ds, peak = _traced_load(tmp_path / "d.csv", schema)
    assert ds.n == n
    assert peak < WORD_TOKENS_PEAK_PER_FILE_BYTE * (tmp_path / "d.csv").stat().st_size


class TestReadOnce:
    def test_fifo_loads_like_a_file(self, tmp_path):
        rows = [f"{'MF'[i % 2]},{'WB'[i % 3 > 0]},{i}.5,{'red' if i % 4 else i}" for i in range(40)]
        path = write_csv(tmp_path / "d.csv", "sex,race,y,color", rows)
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        text = (tmp_path / "d.csv").read_bytes()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(text)

        out = {}
        threads = [
            threading.Thread(target=feed, daemon=True),
            threading.Thread(target=lambda: out.update(ds=dataset.load_csv(fifo, SCHEMA)),
                             daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        # a second open of the FIFO would wait for a writer that never comes
        assert not any(t.is_alive() for t in threads)
        want = dataset.load_csv(path, SCHEMA)
        assert out["ds"].feature_names == want.feature_names
        assert any(name.startswith("color=") for name in want.feature_names)
        for field in ("features", "targets", "protected", "group_of"):
            assert np.array_equal(getattr(out["ds"], field), getattr(want, field)), field


# Traced peak of loading a numeric CSV, per byte of the file: the bytes
# themselves, one block of parsed records and the loaded arrays. Measured at
# 1.6 for the 50k-row file below, and at 5.3 for a loader that held every
# row's parsed cells at once.
PEAK_PER_FILE_BYTE = 3.0


# The same without the features (``features=False``), as ``audit`` and
# ``curves`` load: the bytes, one block of target and protected tokens and
# the targets. Measured at 1.18 for the file below; 1.57-1.76 for a load
# that parses the five feature columns too.
LEAN_PEAK_PER_FILE_BYTE = 1.3


class TestLoadMemory:
    N = 50_000
    SCHEMA = DatasetSchema("y", ("a0", "a1"), ("1", "1"))

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        # a numeric file shaped like the benchmark's score-50k data: a
        # target, two 0/1 attributes and five features, all %.17g
        rng = np.random.default_rng(3)
        table = np.column_stack([rng.normal(size=self.N), rng.random((self.N, 2)) < 0.5,
                                 rng.normal(size=(self.N, 5))])
        path = tmp_path_factory.mktemp("memory") / "d.csv"
        np.savetxt(path, table, fmt=["%.17g", "%d", "%d"] + ["%.17g"] * 5, delimiter=",",
                   header="y,a0,a1,x0,x1,x2,x3,x4", comments="")
        return path

    def test_traced_peak_is_a_small_multiple_of_the_file(self, path):
        ds, peak = _traced_load(path, self.SCHEMA)
        assert ds.n == self.N
        assert peak < PEAK_PER_FILE_BYTE * path.stat().st_size

    # whatever CPU count parallel reports, and whether its fork_map forks or
    # runs here, a lean load reads in this one process within the same bound
    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_traced_peak_without_features(self, path, cpus, forked):
        fork_map = parallel.fork_map if forked else lambda fn, jobs: [fn(job) for job in jobs]
        with mock.patch.object(parallel, "cpus", lambda: cpus), \
                mock.patch.object(parallel, "fork_map", fork_map):
            ds, peak = _traced_load(path, self.SCHEMA, features=False)
        assert ds.features.shape == (self.N, 0)
        assert peak < LEAN_PEAK_PER_FILE_BYTE * path.stat().st_size


class TestWriteCsv:
    @pytest.mark.parametrize("n_protected", [1, 2])
    def test_load_csv_reads_it_back(self, tmp_path, n_protected):
        ds = dataset.synth_biased(120, seed=5, n_protected=n_protected)
        path = tmp_path / "data.csv"
        dataset.write_csv(path, ds)
        names = ds.protected_names
        back = dataset.load_csv(path, DatasetSchema(
            target_column=ds.target_name, protected_columns=names,
            privileged_values=("1",) * len(names),
        ))
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.protected, ds.protected)
        assert np.array_equal(back.group_of, ds.group_of)

    def test_one_hot_names_that_need_quotes_read_back(self, tmp_path):
        colours = ["red, dark", 'blue "navy"', "green\r\nlight", "grey\rsilver", "plain"]
        src = tmp_path / "src.csv"
        with open(src, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
            out.writerow(["sex", "race", "y", "colour", "x1"])
            out.writerows([["M" if i % 2 else "F", "W" if i % 3 else "B", i * 0.5,
                            colours[i % len(colours)], i / 7] for i in range(30)])
        ds = dataset.load_csv(src, SCHEMA)
        assert ds.n == 30
        assert ds.feature_names == (*sorted(f"colour={c}" for c in colours), "x1")
        path = tmp_path / "data.csv"
        dataset.write_csv(path, ds)
        back = dataset.load_csv(path, DatasetSchema("y", ("sex", "race"), ("1", "1")))
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.protected, ds.protected)

    def test_keeps_the_parent_bytes(self, tmp_path):
        # synth's files are checked in test_cli; these are the edge values
        ds = dataset.from_arrays([[-0.0, 1e-300], [np.nan, np.inf], [0.1, -np.inf]],
                                 [1 / 3, -2.0, 1e17], [[0, 1], [1, 0], [1, 1]])
        dataset.write_csv(tmp_path / "got.csv", ds)
        parent_write_csv(tmp_path / "want.csv", ds)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestWriteRows:
    def test_cells_and_quotes(self, tmp_path):
        path = tmp_path / "t.csv"
        dataset.write_rows(path, ["name", "a,b", "v"], [
            ["x", 1, 0.1],
            [np.float64(2.5), "say \"hi\"", -0.0],
            ["line\nbreak", "carriage\rreturn", float("nan")],
            [" pad ", "", 1e17],
        ])
        assert path.read_bytes() == (
            b'name,"a,b",v\n'
            b"x,1,0.10000000000000001\n"
            b'2.5,"say ""hi""",-0\n'
            b'"line\nbreak","carriage\rreturn",nan\n'
            b" pad ,,1e+17\n"
        )


class TestFromArrays:
    @pytest.mark.parametrize("names, message", [
        ({"feature_names": ("x0",)}, "feature names: 1 given for 2 columns"),
        ({"feature_names": ("x0", "x1", "x2")}, "feature names: 3 given for 2 columns"),
        ({"protected_names": ("a0", "a1")}, "protected names: 2 given for 1 columns"),
    ], ids=["too-few-features", "too-many-features", "too-many-protected"])
    def test_name_count_must_match_width(self, names, message):
        with pytest.raises(InputError, match=message):
            dataset.from_arrays(np.zeros((4, 2)), np.arange(4.0), np.array([0, 1, 0, 1]), **names)


class TestPartition:
    def test_groups_partition_samples(self, tmp_path):
        ds = dataset.load_csv(basic_csv(tmp_path), SCHEMA)
        counts = np.bincount(ds.group_of, minlength=ds.n_groups)
        assert counts.sum() == ds.n
        assert ds.group_counts().tolist() == counts.tolist()
        # each sample's combo matches its group's combo
        for i in range(ds.n):
            assert tuple(ds.protected[i]) == ds.group_catalog[ds.group_of[i]].combo

    @pytest.mark.parametrize("n_attrs", [1, 3, 9])
    def test_catalog_matches_counted_combos(self, n_attrs):
        # 9 attributes pack into two bytes per row
        prot = (np.random.default_rng(n_attrs).random((300, n_attrs)) < 0.3).astype(np.uint8)
        ds = dataset.from_arrays(np.zeros((300, 1)), np.zeros(300), prot)
        counts = collections.Counter(map(tuple, prot.tolist()))
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        combos = [g.combo for g in ds.group_catalog]
        assert list(zip(combos, ds.group_counts().tolist())) == expected
        for g, row in zip(ds.group_of.tolist(), prot.tolist()):
            assert ds.group_catalog[g].combo == tuple(row)


class TestSplit:
    @staticmethod
    def _dataset(n=100, seed=0):
        rng = np.random.default_rng(seed)
        prot = rng.integers(0, 2, size=(n, 2))
        combos = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        k = min(4, n)
        prot[:k] = combos[:k]
        return dataset.from_arrays(rng.normal(size=(n, 2)), rng.normal(size=n), prot)

    def test_sizes_and_determinism(self):
        ds = self._dataset(100)
        a1, b1 = dataset.split(ds, 0.8, seed=7)
        a2, b2 = dataset.split(ds, 0.8, seed=7)
        assert (a1.n, b1.n) == (80, 20)
        assert np.array_equal(a1.targets, a2.targets)
        assert np.array_equal(b1.features, b2.features)

    def test_seed_sensitivity(self):
        ds = self._dataset(100)
        a1, _ = dataset.split(ds, 0.8, seed=1)
        a2, _ = dataset.split(ds, 0.8, seed=2)
        assert not np.array_equal(a1.targets, a2.targets)

    def test_conservation(self):
        ds = self._dataset(73)
        train, test = dataset.split(ds, 0.8, seed=3)
        assert train.n + test.n == ds.n
        merged = np.sort(np.concatenate([train.targets, test.targets]))
        assert np.array_equal(merged, np.sort(ds.targets))
        joint = train.group_counts() + test.group_counts()
        assert np.array_equal(joint, ds.group_counts())

    def test_catalog_retained_with_zero_counts(self):
        ds = self._dataset(30)
        train, test = dataset.split(ds, 0.9, seed=5)
        assert len(test.group_catalog) == ds.n_groups
        assert [g.combo for g in test.group_catalog] == [g.combo for g in ds.group_catalog]

    def test_degenerate_split_rejected(self):
        ds = self._dataset(1)
        with pytest.raises(SplitError):
            dataset.split(ds, 0.8, seed=0)

    def test_bad_ratio_rejected(self):
        ds = self._dataset(10)
        with pytest.raises(SplitError):
            dataset.split(ds, 1.0, seed=0)

    def test_negative_seed_rejected(self):
        ds = self._dataset(10)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            dataset.split(ds, 0.8, seed=-1)

    def test_stratified_split_preserves_group_shares(self):
        ds = self._dataset(400)
        train, _ = dataset.split(ds, 0.8, seed=1, stratify_groups=True)
        for g in range(ds.n_groups):
            expected = int(0.8 * ds.group_counts()[g])
            assert abs(int(train.group_counts()[g]) - expected) <= 1

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), ratio=st.floats(0.01, 0.99), seed=st.integers(0, 2**70),
           stratify=st.booleans())
    def test_equals_the_split_drawn_from_numpy(self, n, ratio, seed, stratify):
        ds = self._dataset(n, seed=n)
        try:
            expected = parent_split(ds, ratio, seed, stratify)
        except SplitError as exc:
            with pytest.raises(SplitError, match=re.escape(str(exc))):
                dataset.split(ds, ratio, seed, stratify)
            return
        for want, got in zip(expected, dataset.split(ds, ratio, seed, stratify)):
            for field in ("features", "targets", "protected", "group_of"):
                assert np.array_equal(getattr(got, field), getattr(want, field))


class TestSplitStream:
    """``dataset._SplitStream`` draws ``np.random.default_rng(seed).permutation``
    bit for bit: the 128-bit state, the SeedSequence words and the spare
    32-bit half carried from one call to the next."""

    SEEDS = [*range(20), 101, 2**32 + 5, 2**64 + 3, 10**30]
    SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100, 255, 256, 257, 1000, 8000, 0, 33]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_equal_seed_sequence(self, seed):
        words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert dataset._seed_state(seed) == [int(w) for w in words]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chained_permutations_equal_numpy(self, seed):
        ours, numpy_rng = dataset._SplitStream(seed), np.random.default_rng(seed)
        for n in self.SIZES:
            got, want = ours.permutation(n), numpy_rng.permutation(n)
            assert got.dtype == want.dtype and np.array_equal(got, want), n

    @pytest.mark.parametrize("seed, head", [
        (0, [459, 206, 222, 162, 711, 814, 350, 890]),
        (7, [816, 923, 151, 900, 213, 100, 851, 503]),
        (101, [794, 453, 881, 73, 905, 938, 994, 850]),
    ])
    def test_pinned_head(self, seed, head):
        assert dataset._SplitStream(seed).permutation(1000)[:8].tolist() == head

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -3"):
            dataset._SplitStream(-3)


class TestSynthScenario:
    def test_zero_divergence_is_perfectly_symmetric(self):
        ds, preds = dataset.synth_imbalanced_scenario(100, divergence=0.0, seed=1)
        phi = relevance.from_boxplot(ds.targets)
        cs = curves.build(ds, preds, phi)
        assert metrics.intersectional_divergence(cs) == 0.0

    def test_positive_divergence_blindspot(self):
        for seed in range(5):
            ds, preds = dataset.synth_imbalanced_scenario(150, divergence=2.0, seed=seed)
            phi = relevance.from_boxplot(ds.targets)
            assert metrics.delta_bgl(ds, preds, 0) <= 1e-9
            assert metrics.intersectional_divergence(curves.build(ds, preds, phi)) > 0

    def test_determinism(self):
        a = dataset.synth_imbalanced_scenario(60, divergence=1.0, seed=9)
        b = dataset.synth_imbalanced_scenario(60, divergence=1.0, seed=9)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0].targets, b[0].targets)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            dataset.synth_imbalanced_scenario(5, divergence=1.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            dataset.synth_imbalanced_scenario(50, divergence=1.0, seed=-1)


class TestSynthBiased:
    def test_shapes_and_determinism(self):
        a = dataset.synth_biased(300, seed=3)
        b = dataset.synth_biased(300, seed=3)
        assert a.n == 300 and a.protected.shape[1] == 2
        assert a.n_groups == 4
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.features, b.features)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            dataset.synth_biased(100, seed=-1)

    def test_single_attribute_variant(self):
        ds = dataset.synth_biased(200, seed=1, n_protected=1)
        assert ds.protected.shape[1] == 1 and ds.n_groups == 2
