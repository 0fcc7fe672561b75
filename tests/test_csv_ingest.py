"""CSV and row-list ingest: the columnar parser against per-cell semantics.

``IncompleteDataset.from_csv`` and the list-input branch of the
constructor parse cells column by column, once per distinct string. The
reference functions below keep the original row-by-row, cell-by-cell
parse (``is_missing_cell`` then ``parse_cell`` on every cell) so a
Hypothesis-generated CSV must load to the same values, ids, dimension
names and content fingerprint either way.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._util import is_missing_cell, parse_cell
from repro.core.dataset import IncompleteDataset, content_fingerprint
from repro.engine import telemetry
from repro.errors import (
    DataError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
)


def _reference_matrix(rows) -> np.ndarray:
    """The per-cell parse: every cell checked and parsed on its own."""
    rows = [list(row) for row in rows]
    width = len(rows[0])
    parsed = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatchError(f"row {i} is ragged")
        for j, cell in enumerate(row):
            parsed[i, j] = float("nan") if is_missing_cell(cell) else parse_cell(cell)
    return parsed


def _reference_from_csv(text: str, *, has_header: bool, id_column) -> IncompleteDataset:
    """Row-wise CSV load: materialise every row, split off ids, parse cells."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    header = rows.pop(0) if has_header else None
    ids = None
    if id_column is not None:
        if isinstance(id_column, str):
            idx = header.index(id_column)
        else:
            idx = id_column % len(rows[0])
        ids = [row[idx] for row in rows]
        rows = [[cell for j, cell in enumerate(row) if j != idx] for row in rows]
        if header is not None:
            header = [h for j, h in enumerate(header) if j != idx]
    return IncompleteDataset(_reference_matrix(rows), ids=ids, dim_names=header)


def _assert_same(new: IncompleteDataset, ref: IncompleteDataset) -> None:
    assert new.values.tobytes() == ref.values.tobytes()  # NaN and -0.0 exact
    assert new.ids == ref.ids
    assert new.dim_names == ref.dim_names
    assert content_fingerprint(new) == content_fingerprint(ref)


# -------------------------------------------------------------------------
# generated CSV text
# -------------------------------------------------------------------------

NUMBER_TOKENS = ["5", " 5 ", "1e3", "-0", "0", "inf", "-inf", "1_000", "+2.5", "-7.25"]
MISSING_TOKENS = ["", " NA ", "?", "n/a", "N/A", "None", "NULL", "-", "nan", " nan "]
LABEL_ALPHABET = st.sampled_from(list("abcxyz019 ,\n\"'"))

labels = st.text(LABEL_ALPHABET, min_size=1, max_size=6)


@st.composite
def csv_tables(draw, *, ragged: bool = False):
    """``(text, has_header, id_column, shape)`` for a generated CSV file."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2 if ragged else 1, 12))  # a ragged file needs two records
    continuous = draw(st.integers(-1, d - 1))  # -1: no all-distinct column
    distinct = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n, unique=True
        )
    )
    body = []
    for i in range(n):
        row = [draw(st.sampled_from(NUMBER_TOKENS + MISSING_TOKENS)) for _ in range(d)]
        row[draw(st.integers(0, d - 1))] = draw(st.sampled_from(NUMBER_TOKENS))
        if continuous >= 0:
            row[continuous] = repr(distinct[i])
        body.append(row)

    with_ids = draw(st.booleans())
    has_header = draw(st.booleans())
    width = d + with_ids
    id_pos = draw(st.integers(0, width - 1)) if with_ids else None
    if with_ids:
        ids = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
        for row, label in zip(body, ids):
            row.insert(id_pos, label)
    header = draw(st.lists(labels, min_size=width, max_size=width, unique=True))

    id_column = None
    if with_ids:
        spellings = ["name", "position", "negative"] if has_header else ["position", "negative"]
        spelling = draw(st.sampled_from(spellings))
        id_column = {
            "name": header[id_pos],
            "position": id_pos,
            "negative": id_pos - width,
        }[spelling]

    records = ([header] if has_header else []) + body
    if ragged:
        victim = draw(st.integers(0, len(records) - 1))
        if draw(st.booleans()) or width == 1:
            records[victim] = records[victim] + ["9"]
        else:
            records[victim] = records[victim][:-1]

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    writer = csv.writer(out, lineterminator=newline, quoting=quoting)
    for record in records:
        writer.writerow(record)
        if draw(st.integers(0, 4)) == 0:
            out.write(newline)  # a blank line
    return out.getvalue(), has_header, id_column, (n, d)


@given(csv_tables())
@settings(max_examples=150, deadline=None)
def test_columnar_csv_matches_per_cell_parse(table):
    text, has_header, id_column, shape = table
    new = IncompleteDataset.from_csv(io.StringIO(text), has_header=has_header, id_column=id_column)
    ref = _reference_from_csv(text, has_header=has_header, id_column=id_column)
    assert new.values.shape == shape
    _assert_same(new, ref)


@given(csv_tables(ragged=True))
@settings(max_examples=60, deadline=None)
def test_ragged_rows_raise_dimension_mismatch(table):
    text, has_header, id_column, _shape = table
    with pytest.raises(DimensionMismatchError, match="ragged"):
        IncompleteDataset.from_csv(io.StringIO(text), has_header=has_header, id_column=id_column)


row_cells = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.just(-0.0),
    st.just(0.0),
    st.integers(-5, 5),
    st.booleans(),
    st.floats(-100, 100, allow_nan=False).map(np.float64),
    st.sampled_from(NUMBER_TOKENS + MISSING_TOKENS),
)


@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(row_cells, min_size=d, max_size=d), min_size=1, max_size=8)
))
@settings(max_examples=150, deadline=None)
def test_row_list_input_matches_per_cell_parse(rows):
    assume(all(not all(is_missing_cell(cell) for cell in row) for row in rows))
    new = IncompleteDataset.from_rows(rows)
    ref = IncompleteDataset(_reference_matrix(rows))
    _assert_same(new, ref)


def test_numeric_cells_keep_the_sign_of_zero():
    ds = IncompleteDataset.from_rows([[0.0, 1], [-0.0, 2], [0, 3]])
    assert [math.copysign(1.0, v) for v in ds.values[:, 0]] == [1.0, -1.0, 1.0]


# -------------------------------------------------------------------------
# errors
# -------------------------------------------------------------------------


def _load(text, **kwargs):
    return IncompleteDataset.from_csv(io.StringIO(text), **kwargs)


class TestErrors:
    def test_non_numeric_cell_names_line_and_column(self):
        with pytest.raises(DataError, match=r"'abc' at line 4, column 'b'"):
            _load("id,a,b\nx,1,2\n\ny,3,abc\n", id_column="id")

    def test_line_is_where_a_multiline_record_starts(self):
        with pytest.raises(DataError, match=r"line 3, column 'b'"):
            _load('id,a,b\nx,1,2\ny,3,"ab\ncd"\nz,1,1\n', id_column=0)

    def test_headerless_error_names_the_column_position(self):
        with pytest.raises(DataError, match=r"line 2, column 2"):
            _load("1,2,x\n3,zz,y\n", has_header=False, id_column=-1)

    def test_ragged_row_names_its_line(self):
        with pytest.raises(DimensionMismatchError, match="line 3 has 2 cells, expected 3"):
            _load("a,b,c\n1,2,3\n4,5\n")

    def test_negative_id_position_counts_from_the_end(self):
        ds = _load("a,b,id\n1,2,x\n3,4,y\n", id_column=-1)
        assert ds.ids == ["x", "y"]
        assert ds.dim_names == ("a", "b")

    @pytest.mark.parametrize("position", [3, 5, -4])
    def test_out_of_range_id_position(self, position):
        with pytest.raises(InvalidParameterError, match="outside a 3-column file"):
            _load("a,b,c\n1,2,3\n", id_column=position)

    def test_unknown_id_name(self):
        with pytest.raises(InvalidParameterError, match="not in header"):
            _load("a,b\n1,2\n", id_column="id")

    def test_empty_inputs(self):
        with pytest.raises(EmptyDatasetError, match="no rows"):
            _load("\n\n")
        with pytest.raises(EmptyDatasetError, match="header but no data"):
            _load("a,b\n")

    def test_row_list_errors_name_row_and_column(self):
        with pytest.raises(DataError, match="'x' at row 1, column 0"):
            IncompleteDataset.from_rows([[1, 2], ["x", 3]])
        with pytest.raises(DimensionMismatchError, match="row 1 has 1 cells"):
            IncompleteDataset.from_rows([[1, 2], [3]])


# -------------------------------------------------------------------------
# telemetry
# -------------------------------------------------------------------------


def test_load_csv_span_records_shape_and_size(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,a,b\nx,1,2\ny,3,\nz,,4\n")
    was = telemetry.enabled()
    telemetry.set_enabled(True)
    telemetry.reset()
    try:
        IncompleteDataset.from_csv(path, id_column="id")
        spans = [s for s in telemetry.drain_spans() if s["name"] == "load.csv"]
    finally:
        telemetry.set_enabled(was)
        telemetry.reset()
    assert len(spans) == 1
    assert spans[0]["attrs"] == {"rows": 3, "columns": 3, "bytes": path.stat().st_size}
