"""The incomplete-data model of Miao et al. (TKDE 2016), Section 3.

An :class:`IncompleteDataset` holds ``n`` objects over ``d`` dimensions where
any dimensional value may be *missing*. Missing values carry **zero prior
knowledge** — they are not probabilistic, merely absent — following the model
of Khalefa et al. (ICDE 2008) that the paper builds on.

Internally every object is represented by

* a row of a ``float64`` matrix (missing = ``NaN``) in the user's original
  orientation (:attr:`IncompleteDataset.values`),
* the same row re-oriented so that **smaller is better** on every dimension
  (:attr:`IncompleteDataset.minimized`) — the paper's Definition 1 assumes
  min-is-better, and per-dimension ``directions`` let callers keep natural
  units (e.g. MovieLens ratings where larger is better),
* a boolean observed-mask row (:attr:`IncompleteDataset.observed`), and
* a Python-int *bit pattern* ``b_o`` with bit ``i`` set iff dimension ``i``
  is observed (paper notation ``bo``); arbitrary-precision ints support any
  dimensionality, e.g. the 60-dimension MovieLens data.

Two objects are *comparable* iff their patterns share a set bit
(``b_o & b_o' != 0``), exactly the paper's bitwise-AND test.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import itertools
import os
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .._util import parse_cell
from ..errors import (
    AllMissingObjectError,
    DataError,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyDatasetError,
    InvalidParameterError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .delta import DatasetDelta, DatasetVersion

__all__ = ["IncompleteDataset", "content_fingerprint", "pattern_of_row"]


def content_fingerprint(dataset) -> str:
    """Full content hash of a dataset's query-relevant state.

    The canonical identity the engine caches and the persistent store key
    on (ids and names are presentation-only and excluded; ``-0.0`` and NaN
    payload bits are canonicalised so equal-answer datasets share a
    fingerprint). Versioned datasets avoid recomputing this per update:
    :meth:`IncompleteDataset.fingerprint` derives a child's identity from
    its parent's fingerprint and the delta digest instead.
    """
    values = dataset.values
    observed = dataset.observed
    canonical = np.where(observed, values + 0.0, np.nan)
    digest = hashlib.sha256()
    digest.update(str(values.shape).encode())
    digest.update(canonical.tobytes())
    digest.update(observed.tobytes())
    digest.update(",".join(dataset.directions).encode())
    return digest.hexdigest()

_VALID_DIRECTIONS = ("min", "max")


def pattern_of_row(observed_row: np.ndarray) -> int:
    """Return the bit pattern ``b_o`` of one boolean observed-mask row.

    Bit ``i`` of the returned int is set iff ``observed_row[i]`` is True.
    """
    pattern = 0
    for i in np.flatnonzero(observed_row):
        pattern |= 1 << int(i)
    return pattern


class IncompleteDataset:
    """A set ``S`` of ``d``-dimensional objects with missing values.

    Parameters
    ----------
    values:
        An ``(n, d)`` array-like. Cells may be numbers, ``None``, ``NaN``,
        or strings (numeric strings are parsed; ``""``, ``"-"``, ``"na"``,
        ``"nan"``, ``"none"``, ``"null"``, ``"?"`` mean *missing*).
    ids:
        Optional object labels (length ``n``). Defaults to ``o0 … o{n-1}``.
    dim_names:
        Optional dimension names (length ``d``). Defaults to ``d1 … d{d}``
        mirroring the paper's notation.
    directions:
        Per-dimension preference, each ``"min"`` (smaller is better, the
        paper's convention) or ``"max"``. A single string applies to all
        dimensions. Internally ``"max"`` columns are negated so all query
        code can assume min-is-better.
    drop_all_missing:
        The paper only considers objects with at least one observed value.
        When False (default) such rows raise :class:`AllMissingObjectError`;
        when True they are silently dropped.
    name:
        Optional human-readable dataset name (used in reports).
    """

    def __init__(
        self,
        values,
        *,
        ids: Sequence[str] | None = None,
        dim_names: Sequence[str] | None = None,
        directions: str | Sequence[str] = "min",
        drop_all_missing: bool = False,
        name: str = "",
    ) -> None:
        matrix = _coerce_matrix(values)
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise EmptyDatasetError(
                f"dataset must have at least one object and one dimension, got shape {matrix.shape}"
            )
        observed = ~np.isnan(matrix)

        keep = observed.any(axis=1)
        if not keep.all():
            if not drop_all_missing:
                bad = np.flatnonzero(~keep)[:5].tolist()
                raise AllMissingObjectError(
                    f"objects at rows {bad} have no observed dimension; "
                    "pass drop_all_missing=True to drop them"
                )
            matrix = matrix[keep]
            observed = observed[keep]
            if ids is not None:
                ids = [label for label, ok in zip(ids, keep) if ok]
        if matrix.shape[0] == 0:
            raise EmptyDatasetError("all objects were dropped as fully missing")

        n, d = matrix.shape
        self._values = matrix
        self._observed = observed
        self._name = str(name)

        self._directions = _coerce_directions(directions, d)
        sign = np.ones(d)
        sign[[i for i, direc in enumerate(self._directions) if direc == "max"]] = -1.0
        self._minimized = matrix * sign

        if ids is None:
            ids = [f"o{i}" for i in range(n)]
        else:
            ids = [str(label) for label in ids]
            if len(ids) != n:
                raise DimensionMismatchError(f"expected {n} ids, got {len(ids)}")
        self._ids = list(ids)
        self._id_to_index = {label: i for i, label in enumerate(self._ids)}
        if len(self._id_to_index) != n:
            raise DuplicateObjectError("object ids must be unique")

        if dim_names is None:
            dim_names = [f"d{i + 1}" for i in range(d)]
        else:
            dim_names = [str(dn) for dn in dim_names]
            if len(dim_names) != d:
                raise DimensionMismatchError(f"expected {d} dim_names, got {len(dim_names)}")
        self._dim_names = tuple(dim_names)

        self._patterns: list[int] | None = None
        self._distinct_cache: dict[int, np.ndarray] = {}
        #: Memoised identity (datasets are immutable): either the full
        #: content hash, or — for versions built by ``apply_delta`` — the
        #: lineage-derived fingerprint.
        self._fingerprint: str | None = None
        #: ``(parent_fingerprint, delta_digest, depth)`` for delta-derived
        #: versions; ``None`` for root datasets. Set by ``apply_delta``.
        self._lineage: tuple[str, str, int] | None = None

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], **kwargs) -> "IncompleteDataset":
        """Build a dataset from an iterable of per-object rows.

        Example
        -------
        >>> ds = IncompleteDataset.from_rows([[5, None, 3], [1, 2, "-"]])
        >>> ds.n, ds.d
        (2, 3)
        """
        return cls(rows, **kwargs)

    @classmethod
    def from_csv(
        cls,
        source,
        *,
        has_header: bool = True,
        id_column: str | int | None = None,
        **kwargs,
    ) -> "IncompleteDataset":
        """Read an incomplete dataset from a CSV file path or file object.

        Empty cells and the tokens ``-``, ``na``, ``n/a``, ``nan``,
        ``none``, ``null``, ``?`` (case-insensitive, surrounding blanks
        ignored) are treated as missing. Blank lines are skipped.

        Parameters
        ----------
        source: path or text file object.
        has_header: first row holds dimension names.
        id_column: optional column (name, or position counted like a
            Python index, so ``-1`` is the last column) holding object ids.

        Raises
        ------
        DimensionMismatchError: a row's cell count differs from the first
            row's (the message names the file line).
        DataError: a value cell is not a number (names line and column).
        InvalidParameterError: *id_column* names no column of the file.
        """
        from ..engine import telemetry  # deferred: engine imports core

        text = source.read() if hasattr(source, "read") else None

        def open_text():
            return io.StringIO(text) if text is not None else open(source, "r", newline="")

        def line(record: int) -> str:
            return f"line {_csv_line_of(open_text, record + int(has_header))}"

        with telemetry.trace("load.csv") as span:
            try:
                with open_text() as handle:
                    records = filter(None, csv.reader(handle))
                    first = next(records, None)
                    if first is None:
                        raise EmptyDatasetError("CSV input contains no rows")
                    width = len(first)
                    header = first if has_header else None
                    body = records if has_header else itertools.chain([first], records)
                    n, columns = _split_columns(body, width, line)
            except (csv.Error, UnicodeDecodeError) as error:
                raise DataError(f"unreadable CSV input: {error}") from None
            if n == 0:
                raise EmptyDatasetError("CSV input contains a header but no data rows")
            if telemetry.enabled():
                size = os.path.getsize(source) if text is None else len(text.encode())
                span.set("rows", n).set("columns", width).set("bytes", size)

            labels = [repr(h) for h in header] if has_header else [str(j + 1) for j in range(width)]
            ids = None
            if id_column is not None:
                id_idx = _id_position(id_column, header, width)
                ids = columns.pop(id_idx)
                del labels[id_idx]
                if header is not None:
                    header = header[:id_idx] + header[id_idx + 1:]

            def cell(record: int, j: int) -> str:
                return f"{line(record)}, column {labels[j]}"

            matrix = _parse_columns(columns, n, cell)
            kwargs.setdefault("ids", ids)
            if header is not None:
                kwargs.setdefault("dim_names", header)
            return cls(matrix, **kwargs)

    def to_csv(self, destination, *, missing_token: str = "") -> None:
        """Write the dataset (original orientation) as CSV with an id column."""
        own_handle = not hasattr(destination, "write")
        handle = open(destination, "w", newline="") if own_handle else destination
        try:
            writer = csv.writer(handle)
            writer.writerow(["id", *self._dim_names])
            for i in range(self.n):
                row = [self._ids[i]]
                for j in range(self.d):
                    if self._observed[i, j]:
                        value = self._values[i, j]
                        row.append(int(value) if float(value).is_integer() else value)
                    else:
                        row.append(missing_token)
                writer.writerow(row)
        finally:
            if own_handle:
                handle.close()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """``(n, d)`` float matrix in the user's orientation; missing = NaN."""
        return self._values

    @property
    def minimized(self) -> np.ndarray:
        """``(n, d)`` matrix re-oriented so smaller is better everywhere.

        All dominance/score computations in the library run on this matrix.
        """
        return self._minimized

    @property
    def observed(self) -> np.ndarray:
        """``(n, d)`` boolean observed-mask (True where a value exists)."""
        return self._observed

    @property
    def n(self) -> int:
        """Number of objects (paper: dataset cardinality ``N``)."""
        return self._values.shape[0]

    @property
    def d(self) -> int:
        """Number of dimensions (paper: ``d``)."""
        return self._values.shape[1]

    @property
    def ids(self) -> list[str]:
        """Object labels, index-aligned with the data matrix."""
        return list(self._ids)

    @property
    def dim_names(self) -> tuple[str, ...]:
        """Dimension names."""
        return self._dim_names

    @property
    def directions(self) -> tuple[str, ...]:
        """Per-dimension preference direction (``"min"`` or ``"max"``)."""
        return self._directions

    @property
    def name(self) -> str:
        """Human-readable dataset name (may be empty)."""
        return self._name

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<IncompleteDataset{label} n={self.n} d={self.d} "
            f"missing_rate={self.missing_rate:.3f}>"
        )

    # ------------------------------------------------------------------
    # Incomplete-data specifics
    # ------------------------------------------------------------------

    @property
    def patterns(self) -> list[int]:
        """Per-object bit patterns ``b_o`` (bit ``i`` set iff dim ``i`` observed)."""
        if self._patterns is None:
            weights = (1 << np.arange(self.d, dtype=object))
            self._patterns = [int(x) for x in (self._observed.astype(object) * weights).sum(axis=1)]
        return self._patterns

    def pattern(self, index: int) -> int:
        """Bit pattern of one object."""
        return self.patterns[index]

    @property
    def missing_rate(self) -> float:
        """Fraction of missing cells over the whole matrix (paper: σ)."""
        return float(1.0 - self._observed.mean())

    def index_of(self, object_id: str) -> int:
        """Map an object label back to its row index."""
        try:
            return self._id_to_index[object_id]
        except KeyError:
            raise InvalidParameterError(f"unknown object id {object_id!r}") from None

    def iset(self, index: int) -> tuple[int, ...]:
        """``Iset(o)``: observed dimension indices of object *index* (paper, Table 1)."""
        return tuple(int(j) for j in np.flatnonzero(self._observed[index]))

    def comparable(self, i: int, j: int) -> bool:
        """True iff objects *i* and *j* share at least one observed dimension."""
        return (self.patterns[i] & self.patterns[j]) != 0

    def observed_count(self, dim: int) -> int:
        """Number of objects with an observed value on *dim*."""
        return int(self._observed[:, dim].sum())

    def missing_count(self, dim: int) -> int:
        """``|S_i|``: number of objects whose value on *dim* is missing."""
        return self.n - self.observed_count(dim)

    def distinct_values(self, dim: int) -> np.ndarray:
        """Sorted distinct observed values of *dim* in minimized orientation.

        This is the domain the bitmap index enumerates; its length is the
        paper's dimensional cardinality ``C_i``.
        """
        if dim not in self._distinct_cache:
            col = self._minimized[:, dim]
            self._distinct_cache[dim] = np.unique(col[self._observed[:, dim]])
        return self._distinct_cache[dim]

    def dimension_cardinality(self, dim: int) -> int:
        """``C_i``: the number of distinct observed values on *dim*."""
        return int(self.distinct_values(dim).size)

    @property
    def dimension_cardinalities(self) -> tuple[int, ...]:
        """``(C_1, …, C_d)`` tuple."""
        return tuple(self.dimension_cardinality(j) for j in range(self.d))

    # ------------------------------------------------------------------
    # Versioning / deltas
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """This version's identity: content hash, or lineage-derived.

        Root datasets pay one full :func:`content_fingerprint` (memoised —
        instances are immutable); versions produced by
        :meth:`apply_delta` derive ``H(parent_fingerprint, delta_digest)``
        in ``O(|delta|·d)`` instead, which is what makes per-update engine
        caching viable. Deterministic across processes: replaying the same
        deltas from the same root always reproduces the same fingerprints.
        """
        if self._fingerprint is None:
            if self._lineage is not None:
                parent_fp, delta_digest, _depth = self._lineage
                digest = hashlib.sha256()
                digest.update(b"lineage:")
                digest.update(parent_fp.encode())
                digest.update(delta_digest.encode())
                self._fingerprint = digest.hexdigest()
            else:
                self._fingerprint = content_fingerprint(self)
        return self._fingerprint

    @property
    def version(self) -> "DatasetVersion":
        """This dataset's :class:`~repro.core.delta.DatasetVersion` identity."""
        from .delta import DatasetVersion  # deferred: delta imports this module

        if self._lineage is None:
            return DatasetVersion(fingerprint=self.fingerprint())
        parent_fp, delta_digest, depth = self._lineage
        return DatasetVersion(
            fingerprint=self.fingerprint(),
            parent=parent_fp,
            delta_digest=delta_digest,
            depth=depth,
        )

    def apply_delta(self, delta: "DatasetDelta") -> "IncompleteDataset":
        """New version of this dataset under one insert/delete/update batch."""
        from .delta import apply_delta  # deferred: delta imports this module

        return apply_delta(self, delta)

    def _with_replaced_rows(self, rows, values: np.ndarray) -> "IncompleteDataset":
        """Clone fast path for update-only deltas (same rows, same ids).

        Skips the generic constructor: only the three value matrices are
        copied (updated rows re-stamped); ids, the id index, and dimension
        metadata are shared with the parent — all immutable by contract.
        """
        clone = IncompleteDataset.__new__(IncompleteDataset)
        clone._values = np.array(self._values, copy=True)
        clone._values[rows] = values
        clone._observed = np.array(self._observed, copy=True)
        clone._observed[rows] = ~np.isnan(values)
        sign = np.array(
            [-1.0 if direction == "max" else 1.0 for direction in self._directions]
        )
        clone._minimized = np.array(self._minimized, copy=True)
        clone._minimized[rows] = values * sign
        clone._name = self._name
        clone._directions = self._directions
        clone._ids = self._ids
        clone._id_to_index = self._id_to_index
        clone._dim_names = self._dim_names
        clone._patterns = None
        clone._distinct_cache = {}
        clone._fingerprint = None
        clone._lineage = None
        return clone

    def with_inserted(
        self, rows, *, ids: Sequence[str] | None = None
    ) -> "IncompleteDataset":
        """New version with *rows* appended (``None``/NaN cells are missing)."""
        from .delta import DatasetDelta

        return self.apply_delta(DatasetDelta.inserting(self, rows, ids=ids))

    def with_deleted(self, ids: Sequence[str]) -> "IncompleteDataset":
        """New version with the given objects removed (order preserved)."""
        from .delta import DatasetDelta

        return self.apply_delta(DatasetDelta.deleting(self, ids))

    def with_updated(self, updates: Mapping[str, Sequence]) -> "IncompleteDataset":
        """New version with per-object replacements applied in place.

        Each value is either a full replacement row or a partial
        ``{dimension: value}`` mapping (dimension by name or index).
        """
        from .delta import DatasetDelta

        return self.apply_delta(DatasetDelta.updating(self, updates))

    # ------------------------------------------------------------------
    # Slicing / combining
    # ------------------------------------------------------------------

    def subset(self, indices: Sequence[int], *, name: str | None = None) -> "IncompleteDataset":
        """Return a new dataset containing only the given object rows."""
        idx = np.asarray(list(indices), dtype=np.intp)
        if idx.size == 0:
            raise EmptyDatasetError("subset would be empty")
        # Rebuild from the original orientation so directions are re-applied.
        return IncompleteDataset(
            self._values[idx],
            ids=[self._ids[i] for i in idx],
            dim_names=self._dim_names,
            directions=self._directions,
            name=self._name if name is None else name,
        )

    def project(self, dims: Sequence[int], *, drop_all_missing: bool = True) -> "IncompleteDataset":
        """Project onto a subset of dimensions (keeps ids; may drop rows)."""
        dims = [int(j) for j in dims]
        if not dims:
            raise EmptyDatasetError("projection needs at least one dimension")
        for j in dims:
            if j < 0 or j >= self.d:
                raise InvalidParameterError(f"dimension {j} outside [0, {self.d})")
        keep_rows = self._observed[:, dims].any(axis=1)
        values = self._values[np.ix_(np.flatnonzero(keep_rows), dims)]
        return IncompleteDataset(
            values,
            ids=[self._ids[i] for i in np.flatnonzero(keep_rows)],
            dim_names=[self._dim_names[j] for j in dims],
            directions=[self._directions[j] for j in dims],
            name=self._name,
            drop_all_missing=drop_all_missing,
        )

    def row_display(self, index: int, missing_token: str = "-") -> list:
        """Human-oriented row rendering (original orientation, ``-`` for missing)."""
        out = []
        for j in range(self.d):
            if self._observed[index, j]:
                value = self._values[index, j]
                out.append(int(value) if float(value).is_integer() else float(value))
            else:
                out.append(missing_token)
        return out


def _coerce_matrix(values) -> np.ndarray:
    """Turn arbitrary row input into a float64 matrix with NaN for missing."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D array, got shape {matrix.shape}")
        return matrix.copy()

    rows = [row if hasattr(row, "__len__") else list(row) for row in values]
    if not rows:
        raise EmptyDatasetError("dataset must have at least one object")
    return _rows_to_matrix(rows, len(rows[0]))


def _rows_to_matrix(rows, width: int, label: str = "row") -> np.ndarray:
    """Parse sized *rows* of raw cells into an ``(n, width)`` float64 matrix.

    Errors name the offending cell as ``"{label} {i}, column {j}"``.
    """
    n, columns = _split_columns(rows, width, lambda i: f"{label} {i}")
    return _parse_columns(columns, n, lambda i, j: f"{label} {i}, column {j}")


def _split_columns(rows, width: int, locate) -> tuple[int, list[list]]:
    """One pass over *rows*, appending cell ``j`` of each row to column ``j``.

    Returns ``(row_count, columns)``. No per-row copy is kept. A row whose
    length is not *width* raises :class:`DimensionMismatchError`, located by
    ``locate(row_index)``.
    """
    columns = [[] for _ in range(width)]
    # map() runs list.append(column_j, cell_j) across the row in C; the
    # zero-length deque just drains it.
    drain = collections.deque(maxlen=0).extend
    n = 0
    for n, row in enumerate(rows, 1):
        if len(row) != width:
            raise DimensionMismatchError(
                f"{locate(n - 1)} has {len(row)} cells, expected {width} (ragged input)"
            )
        drain(map(list.append, columns, row))
    return n, columns


def _parse_columns(columns: list[list], n: int, locate) -> np.ndarray:
    """Parse raw cell columns into an ``(n, len(columns))`` float64 matrix.

    A column of ``str`` cells is parsed once per *distinct* string (a memo
    built with :func:`parse_cell`), which is what makes CSV ingest cheap:
    a graded column of 200k cells holds about a hundred distinct strings.
    Any other column takes :func:`parse_cell` per cell (numeric cells must
    not share a memo: ``0.0 == -0.0`` would collapse their signs). A cell
    that is not a number raises :class:`DataError` located by
    ``locate(row_index, column_index)``.
    """
    matrix = np.empty((n, len(columns)), dtype=np.float64)
    for j, column in enumerate(columns):
        try:
            memo = dict.fromkeys(column)
        except TypeError:  # unhashable cells
            memo = {}
        if memo and all(type(cell) is str for cell in memo):
            for text in memo:
                try:
                    memo[text] = parse_cell(text)
                except ValueError:
                    raise DataError(
                        f"non-numeric cell {text!r} at {locate(column.index(text), j)}"
                    ) from None
            matrix[:, j] = np.fromiter(map(memo.__getitem__, column), np.float64, count=n)
            continue
        try:
            matrix[:, j] = np.fromiter(map(parse_cell, column), np.float64, count=n)
        except (TypeError, ValueError):
            for i, cell in enumerate(column):
                try:
                    parse_cell(cell)
                except (TypeError, ValueError):
                    raise DataError(f"non-numeric cell {cell!r} at {locate(i, j)}") from None
            raise
    return matrix


def _csv_line_of(open_text, record: int) -> int:
    """1-based line where non-blank CSV record *record* of ``open_text()`` starts.

    Only error paths call this: it re-reads the input up to that record.
    """
    with open_text() as handle:
        reader = csv.reader(handle)
        line = 0
        for row in reader:
            if row:
                if record == 0:
                    break
                record -= 1
            line = reader.line_num
    return line + 1


def _id_position(id_column: str | int, header: list[str] | None, width: int) -> int:
    """Resolve ``from_csv``'s *id_column* to a column position in ``[0, width)``."""
    if isinstance(id_column, str):
        if header is None:
            raise InvalidParameterError("id_column by name requires has_header=True")
        try:
            return header.index(id_column)
        except ValueError:
            raise InvalidParameterError(f"id column {id_column!r} not in header {header}") from None
    position = int(id_column)
    if not -width <= position < width:
        raise InvalidParameterError(
            f"id column position {position} outside a {width}-column file"
        )
    return position % width


def _coerce_directions(directions, d: int) -> tuple[str, ...]:
    """Normalise the ``directions`` argument to a length-``d`` tuple."""
    if isinstance(directions, str):
        directions = [directions] * d
    directions = [str(x).lower() for x in directions]
    if len(directions) != d:
        raise DimensionMismatchError(f"expected {d} directions, got {len(directions)}")
    for direc in directions:
        if direc not in _VALID_DIRECTIONS:
            raise InvalidParameterError(f"direction must be 'min' or 'max', got {direc!r}")
    return tuple(directions)
