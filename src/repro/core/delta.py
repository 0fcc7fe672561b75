"""Versioned datasets: insert/delete/update batches as first-class deltas.

The paper's data model — and everything PRs 1–3 built on top of it — is
static: an :class:`~repro.core.dataset.IncompleteDataset` is immutable and
every engine structure is keyed on a content fingerprint of the whole
matrix, so one changed tuple invalidates everything. This module adds the
*versioned* view the dynamic/continuous literature assumes (Kosmatopoulos
& Tsichlas; Kontaki et al.): a batch of inserts, deletes, and updates is
a :class:`DatasetDelta`, and :func:`apply_delta` turns a dataset plus a
delta into a **new version** whose fingerprint is *lineage-derived* —
``H(parent_fingerprint, delta_digest)`` — instead of a full ``O(n·d)``
rehash.

Lineage fingerprints are deterministic: any process that starts from the
same root content and applies the same delta sequence computes the same
version fingerprints, so engine caches and the persistent store resolve
delta chains across processes without shipping data. The engine layers
ride this identity end to end: :meth:`repro.engine.kernels.PreparedDataset.patched`
patches packed bitset tables under the same delta,
:meth:`repro.engine.session.QueryEngine.apply_delta` maintains dominated
counts incrementally, and :class:`repro.engine.store.PersistentStore`
records the lineage so stored results and tables survive the process.

Row-ordering contract (what makes table patching exact): a child version
keeps the surviving parent rows in their original relative order —
updates in place, deletions compacted out — and appends inserted rows at
the end. Deltas are *bound* to the parent they were built against:
deleted/updated positions are recorded as parent row indices, which is
what the digest hashes (ids are presentation-only, exactly as in the
content fingerprint).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..errors import (
    AllMissingObjectError,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyDatasetError,
    InvalidParameterError,
)
from .dataset import _rows_to_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataset import IncompleteDataset

__all__ = ["DatasetDelta", "DatasetVersion", "apply_delta"]


@dataclass(frozen=True)
class DatasetVersion:
    """Identity of one dataset version in a delta chain."""

    #: The version's (content or lineage-derived) fingerprint.
    fingerprint: str
    #: Fingerprint of the parent version; ``None`` for a root dataset.
    parent: str | None = None
    #: Digest of the delta that produced this version from its parent.
    delta_digest: str | None = None
    #: Number of deltas between this version and its root (0 for roots).
    depth: int = 0

    @property
    def is_root(self) -> bool:
        return self.parent is None


def _parse_rows(rows, d: int) -> np.ndarray:
    """Coerce an insert/update batch to an ``(m, d)`` NaN-missing matrix."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "fiu":
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D batch, got shape {matrix.shape}")
        if matrix.shape[1] != d:
            raise DimensionMismatchError(
                f"batch rows have {matrix.shape[1]} cells, expected {d}"
            )
        return matrix.copy()
    return _rows_to_matrix([list(row) for row in rows], d, "batch row")


def _canonical_bytes(values: np.ndarray) -> bytes:
    """Canonicalise floats the same way the content fingerprint does.

    ``-0.0`` maps to ``+0.0`` and missing cells are re-stamped with one
    canonical NaN, so equal-answer deltas share a digest regardless of the
    bit patterns a caller happened to pass.
    """
    observed = ~np.isnan(values)
    canonical = np.where(observed, values + 0.0, np.nan)
    return canonical.tobytes() + observed.tobytes()


class DatasetDelta:
    """One batch of inserts, deletes, and updates against a specific version.

    Instances are bound to the dataset they were built against: deletions
    and updates record parent *row indices* (resolved from ids at build
    time), which is what both the content digest and the engine's table
    patching consume. Build one with the classmethod constructors or
    through the :class:`~repro.core.dataset.IncompleteDataset` conveniences
    (``with_inserted`` / ``with_deleted`` / ``with_updated``).
    """

    __slots__ = (
        "d",
        "inserted_values",
        "inserted_ids",
        "deleted_rows",
        "deleted_ids",
        "updated_rows",
        "updated_ids",
        "updated_values",
        "_digest",
    )

    def __init__(
        self,
        d: int,
        *,
        inserted_values: np.ndarray | None = None,
        inserted_ids: Sequence[str] | None = None,
        deleted_rows: Sequence[int] = (),
        deleted_ids: Sequence[str] = (),
        updated_rows: Sequence[int] = (),
        updated_ids: Sequence[str] = (),
        updated_values: np.ndarray | None = None,
    ) -> None:
        self.d = int(d)
        self.inserted_values = (
            np.zeros((0, self.d)) if inserted_values is None else inserted_values
        )
        self.inserted_ids = None if inserted_ids is None else tuple(inserted_ids)
        self.deleted_rows = tuple(int(r) for r in deleted_rows)
        self.deleted_ids = tuple(str(x) for x in deleted_ids)
        self.updated_rows = tuple(int(r) for r in updated_rows)
        self.updated_ids = tuple(str(x) for x in updated_ids)
        self.updated_values = (
            np.zeros((0, self.d)) if updated_values is None else updated_values
        )
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: "IncompleteDataset",
        *,
        inserts=None,
        insert_ids: Sequence[str] | None = None,
        deletes: Sequence[str] = (),
        updates: Mapping[str, Sequence] | None = None,
    ) -> "DatasetDelta":
        """Bind one mixed batch to *dataset*, validating every reference.

        ``inserts`` is an iterable of rows (cells may be numbers, ``None``,
        NaN, or missing-tokens); ``deletes`` is a sequence of live ids;
        ``updates`` maps a live id either to a full replacement row or to
        a partial ``{dimension: value}`` mapping (dimension by name or
        index; unmentioned dimensions keep their current value).
        """
        d = dataset.d
        inserted = _parse_rows(inserts, d) if inserts is not None else np.zeros((0, d))
        if np.isnan(inserted).all(axis=1).any():
            raise AllMissingObjectError("inserted object has no observed dimension")
        ids = None
        if insert_ids is not None:
            ids = [str(x) for x in insert_ids]
            if len(ids) != inserted.shape[0]:
                raise DimensionMismatchError(
                    f"expected {inserted.shape[0]} insert ids, got {len(ids)}"
                )

        deleted_ids = [str(x) for x in deletes]
        deleted_rows = [dataset.index_of(x) for x in deleted_ids]
        if len(set(deleted_rows)) != len(deleted_rows):
            raise InvalidParameterError("delete batch repeats an object id")

        updated_ids: list[str] = []
        updated_rows: list[int] = []
        updated_matrix = np.zeros((0, d))
        if updates:
            updated_ids = [str(x) for x in updates]
            updated_rows = [dataset.index_of(x) for x in updated_ids]
            if len(set(updated_rows)) != len(updated_rows):
                raise InvalidParameterError("update batch repeats an object id")
            if set(updated_rows) & set(deleted_rows):
                raise InvalidParameterError(
                    "an object cannot be both updated and deleted in one delta"
                )
            replacement_rows = [
                _replacement_row(dataset, object_id, row)
                for object_id, row in zip(updated_ids, updates.values())
            ]
            updated_matrix = _parse_rows(replacement_rows, d)
            if np.isnan(updated_matrix).all(axis=1).any():
                raise AllMissingObjectError("an update would leave an object all-missing")
            # Canonicalise by row position: semantically identical update
            # batches built in different mapping orders must share a
            # digest (and therefore a lineage fingerprint).
            order = np.argsort(np.asarray(updated_rows))
            updated_rows = [updated_rows[i] for i in order]
            updated_ids = [updated_ids[i] for i in order]
            updated_matrix = updated_matrix[order]

        _check_insert_ids(dataset, ids, deleted_ids)
        return cls(
            d,
            inserted_values=inserted,
            inserted_ids=None if ids is None else tuple(ids),
            deleted_rows=deleted_rows,
            deleted_ids=deleted_ids,
            updated_rows=updated_rows,
            updated_ids=updated_ids,
            updated_values=updated_matrix,
        )

    @classmethod
    def inserting(cls, dataset, rows, *, ids=None) -> "DatasetDelta":
        return cls.build(dataset, inserts=rows, insert_ids=ids)

    @classmethod
    def deleting(cls, dataset, ids: Sequence[str]) -> "DatasetDelta":
        return cls.build(dataset, deletes=ids)

    @classmethod
    def updating(cls, dataset, updates: Mapping[str, Sequence]) -> "DatasetDelta":
        return cls.build(dataset, updates=updates)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Deterministic content digest of this (bound) delta.

        Hashes canonicalised inserted/updated values and the *row
        positions* of deletes and updates — ids are presentation-only,
        mirroring :func:`repro.engine.session.dataset_fingerprint`.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(f"delta:d={self.d}".encode())
            h.update(f"ins={self.inserted_values.shape[0]}".encode())
            h.update(_canonical_bytes(self.inserted_values))
            h.update(("del=" + ",".join(map(str, sorted(self.deleted_rows)))).encode())
            h.update(("upd=" + ",".join(map(str, self.updated_rows))).encode())
            h.update(_canonical_bytes(self.updated_values))
            self._digest = h.hexdigest()
        return self._digest

    @property
    def is_empty(self) -> bool:
        return not (
            self.inserted_values.shape[0] or self.deleted_rows or self.updated_rows
        )

    @property
    def cells(self) -> int:
        """Total payload size in matrix cells (the store's smallness gate)."""
        return (
            (self.inserted_values.shape[0] + self.updated_values.shape[0]) * self.d
            + len(self.deleted_rows)
        )

    def payload(self) -> dict:
        """JSON-safe encoding of the patch-relevant delta content.

        What :class:`~repro.engine.store.PersistentStore` embeds in small
        lineage records so a cold process can patch a stored ancestor's
        prepared tables forward (ids are presentation-only and excluded,
        like everywhere else in the identity layer). Missing cells encode
        as ``None``. Inverse of :meth:`from_payload`.
        """

        def encode(matrix: np.ndarray) -> list:
            return [
                [None if np.isnan(value) else float(value) for value in row]
                for row in matrix
            ]

        return {
            "d": self.d,
            "inserts": encode(self.inserted_values),
            "deleted_rows": list(self.deleted_rows),
            "updated_rows": list(self.updated_rows),
            "updated_values": encode(self.updated_values),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "DatasetDelta":
        """Rebuild a (patching-grade) delta from :meth:`payload` output.

        The result carries values and row positions only — no ids — which
        is exactly what table patching and sentinel lowering consume.
        """

        def decode(rows, d: int) -> np.ndarray:
            matrix = np.empty((len(rows), d), dtype=np.float64)
            for i, row in enumerate(rows):
                matrix[i] = [np.nan if cell is None else float(cell) for cell in row]
            return matrix

        d = int(payload["d"])
        return cls(
            d,
            inserted_values=decode(payload.get("inserts", []), d),
            deleted_rows=[int(r) for r in payload.get("deleted_rows", [])],
            updated_rows=[int(r) for r in payload.get("updated_rows", [])],
            updated_values=decode(payload.get("updated_values", []), d),
        )

    @property
    def ops(self) -> dict:
        """Operation counts, e.g. for lineage records and plan costing."""
        return {
            "inserts": int(self.inserted_values.shape[0]),
            "deletes": len(self.deleted_rows),
            "updates": len(self.updated_rows),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = self.ops
        return (
            f"<DatasetDelta +{ops['inserts']} -{ops['deletes']} "
            f"~{ops['updates']} d={self.d}>"
        )


def _replacement_row(dataset: "IncompleteDataset", object_id: str, row) -> list:
    """Resolve one update payload to a full replacement row (user orientation)."""
    d = dataset.d
    if isinstance(row, Mapping):
        base = dataset.row_display(dataset.index_of(object_id), missing_token=None)
        for key, value in row.items():
            if isinstance(key, str):
                # Name lookup first: dimension names may themselves be
                # numeric strings (CSV year columns), and a name must
                # never be misread as a position.
                try:
                    dim = dataset.dim_names.index(key)
                except ValueError:
                    if not key.lstrip("-").isdigit():
                        raise InvalidParameterError(
                            f"unknown dimension {key!r}; have {dataset.dim_names}"
                        ) from None
                    dim = int(key)
            else:
                dim = int(key)
            if dim < 0 or dim >= d:
                raise InvalidParameterError(f"dimension {dim} outside [0, {d})")
            base[dim] = value
        return base
    row = list(row)
    if len(row) != d:
        raise DimensionMismatchError(
            f"update for {object_id!r} has {len(row)} cells, expected {d}"
        )
    return row


def _check_insert_ids(
    dataset: "IncompleteDataset", ids: list[str] | None, deleted_ids: Sequence[str]
) -> None:
    if ids is None:
        return
    if len(set(ids)) != len(ids):
        raise DuplicateObjectError("insert batch repeats an object id")
    surviving = set(dataset.ids) - set(deleted_ids)
    clashes = surviving & set(ids)
    if clashes:
        raise DuplicateObjectError(
            f"inserted ids collide with live objects: {sorted(clashes)[:5]}"
        )


def apply_delta(dataset: "IncompleteDataset", delta: DatasetDelta) -> "IncompleteDataset":
    """Materialise the child version of *dataset* under *delta*.

    Surviving parent rows keep their relative order (updates in place,
    deletions compacted out) and inserted rows are appended — the same
    ordering contract the engine's table patching relies on. The child
    carries a lineage-derived fingerprint (see module docstring); an
    empty delta returns *dataset* itself, unversioned.
    """
    from .dataset import IncompleteDataset  # deferred: dataset imports this module

    if delta.d != dataset.d:
        raise DimensionMismatchError(
            f"delta is bound to d={delta.d}, dataset has d={dataset.d}"
        )
    if delta.is_empty:
        return dataset
    for row in (*delta.deleted_rows, *delta.updated_rows):
        if row < 0 or row >= dataset.n:
            raise InvalidParameterError(f"delta references row {row} outside [0, {dataset.n})")

    if not delta.deleted_rows and delta.inserted_values.shape[0] == 0:
        # Update-only fast path: rows and ids are unchanged, so the child
        # is a three-matrix clone instead of a full re-validation build.
        child = dataset._with_replaced_rows(list(delta.updated_rows), delta.updated_values)
        parent_version = dataset.version
        child._lineage = (
            parent_version.fingerprint,
            delta.digest(),
            parent_version.depth + 1,
        )
        return child

    values = np.array(dataset.values, copy=True)
    if delta.updated_rows:
        values[list(delta.updated_rows)] = delta.updated_values

    keep = np.ones(dataset.n, dtype=bool)
    if delta.deleted_rows:
        keep[list(delta.deleted_rows)] = False
    if not keep.any() and delta.inserted_values.shape[0] == 0:
        raise EmptyDatasetError("delta deletes every object")

    surviving_ids = [label for label, ok in zip(dataset.ids, keep) if ok]
    insert_ids = delta.inserted_ids
    if insert_ids is None:
        taken = set(surviving_ids)
        insert_ids, counter = [], dataset.n
        for _ in range(delta.inserted_values.shape[0]):
            while f"o{counter}" in taken:
                counter += 1
            insert_ids.append(f"o{counter}")
            taken.add(f"o{counter}")
        insert_ids = tuple(insert_ids)

    child = IncompleteDataset(
        np.concatenate([values[keep], delta.inserted_values], axis=0),
        ids=[*surviving_ids, *insert_ids],
        dim_names=dataset.dim_names,
        directions=dataset.directions,
        name=dataset.name,
    )
    parent_version = dataset.version
    child._lineage = (parent_version.fingerprint, delta.digest(), parent_version.depth + 1)
    return child
