"""Blocked, fully vectorised dominance kernels (the engine's bottom layer).

Every TKD algorithm in :mod:`repro.core` ultimately needs one of a small
set of primitives over Definition 1 dominance: "which objects does a block
of query objects dominate?", "how many dominate it?", "how many are
incomparable?", and the Lemma 2 / Lemma 3 upper bounds. The seed code
answered these object-by-object (``dominated_mask`` in a Python loop);
this module answers them for whole *blocks* of objects at a time, through
two routes:

**Broadcast kernel** (:func:`score_block`). Replace missing values by
sentinels — ``lo = value or −∞``, ``hi = value or +∞`` — and Definition 1
collapses to two float comparisons with no mask plumbing::

    o ≻ p   ⇔   all_i lo[o,i] <= hi[p,i]   and   any_i hi[o,i] < lo[p,i]

(a missing dimension on either side satisfies the ``le`` test and can
never witness the strict test, exactly the "common observed dimensions"
rule). One ``(b, n, d)`` broadcast yields the dominated-masks of ``b``
objects at once.

**Packed-bitset kernel** (:class:`_BitsetTables`). The ``le`` test per
dimension is a threshold test, so the objects satisfying it form a
*suffix* of that dimension's sort order, and the objects failing the
strict test form a *prefix* — the same observation behind the paper's
range-encoded bitmap index (Section 4.3), here packed into uint64 words.
Per dimension we precompute cumulative prefix/suffix bitsets, one row per
distinct value; a whole block of objects is then scored with ``2·d`` row
gathers, ``2·(d−1)`` packed ANDs and one popcount::

    score(o) = popcount( ∩_i SUFFIX_i[key_ge(o,i)]  &  ~∩_i PREFIX_i[key_le(o,i)] )

which touches ``n/64`` words per object per dimension instead of ``n``
booleans. The same two accumulators, combined the other way round, give
the *dominators* of ``o`` (``p ≻ o ⇔ ∀i lo[p,i] ≤ hi[o,i] ∧ ∃i hi[p,i] <
lo[o,i]`` — the first half is exactly the "no strict witness" prefix set,
the second the complement of the suffix set), so one pass serves both
directions; and the packed rows unpack into exact boolean dominated-masks
(:func:`unpack_mask_bits`), which is how ``dominance_matrix`` and the MFD
operator ride this route too.

Tables are ``2·Σ_i (U_i + 1)·⌈n/64⌉·8`` bytes for ``U_i`` distinct values
per dimension (``O(d·n²/8)`` only for continuous columns), so they are
built only when a batch is big enough to amortise the cost and the tables
fit a fixed memory budget — **or when a previous call already paid for
them**: tables live in a
:class:`PreparedDataset` cached by content fingerprint inside the engine
session layer (:mod:`repro.engine.session`), so repeated sweeps, the MFD
operator, ``query_many`` batches and the experiment harness build them
once per dataset. Module-level calls reach that cache through a small
default-session shim (:func:`_shared_prepared`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import InvalidParameterError
from . import telemetry
from ._lockcheck import make_lock
from .backend import get_backend
from .telemetry import clock as _clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dataset import IncompleteDataset

__all__ = [
    "auto_block",
    "score_block",
    "dominated_counts",
    "dominated_masks",
    "dominator_counts",
    "dominator_masks",
    "incomparable_counts",
    "max_bit_score_counts",
    "upper_bound_scores",
    "dominance_matrix_blocked",
    "unpack_mask_bits",
    "PreparedDataset",
    "SentinelDelta",
    "prepared_for_scan",
]

#: Target element count of one (b, n, d) broadcast tensor. 4M float
#: comparisons keeps the temporaries of a kernel step within a few MB.
_BLOCK_ELEMENT_BUDGET = 4_000_000

#: Ceiling for the packed prefix/suffix tables, checked against their real
#: size ``2·Σ_i (U_i + 1)·⌈n/64⌉·8`` (``U_i`` distinct values per dimension).
_BITSET_TABLE_BUDGET_BYTES = 256 * 1024 * 1024

#: Datasets below this size never consult the shared prepared cache: a
#: content fingerprint costs O(n·d) and tables are never built this small,
#: so the broadcast kernel is the whole story anyway.
_MIN_SHARED_N = 512

#: Byte bound for one bitset-route temporary: the (b, W) accumulators and
#: gathered rows (:func:`_row_step` turns it into rows per batch for a table
#: width) and the boolean scratch a table build packs (:func:`_holder_rows`).
_BITSET_STEP_BYTES = 2 * 1024 * 1024

#: Per-byte popcounts for the uint64→uint8 view (endianness-agnostic).
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")  # NumPy >= 2.0


def auto_block(n: int, d: int, *, budget: int = _BLOCK_ELEMENT_BUDGET) -> int:
    """Pick a block size so one ``(b, n, d)`` broadcast stays near *budget*."""
    per_row = max(int(n) * max(int(d), 1), 1)
    return int(np.clip(budget // per_row, 8, 1024))


def _as_rows(rows, n: int) -> np.ndarray:
    idx = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.intp)
    if idx.ndim != 1:
        raise InvalidParameterError(f"rows must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidParameterError(f"row indices must lie in [0, {n}), got [{idx.min()}, {idx.max()}]")
    return idx


def _validate_block(block: int | None) -> int | None:
    if block is None:
        return None
    block = int(block)
    if block <= 0:
        raise InvalidParameterError(f"block must be >= 1, got {block}")
    return block


def _bounds(dataset: "IncompleteDataset") -> tuple[np.ndarray, np.ndarray]:
    """The ``lo``/``hi`` sentinel matrices (missing → −∞ / +∞)."""
    values = dataset.minimized
    observed = dataset.observed
    lo = np.where(observed, values, -np.inf)
    hi = np.where(observed, values, np.inf)
    return lo, hi


# ---------------------------------------------------------------------------
# Broadcast route
# ---------------------------------------------------------------------------

def score_block(dataset: "IncompleteDataset", rows: Sequence[int]) -> np.ndarray:
    """Dominated-masks for a whole block of objects in one broadcast.

    Returns a ``(len(rows), n)`` boolean array whose row ``r`` equals
    ``dominated_mask(dataset, rows[r])``; each row's ``sum()`` is the
    object's exact ``score`` (Definition 2). This is the pure broadcast
    primitive; :func:`dominated_masks` answers the same question but rides
    cached bitset tables when the session layer has them.
    """
    idx = _as_rows(rows, dataset.n)
    lo, hi = _bounds(dataset)
    return _score_block(lo, hi, idx)


def _score_block(lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
    le_all = np.all(lo[idx][:, None, :] <= hi[None, :, :], axis=2)
    lt_any = np.any(hi[idx][:, None, :] < lo[None, :, :], axis=2)
    dominated = le_all & lt_any  # (b, n)
    # Self-dominance is already impossible (no strict dimension), but be
    # explicit so floating-point ties can never sneak through.
    dominated[np.arange(idx.size), idx] = False
    return dominated


def _dominator_block(lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
    ge_all = np.all(lo[None, :, :] <= hi[idx][:, None, :], axis=2)
    gt_any = np.any(hi[None, :, :] < lo[idx][:, None, :], axis=2)
    dominators = ge_all & gt_any
    dominators[np.arange(idx.size), idx] = False
    return dominators


def _blocked_counts(
    dataset, idx: np.ndarray, block: int | None, kernel, bounds=None
) -> np.ndarray:
    """Run a broadcast *kernel* over blocks of rows, collect row sums."""
    if block is None:
        block = auto_block(dataset.n, dataset.d)
    out = np.empty(idx.size, dtype=np.int64)
    lo, hi = _bounds(dataset) if bounds is None else bounds
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        out[start : start + chunk.size] = kernel(lo, hi, chunk).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Packed-bitset route
# ---------------------------------------------------------------------------

def _bitset_table_bytes(n: int, d: int) -> int:
    """Worst-case table bytes (every value distinct): the planner's estimate.

    The tables actually built are keyed by distinct value and measured by
    :func:`_value_table_bytes`; this ``U = n`` bound stays the price
    :mod:`repro.engine.planner` charges before any data is sorted.
    """
    words = (n + 63) >> 6
    return 2 * d * (n + 1) * words * 8


def _use_bitsets(n: int, batch: int, *, cached: bool = False) -> bool:
    """Bitsets pay when the batch amortises the table build.

    With ``cached=True`` the tables already exist (a previous call, or the
    session's :class:`PreparedDataset` cache, paid for them), so *any*
    batch rides them — ``2·d`` row gathers per object beat an ``O(n·d)``
    broadcast row regardless of batch size. The byte budget is enforced
    by :meth:`PreparedDataset.tables` against the real value-table size.
    """
    if cached:
        return True
    return batch >= 256 and batch * 16 >= n and n >= 512


def _row_step(words: int) -> int:
    """Rows per bitset-route batch so one ``(b, W)`` temporary stays
    within :data:`_BITSET_STEP_BYTES`."""
    return max(_BITSET_STEP_BYTES // (8 * max(words, 1)), 1)


def _pack_bits(mask: np.ndarray) -> np.ndarray:
    """Boolean ``(..., 64·W)`` → packed uint64 ``(..., W)``.

    Bit ``j`` of word ``w`` is column ``64·w + j`` — the layout every
    table, live mask and observed bitset uses (:func:`unpack_mask_bits`
    is the inverse). Little-endian packing then a ``<u8`` view keeps it
    portable across host byte orders.
    """
    packed = np.packbits(mask, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _sorted_column(column: np.ndarray, slots: np.ndarray):
    """``(keys, codes, ordered)`` for the values ``column[slots]``.

    ``keys`` are the ascending distinct values, ``ordered`` the slots in
    value order and ``codes`` the key index of each of them.
    """
    ordered = slots[np.argsort(column[slots])]
    values = column[ordered]
    fresh = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh], np.cumsum(fresh) - 1, ordered


def _value_columns(lo: np.ndarray, hi: np.ndarray, slots: np.ndarray) -> list:
    """Per dimension, the sorted ``hi`` and ``lo`` columns of *slots*."""
    return [
        (_sorted_column(hi[:, dim], slots), _sorted_column(lo[:, dim], slots))
        for dim in range(lo.shape[1])
    ]


def _value_table_bytes(columns: list, words: int) -> int:
    """Bytes of the tables over *columns*: ``Σ (U_hi + 1 + U_lo + 1)·W·8``."""
    rows = sum(hi_col[0].size + lo_col[0].size + 2 for hi_col, lo_col in columns)
    return rows * words * 8


def _holder_rows(codes: np.ndarray, ordered: np.ndarray, rows: int, words: int) -> np.ndarray:
    """``(rows, words)`` bitsets: row ``r`` holds the slots of key ``r``.

    The boolean scratch is filled a byte-bounded block of keys at a time
    and packed with :func:`_pack_bits`.
    """
    out = np.empty((rows, words), dtype=np.uint64)
    step = max(_BITSET_STEP_BYTES // (64 * words), 1)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        first, last = np.searchsorted(codes, (start, stop))
        mask = np.zeros((stop - start, 64 * words), dtype=bool)
        mask[codes[first:last] - start, ordered[first:last]] = True
        out[start:stop] = _pack_bits(mask)
    return out


class _BitsetTables:
    """Per-dimension packed suffix/prefix bitsets, one row per distinct value.

    For dimension ``i``, ``sorted_hi[i]`` holds the ascending *distinct*
    ``hi`` values of the live objects and ``suffix[i][j]`` (as bits) every
    live object whose ``hi`` is at least ``sorted_hi[i][j]``; the extra
    last row is the empty set. Likewise ``sorted_lo[i]`` holds the
    distinct ``lo`` values and ``prefix[i][j]`` every live object whose
    ``lo`` is below ``sorted_lo[i][j]`` (row 0 empty, the last row every
    live object). A ``searchsorted`` of any query value into the keys
    lands on the row of the nearest key, which holds exactly the objects
    the threshold test admits — so only ``U + 1`` rows per dimension and
    direction are kept, ``2·Σ_i (U_i + 1)·⌈n/64⌉·8`` bytes in all: the
    paper's range-encoded bitmap index (``C_i + 1`` columns per
    dimension), sized by cardinality instead of ``n``.

    Bit ``j`` of word ``w`` in any row stands for storage slot ``64·w +
    j`` (little-endian within the word); :func:`unpack_mask_bits` is the
    inverse adapter back to boolean masks. Tombstoned slots hold no bit in
    any row, so results never need a live mask.

    Tables are *patchable*: :meth:`add` and :meth:`remove` set or clear
    one slot's bit in the rows of a value range, inserting a row when a
    value first appears and dropping it when its last holder leaves —
    which keeps a patched table bit-identical to a cold build over the
    same live slots. Copy-on-write: a table array is copied before its
    first in-place write unless this instance already owns it, so a
    :meth:`shallow` copy can share every untouched array with its parent.
    """

    __slots__ = ("n", "suffix", "prefix", "sorted_hi", "sorted_lo", "words", "_owned")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, *, columns: list | None = None) -> None:
        """Cold build over every storage slot, or over the slots sorted
        into *columns* (:func:`_value_columns`) when given."""
        n = lo.shape[0]
        self.n = n
        self.words = (n + 63) >> 6
        if columns is None:
            columns = _value_columns(lo, hi, np.arange(n))
        self.suffix: list[np.ndarray] = []
        self.prefix: list[np.ndarray] = []
        self.sorted_hi: list[np.ndarray] = []
        self.sorted_lo: list[np.ndarray] = []
        for (hi_keys, hi_codes, hi_slots), (lo_keys, lo_codes, lo_slots) in columns:
            holders = _holder_rows(hi_codes, hi_slots, hi_keys.size, self.words)
            suffix = np.zeros((hi_keys.size + 1, self.words), dtype=np.uint64)
            if hi_keys.size:
                suffix[:-1] = np.bitwise_or.accumulate(holders[::-1], axis=0)[::-1]
            self.suffix.append(suffix)
            self.sorted_hi.append(hi_keys)

            holders = _holder_rows(lo_codes, lo_slots, lo_keys.size, self.words)
            prefix = np.zeros((lo_keys.size + 1, self.words), dtype=np.uint64)
            np.bitwise_or.accumulate(holders, axis=0, out=prefix[1:])
            self.prefix.append(prefix)
            self.sorted_lo.append(lo_keys)
        self._owned: set = set()

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for group in (self.suffix, self.prefix, self.sorted_hi, self.sorted_lo)
            for arr in group
        )

    # -- patching ----------------------------------------------------------

    def shallow(self) -> "_BitsetTables":
        """Copy sharing every per-dimension array (both sides then copy on write)."""
        clone = _BitsetTables.__new__(_BitsetTables)
        clone.n = self.n
        clone.words = self.words
        clone.suffix = list(self.suffix)
        clone.prefix = list(self.prefix)
        clone.sorted_hi = list(self.sorted_hi)
        clone.sorted_lo = list(self.sorted_lo)
        clone._owned = set()
        self._owned = set()
        return clone

    def _side(self, kind: str):
        if kind == "suffix":
            return self.suffix, self.sorted_hi
        return self.prefix, self.sorted_lo

    def _writable(self, kind: str, dim: int) -> np.ndarray:
        tables = self.suffix if kind == "suffix" else self.prefix
        if (kind, dim) not in self._owned:
            tables[dim] = tables[dim].copy()
            self._owned.add((kind, dim))
        return tables[dim]

    def add(self, dim: int, kind: str, value: float, slot: int) -> None:
        """Set storage *slot*'s bit for sentinel *value* in one table.

        A suffix table ORs the bit into the rows of every key at or below
        *value*, a prefix table into the rows above it. A value no live
        object held before first gets its own row, a copy of the row it
        splits (``O(U·W)``); otherwise the patch is ``O(U)`` word ORs.
        """
        tables, keys = self._side(kind)
        j = int(np.searchsorted(keys[dim], value))
        if j == keys[dim].size or keys[dim][j] != value:
            row = j if kind == "suffix" else j + 1
            tables[dim] = np.insert(tables[dim], row, tables[dim][j], axis=0)
            keys[dim] = np.insert(keys[dim], j, value)
            self._owned.add((kind, dim))
        table = self._writable(kind, dim)
        bit = np.uint64(1) << np.uint64(slot & 63)
        if kind == "suffix":
            table[: j + 1, slot >> 6] |= bit
        else:
            table[j + 1 :, slot >> 6] |= bit

    def remove(self, dim: int, kind: str, value: float, slot: int) -> None:
        """Clear storage *slot*'s bit for sentinel *value* in one table.

        The mirror of :meth:`add`; the value's row is dropped when *slot*
        was its last holder (the row then equals its neighbour).
        """
        tables, keys = self._side(kind)
        j = int(np.searchsorted(keys[dim], value))
        if j == keys[dim].size or keys[dim][j] != value:
            raise InvalidParameterError(
                f"no table row for slot {slot} at value {value!r} (corrupt tables?)"
            )
        table = self._writable(kind, dim)
        bit = ~(np.uint64(1) << np.uint64(slot & 63))
        if kind == "suffix":
            table[: j + 1, slot >> 6] &= bit
            row, neighbour = j, j + 1
        else:
            table[j + 1 :, slot >> 6] &= bit
            row, neighbour = j + 1, j
        if np.array_equal(table[row], table[neighbour]):
            tables[dim] = np.delete(table, row, axis=0)
            keys[dim] = np.delete(keys[dim], j)

    def move(self, dim: int, kind: str, old_value: float, new_value: float, slot: int) -> None:
        """Re-key one slot after its sentinel value changed."""
        self.remove(dim, kind, old_value, slot)
        self.add(dim, kind, new_value, slot)

    def widen(self, words: int) -> None:
        """Grow every table to *words* columns (new slots start clear)."""
        if words <= self.words:
            return
        for kind, group in (("suffix", self.suffix), ("prefix", self.prefix)):
            for dim, table in enumerate(group):
                grown = np.zeros((table.shape[0], words), dtype=np.uint64)
                grown[:, : self.words] = table
                group[dim] = grown
                self._owned.add((kind, dim))
        self.words = words

    def _accumulators(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray):
        """The two packed accumulators both dominance directions share.

        ``le_acc[r]``     = bits of ``{p : ∀i hi[p,i] ≥ lo[o_r,i]}``
        ``not_lt_acc[r]`` = bits of ``{p : ∀i lo[p,i] ≤ hi[o_r,i]}``

        ``o_r`` dominates ``le_acc & ~not_lt_acc``; it is dominated by
        ``not_lt_acc & ~le_acc``. The query object sits in both sets (it
        is never strictly below itself), so it drops out of either
        combination without special-casing; so do duplicates and
        incomparable objects.
        """
        d = len(self.suffix)
        le_acc = self.suffix[0][np.searchsorted(self.sorted_hi[0], lo[idx, 0], side="left")]
        not_lt_acc = self.prefix[0][np.searchsorted(self.sorted_lo[0], hi[idx, 0], side="right")]
        for dim in range(1, d):
            rank_ge = np.searchsorted(self.sorted_hi[dim], lo[idx, dim], side="left")
            np.bitwise_and(le_acc, self.suffix[dim][rank_ge], out=le_acc)
            rank_le = np.searchsorted(self.sorted_lo[dim], hi[idx, dim], side="right")
            np.bitwise_and(not_lt_acc, self.prefix[dim][rank_le], out=not_lt_acc)
        return le_acc, not_lt_acc

    def dominated_block_bits(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Packed dominated-masks: row ``r`` holds the bits of ``{p : o_r ≻ p}``.

        Tail bits are clean on every backend: the suffix tables never set
        them, and the native route computes the same words.
        """
        return get_backend().accumulator_bits(self, lo, hi, idx, direction="dominated")

    def dominator_block_bits(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Packed dominator-masks: row ``r`` holds the bits of ``{p : p ≻ o_r}``
        (tail bits clean via the prefix tables)."""
        return get_backend().accumulator_bits(self, lo, hi, idx, direction="dominator")

    def dominated_counts(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``score(o)`` for each row: ``popcount(∩ suffixes & ~∩ prefixes)``."""
        return get_backend().accumulator_counts(self, lo, hi, idx, direction="dominated")

    def dominator_counts(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``|{p : p ≻ o}|`` for each row, from the same two accumulators."""
        return get_backend().accumulator_counts(self, lo, hi, idx, direction="dominator")


def unpack_mask_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Adapter: ``(b, W)`` packed uint64 rows → ``(b, n)`` boolean masks.

    Inverse of the packing used by :class:`_BitsetTables` (bit ``j`` of
    word ``w`` = object ``64·w + j``). The little-endian ``astype`` is a
    no-op view on little-endian hosts and a byteswap on big-endian ones,
    so the uint8 reinterpretation is portable.
    """
    le_words = words.astype("<u8", copy=False)
    bits = np.unpackbits(le_words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n].view(np.bool_)


def _popcount_rows_lookup(words: np.ndarray) -> np.ndarray:
    """Lookup-table per-row popcount (the NumPy < 2.0 fallback path)."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT8[as_bytes].sum(axis=1)


def _popcount_rows_numpy(words: np.ndarray) -> np.ndarray:
    """The portable per-row popcount (the ``numpy`` backend's route)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1).astype(np.int64)
    return _popcount_rows_lookup(words)


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(b, W)`` uint64 array (backend-dispatched)."""
    return get_backend().popcount_rows(words)


class SentinelDelta:
    """A :class:`~repro.core.delta.DatasetDelta` lowered to kernel inputs.

    Everything :meth:`PreparedDataset.patched` needs, already in sentinel
    form: minimized-orientation ``lo``/``hi`` rows for inserts and
    updates, observed masks, and the parent *dataset* row indices of
    deletes and updates (the prepared structure maps them to storage
    slots itself).
    """

    __slots__ = (
        "insert_lo",
        "insert_hi",
        "insert_observed",
        "delete_rows",
        "update_rows",
        "update_lo",
        "update_hi",
        "update_observed",
    )

    def __init__(
        self,
        *,
        insert_lo: np.ndarray,
        insert_hi: np.ndarray,
        insert_observed: np.ndarray,
        delete_rows: np.ndarray,
        update_rows: np.ndarray,
        update_lo: np.ndarray,
        update_hi: np.ndarray,
        update_observed: np.ndarray,
    ) -> None:
        self.insert_lo = insert_lo
        self.insert_hi = insert_hi
        self.insert_observed = insert_observed
        self.delete_rows = delete_rows
        self.update_rows = update_rows
        self.update_lo = update_lo
        self.update_hi = update_hi
        self.update_observed = update_observed

    @classmethod
    def from_delta(cls, delta, directions: Sequence[str]) -> "SentinelDelta":
        """Lower a bound :class:`~repro.core.delta.DatasetDelta`.

        *directions* is the parent dataset's per-dimension orientation;
        ``"max"`` columns are negated exactly like
        :attr:`~repro.core.dataset.IncompleteDataset.minimized` does.
        """
        sign = np.array([-1.0 if str(x) == "max" else 1.0 for x in directions])

        def sentinels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            observed = ~np.isnan(values)
            minimized = np.where(observed, values * sign, 0.0)
            lo = np.where(observed, minimized, -np.inf)
            hi = np.where(observed, minimized, np.inf)
            return lo, hi, observed

        insert_lo, insert_hi, insert_observed = sentinels(delta.inserted_values)
        update_lo, update_hi, update_observed = sentinels(delta.updated_values)
        return cls(
            insert_lo=insert_lo,
            insert_hi=insert_hi,
            insert_observed=insert_observed,
            delete_rows=np.asarray(delta.deleted_rows, dtype=np.intp),
            update_rows=np.asarray(delta.updated_rows, dtype=np.intp),
            update_lo=update_lo,
            update_hi=update_hi,
            update_observed=update_observed,
        )

    @property
    def inserts(self) -> int:
        return int(self.insert_lo.shape[0])


class PreparedDataset:
    """Reusable kernel inputs for one dataset: sentinels, tables, bitsets.

    Holds the ``lo``/``hi`` sentinel matrices eagerly (every route needs
    them; the seed rebuilt them per call) and two lazily built structures:

    * the packed prefix/suffix :class:`_BitsetTables` (one row of
      ``⌈n/64⌉`` words per distinct value, dimension and direction; built
      on the first call whose batch justifies them), and
    * per-dimension packed *observed* bitsets (``d × ⌈n/64⌉`` words) that
      turn incomparability counting into ``d`` conditional ORs plus one
      popcount per object.

    Instances are what the engine session's fingerprint-keyed,
    byte-budgeted cache stores
    (:class:`repro.engine.session.PreparedDatasetCache`).

    **Versioned storage model.** Since the delta refactor the arrays live
    in a *storage* layer that may be wider than the dataset: deleted
    objects keep their bit position as a **tombstone** (sentinel rows
    poisoned to ``lo=+inf``/``hi=-inf`` so the broadcast route never sees
    them; their bits are cleared from every table row so the bitset route
    never returns them) and inserted objects append new bit
    positions at the end. ``n`` is always the *live* object count —
    equal to the matching dataset's ``n`` — while :attr:`storage_n` is the
    bit width of the packed tables. Live storage slots, in ascending
    order, correspond 1:1 to dataset rows (the ordering contract of
    :func:`repro.core.delta.apply_delta`). :meth:`patched` advances an
    instance to a child version by patching tables instead of rebuilding
    them; :meth:`compacted` pays one cold rebuild to shed tombstone debt
    (the planner's :func:`~repro.engine.planner.plan_delta` decides when).
    """

    __slots__ = (
        "d",
        "build_seconds",
        "_n",
        "_storage_n",
        "_lo_buf",
        "_hi_buf",
        "_obs_buf",
        "_live",
        "_live_slots",
        "_live_bounds",
        "_tombstones",
        "_tables",
        "_refused_bytes",
        "_observed_bits",
        "_tail_mask",
        "_build_lock",
    )

    def __init__(self, dataset: "IncompleteDataset") -> None:
        start = _clock()
        self._n = dataset.n
        self._storage_n = dataset.n
        self.d = dataset.d
        self._lo_buf, self._hi_buf = _bounds(dataset)
        # Keep only the observed-mask array, not the dataset object: a
        # cache entry must not pin a caller's throwaway dataset (ids,
        # value matrices, …) for the process lifetime. Copied, because
        # in-place patching may overwrite rows and must never reach back
        # into the caller's dataset.
        self._obs_buf = np.array(dataset.observed, copy=True)
        self._live: np.ndarray | None = None
        self._live_slots: np.ndarray | None = None
        self._live_bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._tombstones = 0
        self._tables: _BitsetTables | None = None
        #: Value-table bytes of a build the budget refused for this
        #: version (so the sort that sized it is not repeated per call).
        self._refused_bytes: int | None = None
        self._observed_bits: np.ndarray | None = None
        self._tail_mask: np.ndarray | None = None
        #: Guards the lazy builds: concurrent threads must not duplicate
        #: a table build (or observe a half-written entry).
        self._build_lock = make_lock("prepared", reentrant=False)
        #: Accumulated seconds spent building this entry (sentinels plus
        #: any lazy structures) — the *rebuild cost* the session cache's
        #: cost-aware eviction weighs against the entry's bytes.
        self.build_seconds = _clock() - start

    # -- storage geometry ---------------------------------------------------

    @property
    def n(self) -> int:
        """Live object count — always equal to the matching dataset's ``n``."""
        return self._n

    @property
    def storage_n(self) -> int:
        """Occupied storage slots (live + tombstoned); the packed bit width."""
        return self._storage_n

    @property
    def lo(self) -> np.ndarray:
        """``(storage_n, d)`` lo sentinels (tombstoned rows hold ``+inf``)."""
        return self._lo_buf[: self._storage_n]

    @property
    def hi(self) -> np.ndarray:
        """``(storage_n, d)`` hi sentinels (tombstoned rows hold ``-inf``)."""
        return self._hi_buf[: self._storage_n]

    @property
    def observed(self) -> np.ndarray:
        """``(storage_n, d)`` observed masks (tombstoned rows all-False)."""
        return self._obs_buf[: self._storage_n]

    @property
    def tombstones(self) -> int:
        """Dead storage slots awaiting compaction."""
        return self._tombstones

    @property
    def tombstone_debt(self) -> float:
        """Dead fraction of the storage layer — the planner's debt signal."""
        return self._tombstones / max(self._storage_n, 1)

    def slots_of(self, rows: np.ndarray) -> np.ndarray:
        """Storage slots of the given *dataset* rows (identity when compact)."""
        if self._live is None:
            return rows
        return self._live_slots_array()[rows]

    def _live_slots_array(self) -> np.ndarray:
        if self._live_slots is None:
            self._live_slots = np.flatnonzero(self._live[: self._storage_n])
        return self._live_slots

    def _table_slots(self) -> np.ndarray:
        """The storage slots the tables hold bits for (the live ones)."""
        if self._live is None:
            return np.arange(self._storage_n)
        return self._live_slots_array()

    def live_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Dataset-indexed ``(lo, hi)`` for the broadcast route (memoised)."""
        if self._live is None:
            return self.lo, self.hi
        if self._live_bounds is None:
            slots = self._live_slots_array()
            self._live_bounds = (self.lo[slots], self.hi[slots])
        return self._live_bounds

    # -- bitset-route wrappers ---------------------------------------------
    #
    # Tombstoned slots hold no bit in any table row, so no wrapper needs
    # a live mask.

    def dominated_bits(self, rows: np.ndarray) -> np.ndarray:
        """Packed dominated-masks for *dataset* rows (no tombstone bits)."""
        slots = self.slots_of(rows)
        return self._tables.dominated_block_bits(self.lo, self.hi, slots)

    def dominator_bits(self, rows: np.ndarray) -> np.ndarray:
        """Packed dominator-masks for *dataset* rows (no tombstone bits)."""
        slots = self.slots_of(rows)
        return self._tables.dominator_block_bits(self.lo, self.hi, slots)

    def dominated_count_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact ``score`` counts for *dataset* rows, fused on one pass.

        Equivalent to ``popcount(dominated_bits(rows))`` but lets the
        active backend fold the gather, AND-reduction and popcount
        together without materialising the ``(b, W)`` bits.
        """
        slots = self.slots_of(rows)
        return self._tables.dominated_counts(self.lo, self.hi, slots)

    def dominator_count_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact dominator counts for *dataset* rows (fused mirror)."""
        slots = self.slots_of(rows)
        return self._tables.dominator_counts(self.lo, self.hi, slots)

    def unpack_live(self, bits: np.ndarray) -> np.ndarray:
        """Packed storage rows → boolean masks over *dataset* columns."""
        masks = unpack_mask_bits(bits, self._storage_n)
        if self._live is None:
            return masks
        return masks[:, self._live_slots_array()]

    def foreign_dominated_counts(
        self, probe_lo: np.ndarray, probe_hi: np.ndarray
    ) -> np.ndarray:
        """``|{p ∈ this dataset : o ≻ p}|`` for *foreign* probe objects.

        The cross-partition primitive: the probes are sentinel rows
        (``lo``/``hi``, missing → ∓∞) of objects living in *another*
        shard, so no self-bit handling is needed — an object never
        strictly beats its own values, and duplicates drop out of the
        accumulator combination like everywhere else. Rides the packed
        tables when they exist (the probe values searchsort into the same
        per-dimension keys any member row would), the blocked broadcast
        otherwise. Tombstoned rows count on neither route.
        """
        probe_lo = np.asarray(probe_lo, dtype=np.float64)
        probe_hi = np.asarray(probe_hi, dtype=np.float64)
        if probe_lo.ndim != 2 or probe_lo.shape != probe_hi.shape:
            raise InvalidParameterError(
                f"probe bounds must share one (b, d) shape, got {probe_lo.shape} and {probe_hi.shape}"
            )
        if probe_lo.shape[1] != self.d:
            raise InvalidParameterError(
                f"probes have d={probe_lo.shape[1]}, prepared dataset has d={self.d}"
            )
        b = probe_lo.shape[0]
        if b == 0:
            return np.zeros(0, dtype=np.int64)
        tables = self.tables(build=_use_bitsets(self._storage_n, b, cached=self.tables_ready))
        out = np.empty(b, dtype=np.int64)
        if tables is not None:
            step = _row_step(tables.words)
            for start in range(0, b, step):
                idx = np.arange(start, min(start + step, b), dtype=np.intp)
                out[start : start + idx.size] = tables.dominated_counts(probe_lo, probe_hi, idx)
            return out
        lo, hi = self.live_bounds()
        block = auto_block(lo.shape[0], self.d)
        for start in range(0, b, block):
            stop = min(start + block, b)
            le_all = np.all(probe_lo[start:stop, None, :] <= hi[None, :, :], axis=2)
            lt_any = np.any(probe_hi[start:stop, None, :] < lo[None, :, :], axis=2)
            out[start:stop] = (le_all & lt_any).sum(axis=1)
        return out

    def storage_arrays(self) -> list[np.ndarray]:
        """Every constituent array buffer, for id-aware cache accounting.

        Copy-on-write delta chains share untouched table arrays between
        parent and child entries (:meth:`_BitsetTables.shallow`), so a
        byte budget that sums per-entry :attr:`nbytes` double-counts
        them; :class:`~repro.engine.session.PreparedDatasetCache` dedupes
        the arrays this returns by identity instead.
        """
        arrays = [self._lo_buf, self._hi_buf, self._obs_buf]
        if self._live is not None:
            arrays.append(self._live)
        if self._tables is not None:
            tables = self._tables
            for group in (tables.suffix, tables.prefix, tables.sorted_hi, tables.sorted_lo):
                arrays.extend(group)
        if self._observed_bits is not None:
            arrays.append(self._observed_bits)
        return arrays

    # -- footprint / lifecycle ----------------------------------------------

    @property
    def nbytes(self) -> int:
        """Current footprint (grows when the lazy tables are built)."""
        total = self._lo_buf.nbytes + self._hi_buf.nbytes + self._obs_buf.nbytes
        if self._live is not None:
            total += self._live.nbytes
        if self._tables is not None:
            total += self._tables.nbytes
        if self._observed_bits is not None:
            total += self._observed_bits.nbytes
        return total

    @property
    def tables_ready(self) -> bool:
        return self._tables is not None

    @property
    def rebuild_cost_per_byte(self) -> float:
        """Measured build seconds per byte held — the eviction currency."""
        return self.build_seconds / max(self.nbytes, 1)

    def tables(self, *, build: bool = True) -> _BitsetTables | None:
        """The packed bitset tables; built on demand when *build* is true.

        Returns ``None`` when the tables are not built and either *build*
        is false or they would exceed the memory budget. The budget is
        checked against the real value-table bytes, so it needs the
        distinct values of every column: those sorts are the first half
        of the build and are not wasted when it goes ahead. A refusal is
        remembered for this version, counted in the ``kernel.tables_refused``
        metric on every call it turns away, and the bytes it would have
        needed land in the ``kernel.tables_refused_bytes`` gauge.
        Thread-safe: one builder wins, others wait on the build lock.
        """
        if self._tables is None and build and self._refused_bytes is None:
            with self._build_lock:
                if self._tables is None and self._refused_bytes is None:
                    with telemetry.trace("kernel.build_tables") as span:
                        start = _clock()
                        columns = _value_columns(self.lo, self.hi, self._table_slots())
                        words = (self._storage_n + 63) >> 6
                        table_bytes = _value_table_bytes(columns, words)
                        span.set("n", self._storage_n).set("d", self.d)
                        span.set("distinct", [hi_col[0].size for hi_col, _ in columns])
                        span.set("table_bytes", table_bytes)
                        if table_bytes <= _BITSET_TABLE_BUDGET_BYTES:
                            self._tables = _BitsetTables(self.lo, self.hi, columns=columns)
                        else:
                            span.set("refused", True)
                            self._refused_bytes = table_bytes
                        elapsed = _clock() - start
                    self.build_seconds += elapsed
                    if telemetry.enabled():
                        telemetry.metrics().observe("kernel.build_seconds", elapsed)
        if self._tables is None and build:
            registry = telemetry.metrics()
            registry.count("kernel.tables_refused")
            registry.gauge_max("kernel.tables_refused_bytes", self._refused_bytes)
        return self._tables

    def warm(self, batch: int | None = None) -> "PreparedDataset":
        """Build the tables now if a scan of *batch* rows (default all
        ``n``) would justify them — so the build lands in a preparation
        phase instead of inside the first timed/measured query."""
        scan = self._n if batch is None else int(batch)
        self.tables(build=_use_bitsets(self._storage_n, scan, cached=self.tables_ready))
        return self

    def observed_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """``(d, W)`` packed observed-object bitsets and the live-bit mask."""
        if self._observed_bits is None:
            with self._build_lock:
                if self._observed_bits is None:
                    start = _clock()
                    n, d = self._storage_n, self.d
                    words = (n + 63) >> 6
                    mask = np.zeros((d, 64 * words), dtype=bool)
                    mask[:, :n] = self.observed.T
                    bits = _pack_bits(mask)
                    live = np.zeros(64 * words, dtype=bool)
                    live[:n] = True if self._live is None else self._live[:n]
                    tail = _pack_bits(live)
                    # Publish the tail mask first: readers key on
                    # _observed_bits, which is assigned last.
                    self._tail_mask = tail
                    self._observed_bits = bits
                    self.build_seconds += _clock() - start
        return self._observed_bits, self._tail_mask

    # -- delta patching ------------------------------------------------------

    def patched(self, delta: SentinelDelta, *, inplace: bool = False) -> "PreparedDataset":
        """Advance to the child version under *delta* without a rebuild.

        Updates move the slot's bit between the rows of its old and new
        value, in the changed dimensions only; deletions clear the slot's
        bits and tombstone it (poisoned sentinels + live-mask);
        insertions append a new bit position and set its bits. Each is
        ``O(U)`` word operations per dimension and direction, plus one
        ``O(U·W)`` row copy when a value appears or vanishes (see
        :meth:`_BitsetTables.add`). The patched tables equal a cold build
        over the same storage, and the structure answers child-version
        queries bit-identically to a cold rebuild of the child dataset.

        With ``inplace=False`` (the default) ``self`` stays valid — parent
        and child share every untouched table array copy-on-write, which
        is what the fingerprint-keyed cache needs. ``inplace=True`` reuses
        the sentinel buffers (amortised doubling growth) and must only be
        used on a privately owned instance, e.g. by
        :class:`~repro.engine.session.ContinuousQuery`.
        """
        start = _clock()
        inserts = delta.inserts
        target = self if inplace else self._spawn(extra_rows=inserts)
        if inplace:
            target._ensure_capacity(self._storage_n + inserts)
            target._observed_bits = None
            target._tail_mask = None
            target._refused_bytes = None
        tables = target._tables

        # 1. Updates: re-key changed dimensions (old sentinel values are
        #    still in the buffers — read them before overwriting).
        if delta.update_rows.size:
            slots = target.slots_of(delta.update_rows)
            for j, slot in enumerate(slots):
                slot = int(slot)
                if tables is not None:
                    for dim in range(target.d):
                        old_hi, new_hi = target._hi_buf[slot, dim], delta.update_hi[j, dim]
                        if old_hi != new_hi:
                            tables.move(dim, "suffix", float(old_hi), float(new_hi), slot)
                        old_lo, new_lo = target._lo_buf[slot, dim], delta.update_lo[j, dim]
                        if old_lo != new_lo:
                            tables.move(dim, "prefix", float(old_lo), float(new_lo), slot)
                target._lo_buf[slot] = delta.update_lo[j]
                target._hi_buf[slot] = delta.update_hi[j]
                target._obs_buf[slot] = delta.update_observed[j]

        # 2. Deletions: clear the slot's bits, then tombstone it.
        if delta.delete_rows.size:
            slots = target.slots_of(delta.delete_rows)
            if tables is not None:
                for slot in slots.tolist():
                    for dim in range(target.d):
                        tables.remove(dim, "suffix", float(target._hi_buf[slot, dim]), slot)
                        tables.remove(dim, "prefix", float(target._lo_buf[slot, dim]), slot)
            if target._live is None:
                live = np.ones(target._lo_buf.shape[0], dtype=bool)
                live[target._storage_n :] = False
                target._live = live
            target._live[slots] = False
            target._lo_buf[slots] = np.inf
            target._hi_buf[slots] = -np.inf
            target._obs_buf[slots] = False
            target._tombstones += int(slots.size)

        # 3. Insertions: append new bit positions at the end of storage.
        for j in range(inserts):
            slot = target._storage_n
            if tables is not None:
                tables.widen((slot >> 6) + 1)
                for dim in range(target.d):
                    tables.add(dim, "suffix", float(delta.insert_hi[j, dim]), slot)
                    tables.add(dim, "prefix", float(delta.insert_lo[j, dim]), slot)
                tables.n += 1
            target._lo_buf[slot] = delta.insert_lo[j]
            target._hi_buf[slot] = delta.insert_hi[j]
            target._obs_buf[slot] = delta.insert_observed[j]
            if target._live is not None:
                target._live[slot] = True
            target._storage_n += 1

        target._n = self._n - int(delta.delete_rows.size) + inserts
        target._live_slots = None
        target._live_bounds = None
        target.build_seconds = self.build_seconds + (_clock() - start)
        return target

    def _spawn(self, *, extra_rows: int) -> "PreparedDataset":
        """Copy-on-write child: private sentinel buffers, shared tables."""
        child = PreparedDataset.__new__(PreparedDataset)
        child.d = self.d
        child._n = self._n
        child._storage_n = self._storage_n
        rows = self._storage_n + extra_rows
        child._lo_buf = _grown_copy(self._lo_buf, self._storage_n, rows)
        child._hi_buf = _grown_copy(self._hi_buf, self._storage_n, rows)
        child._obs_buf = _grown_copy(self._obs_buf, self._storage_n, rows)
        child._live = None
        if self._live is not None:
            child._live = _grown_copy(self._live[:, None], self._storage_n, rows)[:, 0]
        child._live_slots = None
        child._live_bounds = None
        child._tombstones = self._tombstones
        child._tables = None if self._tables is None else self._tables.shallow()
        child._refused_bytes = None
        child._observed_bits = None
        child._tail_mask = None
        child._build_lock = make_lock("prepared", reentrant=False)
        child.build_seconds = self.build_seconds
        return child

    def _ensure_capacity(self, rows: int) -> None:
        """Amortised doubling growth of the sentinel buffers (in place).

        Invariants preserved exactly: dtypes (``float64``/``bool``),
        storage orientation ``(capacity, d)``, poisoned tombstone rows,
        and fresh rows pre-poisoned so an unfilled slot can never look
        like a live all-zero object.
        """
        capacity = self._lo_buf.shape[0]
        if rows <= capacity:
            return
        new_capacity = max(2 * capacity, rows)
        self._lo_buf = _grown_copy(self._lo_buf, self._storage_n, new_capacity)
        self._hi_buf = _grown_copy(self._hi_buf, self._storage_n, new_capacity)
        self._obs_buf = _grown_copy(self._obs_buf, self._storage_n, new_capacity)
        if self._live is not None:
            self._live = _grown_copy(self._live[:, None], self._storage_n, new_capacity)[:, 0]

    def compacted(self, dataset: "IncompleteDataset") -> "PreparedDataset":
        """Shed tombstone debt: one cold rebuild over the live rows.

        *dataset* must be the child version this instance currently
        serves. The result is a compact :class:`PreparedDataset` (storage
        == dataset rows) whose tables — rebuilt eagerly when this
        instance had them — are bit-identical to a cold build.
        """
        if dataset.n != self._n:
            raise InvalidParameterError(
                f"compaction dataset has n={dataset.n}, prepared serves n={self._n}"
            )
        fresh = PreparedDataset(dataset)
        if self.tables_ready:
            fresh.tables(build=True)
        return fresh

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict:
        """Serializable array state (what the persistent store writes).

        Inverse of :meth:`from_state`. Tombstone state travels too, so a
        restored instance resumes exactly where the saved one stood.
        """
        state = {
            "meta": np.array(
                [self._n, self._storage_n, self.d, self._tombstones], dtype=np.int64
            ),
            "build_seconds": np.array([self.build_seconds]),
            "lo": self.lo,
            "hi": self.hi,
            "observed": self.observed,
        }
        if self._live is not None:
            state["live"] = self._live[: self._storage_n]
        if self._tables is not None:
            state["words"] = np.array([self._tables.words], dtype=np.int64)
            for dim in range(self.d):
                state[f"suffix{dim}"] = self._tables.suffix[dim]
                state[f"prefix{dim}"] = self._tables.prefix[dim]
                state[f"sorted_hi{dim}"] = self._tables.sorted_hi[dim]
                state[f"sorted_lo{dim}"] = self._tables.sorted_lo[dim]
        return state

    @classmethod
    def from_state(cls, state) -> "PreparedDataset":
        """Rebuild an instance from :meth:`state_arrays` output."""
        meta = np.asarray(state["meta"], dtype=np.int64)
        n, storage_n, d, tombstones = (int(x) for x in meta[:4])
        prepared = cls.__new__(cls)
        prepared._n = n
        prepared._storage_n = storage_n
        prepared.d = d
        prepared._tombstones = tombstones
        prepared._lo_buf = np.ascontiguousarray(state["lo"], dtype=np.float64)
        prepared._hi_buf = np.ascontiguousarray(state["hi"], dtype=np.float64)
        prepared._obs_buf = np.ascontiguousarray(state["observed"], dtype=bool)
        prepared._live = None
        if "live" in state:
            prepared._live = np.ascontiguousarray(state["live"], dtype=bool)
        prepared._live_slots = None
        prepared._live_bounds = None
        prepared._tables = None
        prepared._refused_bytes = None
        if "words" in state:
            tables = _BitsetTables.__new__(_BitsetTables)
            tables.n = storage_n
            tables.words = int(np.asarray(state["words"])[0])
            tables.suffix = [np.ascontiguousarray(state[f"suffix{dim}"], dtype=np.uint64) for dim in range(d)]
            tables.prefix = [np.ascontiguousarray(state[f"prefix{dim}"], dtype=np.uint64) for dim in range(d)]
            tables.sorted_hi = [np.ascontiguousarray(state[f"sorted_hi{dim}"], dtype=np.float64) for dim in range(d)]
            tables.sorted_lo = [np.ascontiguousarray(state[f"sorted_lo{dim}"], dtype=np.float64) for dim in range(d)]
            tables._owned = set()
            prepared._tables = tables
        prepared._observed_bits = None
        prepared._tail_mask = None
        prepared._build_lock = make_lock("prepared", reentrant=False)
        prepared.build_seconds = float(np.asarray(state["build_seconds"])[0])
        return prepared


def _grown_copy(buffer: np.ndarray, occupied: int, capacity: int) -> np.ndarray:
    """Copy *buffer*'s occupied rows into a fresh (capacity, d) buffer.

    Fresh rows are pre-poisoned per dtype (NaN / False) so an unfilled
    slot can never masquerade as live data; inserts overwrite them.
    """
    out = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    out[:occupied] = buffer[:occupied]
    out[occupied:] = False if buffer.dtype == bool else np.nan
    return out


def _shared_prepared(dataset: "IncompleteDataset") -> PreparedDataset | None:
    """Default-session shim: the engine's fingerprint-keyed prepared cache.

    Module-level kernel calls (``score_all``, ``dominance_matrix``, the
    MFD operator, …) reach the same :class:`PreparedDataset` instances a
    :class:`~repro.engine.session.QueryEngine` would use, so repeated
    sweeps build sentinels and bitset tables once per dataset. Tiny
    datasets skip the cache entirely — fingerprinting them costs more
    than the broadcast kernel saves.
    """
    if dataset.n < _MIN_SHARED_N:
        return None
    from .session import shared_prepared  # deferred: session imports this module

    return shared_prepared(dataset)


def _resolve_tables(
    dataset: "IncompleteDataset", batch: int, prepared: PreparedDataset | None
) -> tuple[PreparedDataset | None, _BitsetTables | None]:
    """Shared route selection: which tables (if any) should serve *batch*."""
    if prepared is None:
        prepared = _shared_prepared(dataset)
    if prepared is None:
        return None, None
    build = _use_bitsets(prepared.storage_n, batch, cached=prepared.tables_ready)
    return prepared, prepared.tables(build=build)


def prepared_for_scan(
    dataset: "IncompleteDataset", batch: int | None = None
) -> PreparedDataset | None:
    """Pre-warm the dataset's shared :class:`PreparedDataset` for a scan.

    Callers that loop over small row blocks (MFD, UBB's candidate loop)
    would never individually cross the table-build threshold even though
    their *total* work does; this resolves eligibility against the full
    scan size (*batch*, default ``n``) once, builds the tables if
    justified, and returns the prepared inputs to thread through the
    per-block kernel calls. Returns ``None`` for tiny datasets.
    """
    prepared = _shared_prepared(dataset)
    if prepared is not None:
        prepared.warm(batch)
    return prepared


# ---------------------------------------------------------------------------
# Public counting kernels
# ---------------------------------------------------------------------------

def dominated_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """Exact ``score(o)`` for each requested object (all objects if None).

    Large batches — or any batch once the dataset's bitset tables are
    cached — go through the packed-bitset route; the rest through the
    blocked broadcast. Both are exact. Pass *prepared* to pin a specific
    :class:`PreparedDataset`; otherwise the session shim is consulted.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty(idx.size, dtype=np.int64)
        step = _row_step(tables.words)
        for start in range(0, idx.size, step):
            chunk = idx[start : start + step]
            out[start : start + chunk.size] = prepared.dominated_count_rows(chunk)
        return out
    bounds = prepared.live_bounds() if prepared is not None else None
    return _blocked_counts(dataset, idx, block, _score_block, bounds=bounds)


def dominated_masks(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """Exact dominated-masks ``(len(rows), n)`` through the fastest route.

    Bit-identical to stacking :func:`repro.core.dominance.dominated_mask`
    rows, but served from the packed-bitset tables (gather + unpack) when
    they exist or the batch justifies building them — the mask-emitting
    fast path MFD and the dominance matrix ride.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros((0, n), dtype=bool)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty((idx.size, n), dtype=bool)
        step = _row_step(tables.words)
        for start in range(0, idx.size, step):
            chunk = idx[start : start + step]
            out[start : start + chunk.size] = prepared.unpack_live(
                prepared.dominated_bits(chunk)
            )
        return out
    if block is None:
        block = auto_block(n, dataset.d)
    lo, hi = prepared.live_bounds() if prepared is not None else _bounds(dataset)
    out = np.empty((idx.size, n), dtype=bool)
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        out[start : start + chunk.size] = _score_block(lo, hi, chunk)
    return out


def dominator_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """``|{p : p ≻ o}|`` for each requested object.

    Rides the same packed tables as :func:`dominated_counts` (the two
    directions share their accumulators); falls back to the blocked
    broadcast when no tables exist and the batch is too small to build
    them.
    """
    idx = _as_rows(range(dataset.n) if rows is None else rows, dataset.n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty(idx.size, dtype=np.int64)
        step = _row_step(tables.words)
        for start in range(0, idx.size, step):
            chunk = idx[start : start + step]
            out[start : start + chunk.size] = prepared.dominator_count_rows(chunk)
        return out
    bounds = prepared.live_bounds() if prepared is not None else None
    return _blocked_counts(dataset, idx, block, _dominator_block, bounds=bounds)


def dominator_masks(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """Exact dominator-masks ``(len(rows), n)``: row ``r`` is ``{p : p ≻ o_r}``.

    The mirror of :func:`dominated_masks`, served from the same packed
    accumulators when tables exist. This is the primitive the incremental
    score maintenance rides: the dominators of an inserted (deleted,
    updated) object are exactly the objects whose dominated counts change.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros((0, n), dtype=bool)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty((idx.size, n), dtype=bool)
        step = _row_step(tables.words)
        for start in range(0, idx.size, step):
            chunk = idx[start : start + step]
            out[start : start + chunk.size] = prepared.unpack_live(
                prepared.dominator_bits(chunk)
            )
        return out
    if block is None:
        block = auto_block(n, dataset.d)
    lo, hi = prepared.live_bounds() if prepared is not None else _bounds(dataset)
    out = np.empty((idx.size, n), dtype=bool)
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        out[start : start + chunk.size] = _dominator_block(lo, hi, chunk)
    return out


def incomparable_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """``|F(o)|`` — objects sharing no observed dimension with each row.

    With a :class:`PreparedDataset` (explicit or via the session shim) the
    answer is ``n − popcount(∪_{i ∈ Iset(o)} OBS_i)`` over ``d`` packed
    observed-object bitsets — ``d`` conditional ORs of ``⌈n/64⌉`` words
    per block instead of an ``O(n·d)`` integer matmul row per object.
    Without one, one integer matmul per block: ``observed[B] @
    observed.T`` counts the shared observed dimensions of every pair;
    zero means incomparable. An object always shares its own dimensions
    with itself, so the self pair never counts on either route.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if prepared is None:
        prepared = _shared_prepared(dataset)
    if prepared is not None:
        bits, tail = prepared.observed_bits()
        observed = dataset.observed
        out = np.empty(idx.size, dtype=np.int64)
        slots = prepared.slots_of(idx)
        self_word = (slots >> 6).astype(np.intp)
        self_bit = np.uint64(1) << (slots & 63).astype(np.uint64)
        step = _row_step(bits.shape[1])
        for start in range(0, idx.size, step):
            chunk = idx[start : start + step]
            b = chunk.size
            acc = np.zeros((b, bits.shape[1]), dtype=np.uint64)
            obs_rows = observed[chunk]
            for dim in range(dataset.d):
                sel = obs_rows[:, dim]
                if sel.any():
                    acc[sel] |= bits[dim]
            np.invert(acc, out=acc)
            acc &= tail
            # Clear the self bit explicitly (it is already cleared for any
            # object with >= 1 observed dimension, which the dataset model
            # guarantees — this mirrors incomparable_mask's out[i] = False).
            sl = slice(start, start + b)
            acc[np.arange(b), self_word[sl]] &= ~self_bit[sl]
            out[sl] = _popcount_rows(acc)
        return out
    if block is None:
        block = max(auto_block(n, dataset.d), 64)
    observed_int = dataset.observed.astype(np.int64)
    out = np.empty(idx.size, dtype=np.int64)
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        shared = observed_int[chunk] @ observed_int.T  # (b, n)
        out[start : start + chunk.size] = (shared == 0).sum(axis=1)
    return out


def max_bit_score_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
) -> np.ndarray:
    """``MaxBitScore(o) = |Q|`` (Lemma 3) without building a bitmap index.

    ``Q ∪ {o}`` holds every object that, on each dimension *o* observes, is
    either missing there or not better than *o* — exactly the ``le_all``
    half of :func:`score_block`; *o* itself always qualifies, hence the −1.
    """

    def kernel(lo, hi, chunk):
        return np.all(lo[chunk][:, None, :] <= hi[None, :, :], axis=2)

    idx = _as_rows(range(dataset.n) if rows is None else rows, dataset.n)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    return _blocked_counts(dataset, idx, _validate_block(block), kernel) - 1


def upper_bound_scores(dataset: "IncompleteDataset") -> np.ndarray:
    """``MaxScore(o)`` for every object (Lemma 2), vectorised per dimension.

    ``MaxScore(o) = min_i |T_i(o)|`` with ``|T_i(o)|`` counted through one
    sort + ``searchsorted`` per dimension; dimensions missing in ``o``
    contribute ``|S| = n``. This is the shared upper-bound phase of UBB,
    BIG and IBIG (their priority queue ``F`` orders by it).
    """
    n, d = dataset.n, dataset.d
    values = dataset.minimized
    observed = dataset.observed

    out = np.full(n, n, dtype=np.int64)
    for dim in range(d):
        obs = observed[:, dim]
        col = values[obs, dim]
        n_obs = col.size
        if n_obs == 0:
            continue  # |T_i| = |S_i| = n for everyone; the init already covers it
        sorted_col = np.sort(col)
        missing = n - n_obs
        # #(p != o with p[dim] >= o[dim]) = n_obs - rank_lower(o[dim]) - 1
        ranks = np.searchsorted(sorted_col, col, side="left")
        t_sizes = (n_obs - ranks - 1) + missing
        rows = np.flatnonzero(obs)
        out[rows] = np.minimum(out[rows], t_sizes)
    return out


def dominance_matrix_blocked(
    dataset: "IncompleteDataset",
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
    route: str = "auto",
) -> np.ndarray:
    """Full ``(n, n)`` boolean dominance matrix via blocked kernel calls.

    ``route`` selects the kernel: ``"auto"`` (bitset tables when cached or
    worth building — the batch here is all of ``n`` — else broadcast),
    ``"bitset"`` (force the packed mask-emitting route, building private
    tables if necessary), or ``"broadcast"`` (force the ``(b, n, d)``
    kernel; what the benchmarks compare against).
    """
    if route not in ("auto", "bitset", "broadcast"):
        raise InvalidParameterError(
            f"route must be 'auto', 'bitset' or 'broadcast', got {route!r}"
        )
    n = dataset.n
    block = _validate_block(block)
    tables = None
    if route != "broadcast":
        prepared, tables = _resolve_tables(dataset, n, prepared)
        if route == "bitset" and tables is None:
            # Below the shared-cache threshold (or shim unavailable):
            # build private tables for this call.
            prepared = prepared if prepared is not None else PreparedDataset(dataset)
            tables = prepared.tables(build=True)
            if tables is None:
                raise InvalidParameterError(
                    f"bitset tables for n={n}, d={dataset.d} exceed the memory budget"
                )
    if tables is not None:
        out = np.empty((n, n), dtype=bool)
        step = _row_step(tables.words)
        for start in range(0, n, step):
            chunk = np.arange(start, min(start + step, n), dtype=np.intp)
            out[start : start + chunk.size] = prepared.unpack_live(
                prepared.dominated_bits(chunk)
            )
        return out
    if block is None:
        block = auto_block(n, dataset.d)
    lo, hi = _bounds(dataset) if prepared is None else prepared.live_bounds()
    out = np.empty((n, n), dtype=bool)
    for start in range(0, n, block):
        chunk = np.arange(start, min(start + block, n), dtype=np.intp)
        out[start : start + chunk.size] = _score_block(lo, hi, chunk)
    return out
