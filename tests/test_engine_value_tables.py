"""Value-keyed dominance tables: one row per distinct value.

The packed tables of :mod:`repro.engine.kernels` keep one suffix/prefix
row per distinct ``hi``/``lo`` value, so their size follows the
cardinality, not ``n``. These tests pin the layout down:

* a Hypothesis property — counts, masks and foreign probes read from the
  value tables equal the broadcast route on both backends, across word
  boundaries, cardinalities from 2 up to continuous, NaN payloads,
  ``max`` directions and tombstones;
* delta sequences that add and drop value rows (a value's last holder
  deleted or updated away, a brand-new value inserted), each compared
  row for row with a cold build over the same storage;
* copy-on-write: patching a child never writes into its parent's tables;
* the budget and its telemetry (``kernel.build_tables`` attributes, the
  ``kernel.tables_refused`` counter) and the byte-bounded batch step;
* the ladder point that used to fall off the table budget: n = 20000,
  d = 4, C = 100.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import IncompleteDataset
from repro.core.delta import DatasetDelta
from repro.engine import kernels, telemetry
from repro.engine.backend import available_backends, use_backend
from repro.engine.kernels import (
    PreparedDataset,
    SentinelDelta,
    _BitsetTables,
    _dominator_block,
    _row_step,
    dominated_counts,
    dominated_masks,
    dominator_counts,
    dominator_masks,
    score_block,
)
from repro.engine.session import PreparedDatasetCache, QueryEngine

BACKENDS = available_backends()

#: NaN payloads with unusual bit patterns: all must read as "missing".
_NAN_PAYLOADS = [
    np.frombuffer(np.array([bits], dtype=np.uint64).tobytes(), dtype=np.float64)[0]
    for bits in (0x7FF8000000000000, 0x7FF8000000000001, 0xFFF800000000BEEF)
]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Isolate metric and span assertions from ambient tracing."""
    was = telemetry.enabled()
    telemetry.set_enabled(False)
    telemetry.reset()
    telemetry.metrics().reset()
    yield
    telemetry.set_enabled(was)
    telemetry.reset()
    telemetry.metrics().reset()


def _values(rng, n, d, cardinality, missing):
    if cardinality is None:
        values = rng.random((n, d))
    else:
        values = rng.integers(0, cardinality, size=(n, d)).astype(float)
    holes = rng.random((n, d)) < missing
    holes[np.arange(n), rng.integers(0, d, size=n)] = False  # >= 1 observed
    payloads = rng.choice(_NAN_PAYLOADS, size=(n, d))
    return np.where(holes, payloads, values)


def _broadcast(child):
    """The broadcast oracle over the child dataset's rows."""
    lo, hi = kernels._bounds(child)
    rows = np.arange(child.n)
    dominated = score_block(child, rows)
    dominators = _dominator_block(lo, hi, rows)
    return dominated, dominators


def _assert_tables_equal(a: _BitsetTables, b: _BitsetTables) -> None:
    """Row for row and key for key (the patched-vs-cold contract)."""
    assert (a.n, a.words) == (b.n, b.words)
    for attr in ("suffix", "prefix", "sorted_hi", "sorted_lo"):
        for dim, (x, y) in enumerate(zip(getattr(a, attr), getattr(b, attr))):
            np.testing.assert_array_equal(x, y, err_msg=f"{attr}[{dim}]")


def _cold_over_storage(prepared: PreparedDataset) -> _BitsetTables:
    """A cold table build over *prepared*'s storage and live slots."""
    columns = kernels._value_columns(prepared.lo, prepared.hi, prepared._table_slots())
    return _BitsetTables(prepared.lo, prepared.hi, columns=columns)


def _patched(prepared, dataset, delta, *, inplace=False):
    sentinel = SentinelDelta.from_delta(delta, dataset.directions)
    return prepared.patched(sentinel, inplace=inplace), dataset.apply_delta(delta)


# ---------------------------------------------------------------------------
# Property: value tables == broadcast, both backends
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.sampled_from([63, 64, 65, 128]),
    d=st.integers(1, 4),
    cardinality=st.sampled_from([2, 3, 7, 50, None]),
    missing=st.sampled_from([0.0, 0.2, 0.6]),
    maxes=st.lists(st.booleans(), min_size=4, max_size=4),
    deletes=st.integers(0, 6),
    seed=st.integers(0, 2**16),
)
def test_value_tables_match_broadcast(n, d, cardinality, missing, maxes, deletes, seed):
    rng = np.random.default_rng(seed)
    directions = ["max" if flag else "min" for flag in maxes[:d]]
    dataset = IncompleteDataset(_values(rng, n, d, cardinality, missing), directions=directions)
    probe_lo = rng.integers(0, 8, size=(5, d)).astype(float) - 4.0
    probe_hi = probe_lo + rng.integers(0, 2, size=(5, d))
    probe_lo[0], probe_hi[0] = -np.inf, np.inf  # an all-missing probe
    victims = [dataset.ids[int(i)] for i in rng.permutation(n)[:deletes]]
    answers = {}
    for name in BACKENDS:
        with use_backend(name):
            prepared = PreparedDataset(dataset)
            assert prepared.tables(build=True) is not None
            child = dataset
            if victims:
                prepared, child = _patched(
                    prepared, dataset, DatasetDelta.deleting(dataset, victims)
                )
                assert prepared.tombstones == deletes
            _assert_tables_equal(prepared.tables(build=False), _cold_over_storage(prepared))
            dominated, dominators = _broadcast(child)
            got = (
                dominated_counts(child, prepared=prepared),
                dominator_counts(child, prepared=prepared),
                dominated_masks(child, prepared=prepared),
                dominator_masks(child, prepared=prepared),
            )
            np.testing.assert_array_equal(got[0], dominated.sum(axis=1))
            np.testing.assert_array_equal(got[1], dominators.sum(axis=1))
            np.testing.assert_array_equal(got[2], dominated)
            np.testing.assert_array_equal(got[3], dominators)
            broadcast_probes = PreparedDataset(child).foreign_dominated_counts(probe_lo, probe_hi)
            table_probes = prepared.foreign_dominated_counts(probe_lo, probe_hi)
            np.testing.assert_array_equal(table_probes, broadcast_probes)
            answers[name] = [g.tolist() for g in got] + [table_probes.tolist()]
    assert all(answer == answers["numpy"] for answer in answers.values())


# ---------------------------------------------------------------------------
# Delta sequences that add and drop value rows
# ---------------------------------------------------------------------------


def _small_dataset():
    # dim 0: value 7 has one holder (row 2), value 5 two holders;
    # dim 1: exactly one missing cell (row 4), so +inf/-inf are keys.
    values = np.array(
        [
            [1.0, 2.0, 3.0],
            [5.0, 1.0, 2.0],
            [7.0, 3.0, 1.0],
            [5.0, 2.0, np.nan],
            [3.0, np.nan, 2.0],
            [1.0, 4.0, 4.0],
        ]
        + [[float(1 + i % 4), float(i % 3), float(i % 5)] for i in range(60)]
    )
    return IncompleteDataset(values, directions=["min", "max", "min"])


def _check(prepared, child):
    _assert_tables_equal(prepared.tables(build=False), _cold_over_storage(prepared))
    dominated, dominators = _broadcast(child)
    for name in BACKENDS:
        with use_backend(name):
            np.testing.assert_array_equal(
                dominated_counts(child, prepared=prepared), dominated.sum(axis=1)
            )
            np.testing.assert_array_equal(
                dominator_counts(child, prepared=prepared), dominators.sum(axis=1)
            )


@pytest.mark.parametrize("inplace", [False, True])
class TestValueRowDeltas:
    def _start(self):
        """A privately owned, tabled structure (as a continuous query holds)."""
        dataset = _small_dataset()
        prepared = PreparedDataset(dataset)
        prepared.tables(build=True)
        return _patched(prepared, dataset, DatasetDelta.inserting(dataset, [[2.0, 2.0, 2.0]]))

    def test_last_holder_deleted_drops_the_row(self, inplace):
        prepared, dataset = self._start()
        keys_before = prepared.tables(build=False).sorted_hi[0].size
        prepared, child = _patched(
            prepared, dataset, DatasetDelta.deleting(dataset, [dataset.ids[2]]), inplace=inplace
        )
        tables = prepared.tables(build=False)
        assert 7.0 not in tables.sorted_hi[0] and 7.0 not in tables.sorted_lo[0]
        assert tables.sorted_hi[0].size == keys_before - 1
        assert tables.suffix[0].shape[0] == keys_before  # U + 1 rows
        _check(prepared, child)

    def test_shared_value_keeps_its_row(self, inplace):
        prepared, dataset = self._start()
        prepared, child = _patched(
            prepared, dataset, DatasetDelta.deleting(dataset, [dataset.ids[1]]), inplace=inplace
        )
        assert 5.0 in prepared.tables(build=False).sorted_hi[0]  # row 3 still holds 5
        _check(prepared, child)

    def test_last_holder_updated_away(self, inplace):
        prepared, dataset = self._start()
        delta = DatasetDelta.updating(dataset, {dataset.ids[2]: {0: 5.0}})
        prepared, child = _patched(prepared, dataset, delta, inplace=inplace)
        assert 7.0 not in prepared.tables(build=False).sorted_hi[0]
        _check(prepared, child)

    def test_only_missing_cell_filled_drops_the_sentinel_key(self, inplace):
        prepared, dataset = self._start()
        tables = prepared.tables(build=False)
        assert np.isinf(tables.sorted_hi[1][-1]) and np.isinf(tables.sorted_lo[1][0])
        delta = DatasetDelta.updating(dataset, {dataset.ids[4]: {1: 2.0}})
        prepared, child = _patched(prepared, dataset, delta, inplace=inplace)
        tables = prepared.tables(build=False)
        assert np.isfinite(tables.sorted_hi[1]).all() and np.isfinite(tables.sorted_lo[1]).all()
        _check(prepared, child)

    def test_brand_new_values_inserted(self, inplace):
        prepared, dataset = self._start()
        rows = [[4.5, np.nan, -1.0], [9.0, 0.5, 2.0], [-3.0, 7.0, np.nan]]
        prepared, child = _patched(
            prepared, dataset, DatasetDelta.inserting(dataset, rows), inplace=inplace
        )
        tables = prepared.tables(build=False)
        for value in (4.5, 9.0, -3.0):
            assert value in tables.sorted_hi[0] and value in tables.sorted_lo[0]
        _check(prepared, child)

    def test_updated_to_a_brand_new_value(self, inplace):
        prepared, dataset = self._start()
        delta = DatasetDelta.updating(dataset, {dataset.ids[0]: {0: 0.25, 2: 8.5}})
        prepared, child = _patched(prepared, dataset, delta, inplace=inplace)
        assert 0.25 in prepared.tables(build=False).sorted_hi[0]
        _check(prepared, child)

    def test_mixed_sequence_across_a_word_boundary(self, inplace):
        prepared, dataset = self._start()  # 67 storage slots: two words
        rng = np.random.default_rng(3)
        for step in range(40):
            kind = step % 3
            if kind == 0:
                rows = rng.integers(0, 9, size=(5, 3)).astype(float)
                rows[np.arange(5), rng.integers(0, 3, size=5)] = np.nan
                delta = DatasetDelta.inserting(dataset, rows)
            elif kind == 1:
                delta = DatasetDelta.deleting(dataset, [dataset.ids[int(rng.integers(dataset.n))]])
            else:
                target = dataset.ids[int(rng.integers(dataset.n))]
                delta = DatasetDelta.updating(
                    dataset, {target: {int(rng.integers(0, 3)): float(rng.integers(0, 12))}}
                )
            prepared, dataset = _patched(prepared, dataset, delta, inplace=inplace)
        assert prepared.storage_n > 128  # crossed into a third word
        _check(prepared, dataset)


def test_copy_mode_never_writes_into_the_parent():
    dataset = _small_dataset()
    parent = PreparedDataset(dataset)
    parent.tables(build=True)
    tables = parent.tables(build=False)
    snapshot = [arr.copy() for group in (tables.suffix, tables.prefix) for arr in group]
    child, child_ds = _patched(
        parent, dataset, DatasetDelta.updating(dataset, {dataset.ids[0]: {0: 9.0, 1: 0.0}})
    )
    for _ in range(2):
        child, child_ds = _patched(
            child, child_ds, DatasetDelta.deleting(child_ds, [child_ds.ids[1]])
        )
    after = [arr for group in (tables.suffix, tables.prefix) for arr in group]
    for before, now in zip(snapshot, after):
        np.testing.assert_array_equal(before, now)
    _assert_tables_equal(tables, _cold_over_storage(parent))
    _check(child, child_ds)


def test_shallow_copy_disowns_both_sides():
    dataset = _small_dataset()
    prepared = PreparedDataset(dataset)
    prepared.tables(build=True)
    # Own every array, then share them: an in-place patch of either side
    # must copy first.
    owned, dataset = _patched(prepared, dataset, DatasetDelta.inserting(dataset, [[1.0, 1.0, 1.0]]))
    child = owned._spawn(extra_rows=0)
    shared = [arr.copy() for arr in child.tables(build=False).suffix]
    owned, _ = _patched(owned, dataset, DatasetDelta.deleting(dataset, [dataset.ids[0]]), inplace=True)
    for before, now in zip(shared, child.tables(build=False).suffix):
        np.testing.assert_array_equal(before, now)


# ---------------------------------------------------------------------------
# Budget, telemetry, batch step
# ---------------------------------------------------------------------------


def test_build_span_records_distinct_counts_and_bytes():
    dataset = _small_dataset()
    telemetry.set_enabled(True)
    prepared = PreparedDataset(dataset)
    tables = prepared.tables(build=True)
    spans = [s for s in telemetry.collected_spans() if s["name"] == "kernel.build_tables"]
    assert len(spans) == 1
    attrs = spans[0]["attrs"]
    assert attrs["distinct"] == [keys.size for keys in tables.sorted_hi]
    rows = sum(t.shape[0] for t in tables.suffix + tables.prefix)
    assert attrs["table_bytes"] == rows * tables.words * 8
    assert "refused" not in attrs


def test_budget_refusal_is_counted_and_remembered(monkeypatch):
    rng = np.random.default_rng(0)
    dataset = IncompleteDataset(rng.random((700, 3)))  # continuous: U = n
    monkeypatch.setattr(kernels, "_BITSET_TABLE_BUDGET_BYTES", 64 * 1024)
    telemetry.set_enabled(True)
    prepared = PreparedDataset(dataset)
    assert prepared.tables(build=True) is None
    assert prepared.tables(build=True) is None
    assert prepared.tables(build=False) is None  # not a build request
    registry = telemetry.metrics()
    assert registry.counter_value("kernel.tables_refused") == 2
    needed = 2 * 3 * (700 + 1) * ((700 + 63) >> 6) * 8
    assert registry.gauge_value("kernel.tables_refused_bytes") == needed
    spans = [s for s in telemetry.collected_spans() if s["name"] == "kernel.build_tables"]
    assert len(spans) == 1 and spans[0]["attrs"]["refused"] is True  # sized once
    # The refused dataset still answers exactly, through the broadcast.
    expected = score_block(dataset, range(dataset.n)).sum(axis=1)
    np.testing.assert_array_equal(dominated_counts(dataset, prepared=prepared), expected)


def test_refusal_counter_needs_no_tracing(monkeypatch):
    dataset = IncompleteDataset(np.random.default_rng(1).random((600, 2)))
    monkeypatch.setattr(kernels, "_BITSET_TABLE_BUDGET_BYTES", 1024)
    assert PreparedDataset(dataset).tables(build=True) is None
    assert telemetry.metrics().counter_value("kernel.tables_refused") == 1


def test_row_step_bounds_batch_temporaries_by_bytes():
    for words in (1, 2, 16, 313, 5000):
        step = _row_step(words)
        assert step >= 1
        assert step * words * 8 <= max(kernels._BITSET_STEP_BYTES, words * 8)
    assert _row_step(313) * 313 * 8 <= 4 * 1024 * 1024  # a few MB at n = 20000


def test_packed_observed_and_live_bits_match_bit_scatter():
    rng = np.random.default_rng(4)
    dataset = IncompleteDataset(_values(rng, 130, 3, 5, 0.4))
    prepared = PreparedDataset(dataset)
    prepared, _ = _patched(
        prepared, dataset, DatasetDelta.deleting(dataset, [dataset.ids[i] for i in (0, 64, 129)])
    )
    n = prepared.storage_n
    words = (n + 63) >> 6

    def scatter(mask):
        out = np.zeros(words, dtype=np.uint64)
        slots = np.flatnonzero(mask)
        np.bitwise_or.at(out, slots >> 6, np.uint64(1) << (slots & 63).astype(np.uint64))
        return out

    live = np.ones(n, dtype=bool)
    live[[0, 64, 129]] = False
    bits, tail = prepared.observed_bits()
    for dim in range(3):
        np.testing.assert_array_equal(bits[dim], scatter(prepared.observed[:, dim]))
    np.testing.assert_array_equal(tail, scatter(live))


# ---------------------------------------------------------------------------
# The ladder point: n = 20000, d = 4, C = 100, sigma = 0.2
# ---------------------------------------------------------------------------


def test_ladder_point_builds_value_tables():
    n, d, cardinality = 20000, 4, 100
    rng = np.random.default_rng(20)
    values = rng.integers(1, cardinality + 1, size=(n, d)).astype(float)
    holes = rng.random((n, d)) < 0.2
    holes[np.arange(n), rng.integers(0, d, size=n)] = False
    values[holes] = np.nan
    dataset = IncompleteDataset(values)
    tables = PreparedDataset(dataset).tables()
    assert tables is not None
    words = (n + 63) >> 6
    row_bytes = sum(t.nbytes for t in tables.suffix + tables.prefix)
    assert row_bytes <= 2 * d * (cardinality + 2) * words * 8  # ROADMAP item 2 gate
    assert tables.nbytes - row_bytes == 8 * sum(k.size for k in tables.sorted_hi + tables.sorted_lo)
    engine = QueryEngine(dataset_cache=PreparedDatasetCache())
    live = engine.continuous(dataset, k=10)
    assert live.prepared.tables_ready
    sample = np.arange(0, n, 997)
    np.testing.assert_array_equal(
        live.scores[sample], score_block(dataset, sample).sum(axis=1)
    )
