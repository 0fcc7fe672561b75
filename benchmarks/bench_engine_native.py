#!/usr/bin/env python
"""Native kernel backend + zero-copy dispatch acceptance benchmark.

Two claims, each measured and enforced:

1. **The native backend beats numpy on the hot loop** — the fused
   gather+AND+popcount accumulator pass (what ``dominated_counts`` and
   ``foreign_dominated_counts`` bottom out in) over packed bitset tables
   at n=20000, d=4, chunked the way the kernels chunk it, must run at
   least ``--min-speedup`` (default 2x) faster than the numpy route.
   The raw per-row popcount is measured alongside for context.
2. **Shared-memory dispatch beats pickling** — obtaining a usable
   ``PreparedDataset`` in a worker from a ``SharedTables.attach`` must
   cost at least ``--min-payload-ratio`` (default 5x) less than the
   pickle round-trip of the same prepared state that ``query_many``
   workers would otherwise pay per task.

Both claims are gated on **bit-identical parity**: every measured kernel
invocation is compared across backends and any disagreement exits 2.

Run:  PYTHONPATH=src python benchmarks/bench_engine_native.py
      PYTHONPATH=src python benchmarks/bench_engine_native.py \
          --n 4096 --repeats 1  # CI smoke (floors still enforced)

Writes the measurements to ``--json`` (default
``benchmarks/BENCH_native.json``). Exits 1 when a floor is missed, 2 on
a cross-backend parity mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

import numpy as np

from repro.datasets.synthetic import independent_dataset
from repro.engine.backend import (
    SharedTables,
    native_available,
    native_build_error,
    use_backend,
)
from repro.engine.kernels import PreparedDataset, _row_step


def _best_of(repeats, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _accumulator_pass(backend, tables, lo, hi, n):
    out = np.empty(n, dtype=np.int64)
    chunk = _row_step(tables.words)  # the kernels' bitset batch granularity
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=np.intp)
        out[idx] = backend.accumulator_counts(
            tables, lo, hi, idx, direction="dominated"
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000, help="dataset size")
    parser.add_argument("--d", type=int, default=4, help="dimensions")
    parser.add_argument("--missing-rate", type=float, default=0.2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="floor for numpy seconds / native seconds on the fused hot loop",
    )
    parser.add_argument(
        "--min-payload-ratio",
        type=float,
        default=5.0,
        help="floor for pickle-roundtrip seconds / shared-memory-attach seconds",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(__file__), "BENCH_native.json"),
    )
    args = parser.parse_args()

    if not native_available():
        print(f"native backend unavailable: {native_build_error()}", file=sys.stderr)
        return 1

    dataset = independent_dataset(args.n, args.d, missing_rate=args.missing_rate, seed=0)
    n = dataset.n
    prepared = PreparedDataset(dataset)
    print(f"workload: n={n} d={dataset.d} σ={args.missing_rate}")
    start = time.perf_counter()
    # The tables the default route builds (value-keyed, under the budget).
    tables = prepared.tables()
    if tables is None:
        print("FAIL: the default route refused the bitset tables", file=sys.stderr)
        return 1
    print(f"bitset tables: {tables.nbytes / 1e6:.1f}MB built in {time.perf_counter() - start:.3f}s")

    # -- claim 1: fused accumulator hot loop -------------------------------
    per_backend = {}
    for name in ("numpy", "native"):
        with use_backend(name) as backend:
            per_backend[name] = _best_of(
                args.repeats,
                lambda b=backend: _accumulator_pass(b, tables, prepared.lo, prepared.hi, n),
            )
    numpy_s, numpy_counts = per_backend["numpy"]
    native_s, native_counts = per_backend["native"]
    if not np.array_equal(numpy_counts, native_counts):
        print("FAIL: accumulator counts differ between backends", file=sys.stderr)
        return 2
    speedup = numpy_s / native_s if native_s > 0 else float("inf")
    print(
        f"fused accumulator pass ({n} rows, chunk {_row_step(tables.words)}): "
        f"numpy {numpy_s * 1e3:.0f}ms, native {native_s * 1e3:.0f}ms -> "
        f"{speedup:.2f}x (floor {args.min_speedup:.1f}x)"
    )

    # Context: the raw per-row popcount alone (no gather/AND fusion).
    words = np.random.default_rng(1).integers(
        0, 2**64, size=(_row_step(tables.words), tables.words), dtype=np.uint64
    )
    pop = {}
    for name in ("numpy", "native"):
        with use_backend(name) as backend:
            pop[name] = _best_of(args.repeats, lambda b=backend: b.popcount_rows(words))
    if not np.array_equal(pop["numpy"][1], pop["native"][1]):
        print("FAIL: popcounts differ between backends", file=sys.stderr)
        return 2
    pop_speedup = pop["numpy"][0] / max(pop["native"][0], 1e-9)
    print(
        f"raw popcount ({words.shape[0]}x{tables.words} words): "
        f"numpy {pop['numpy'][0] * 1e3:.2f}ms, native {pop['native'][0] * 1e3:.2f}ms -> "
        f"{pop_speedup:.2f}x (context only)"
    )

    # -- claim 2: per-task payload cost, attach vs unpickle ----------------
    def pickle_roundtrip():
        blob = pickle.dumps(prepared.state_arrays(), protocol=pickle.HIGHEST_PROTOCOL)
        return PreparedDataset.from_state(pickle.loads(blob))

    pickle_s, via_pickle = _best_of(args.repeats, pickle_roundtrip)

    handle = SharedTables.create(prepared)
    try:

        def attach_roundtrip():
            twin = SharedTables.attach(handle.meta)
            view = twin.prepared()
            twin.close()
            return view

        attach_s, via_attach = _best_of(args.repeats, attach_roundtrip)
        # Parity while the segment is still mapped: an attached view must
        # never be read past its unlink (the mapping dies with it).
        check = np.arange(min(n, 512), dtype=np.intp)
        ref = prepared.dominated_count_rows(check)
        shipped_agree = np.array_equal(
            via_pickle.dominated_count_rows(check), ref
        ) and np.array_equal(via_attach.dominated_count_rows(check), ref)
        del via_attach
    finally:
        handle.close()
        handle.unlink()
    if not shipped_agree:
        print("FAIL: shipped prepared datasets disagree with the original", file=sys.stderr)
        return 2
    payload_ratio = pickle_s / max(attach_s, 1e-9)
    print(
        f"per-task payload ({handle.nbytes / 1e6:.0f}MB prepared state): "
        f"pickle {pickle_s * 1e3:.1f}ms, shm attach {attach_s * 1e3:.2f}ms -> "
        f"{payload_ratio:.0f}x (floor {args.min_payload_ratio:.1f}x)"
    )

    payload = {
        "n": n,
        "d": dataset.d,
        "missing_rate": args.missing_rate,
        "chunk": _row_step(tables.words),
        "table_bytes": tables.nbytes,
        "accumulator_numpy_seconds": numpy_s,
        "accumulator_native_seconds": native_s,
        "accumulator_speedup": speedup,
        "min_speedup": args.min_speedup,
        "popcount_numpy_seconds": pop["numpy"][0],
        "popcount_native_seconds": pop["native"][0],
        "popcount_speedup": pop_speedup,
        "payload_bytes": handle.nbytes,
        "payload_pickle_seconds": pickle_s,
        "payload_attach_seconds": attach_s,
        "payload_ratio": payload_ratio,
        "min_payload_ratio": args.min_payload_ratio,
    }
    with open(args.json, "w") as out:
        json.dump(payload, out, indent=2)
    print(f"wrote {args.json}")

    failed = False
    if speedup < args.min_speedup:
        print(
            f"FAIL: native speedup {speedup:.2f}x below the {args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        failed = True
    if payload_ratio < args.min_payload_ratio:
        print(
            f"FAIL: payload ratio {payload_ratio:.1f}x below the "
            f"{args.min_payload_ratio:.1f}x floor",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
