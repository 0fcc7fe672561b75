#!/usr/bin/env python
"""Bitset-cache and mask-route acceptance benchmark for the engine layer.

Three claims, each measured and enforced:

1. **Warm-cache scoring** — ``dominated_counts`` against a cached
   :class:`~repro.engine.kernels.PreparedDataset` (tables built once per
   dataset fingerprint, the PR's session-level cache) must beat the PR 1
   behaviour of rebuilding the value-keyed tables on every call by at
   least 3x at n=4000, d=4.
2. **Mask route** — ``dominance_matrix_blocked(route="bitset")`` (packed
   rows + unpack adapter) must beat ``route="broadcast"`` (the ``(b, n,
   d)`` kernel) by at least 2x at the same size, with identical output.
3. **Parallel batches** — ``query_many(workers=2)`` must return
   bit-identical answers to ``workers=1`` on a Fig. 13-style sweep
   (synthetic datasets x pruning algorithms x the paper's k-ladder).

Run:  PYTHONPATH=src python benchmarks/bench_engine_bitset_cache.py
      PYTHONPATH=src python benchmarks/bench_engine_bitset_cache.py \
          --n 700 --min-warm-speedup 0.5 --min-matrix-speedup 0.5   # CI smoke

Writes the measured ratios to ``--json`` (default
``benchmarks/BENCH_engine.json``). Exits 1 when a speedup floor is
missed, 2 when any route disagrees with another.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.datasets.synthetic import anticorrelated_dataset, independent_dataset
from repro.engine.kernels import (
    PreparedDataset,
    _BitsetTables,
    dominance_matrix_blocked,
    dominated_counts,
)
from repro.engine.session import QueryEngine


def best_of(repeats: int, fn, *args, **kwargs):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, value


def cold_counts(dataset) -> np.ndarray:
    """The PR 1 behaviour: build the bitset tables, use them, drop them."""
    prepared = PreparedDataset(dataset)
    tables = _BitsetTables(prepared.lo, prepared.hi)
    idx = np.arange(dataset.n, dtype=np.intp)
    out = np.empty(dataset.n, dtype=np.int64)
    step = 8192
    for start in range(0, idx.size, step):
        chunk = idx[start : start + step]
        out[start : start + chunk.size] = tables.dominated_counts(prepared.lo, prepared.hi, chunk)
    return out


def check_workers_parity(scale_n: int) -> bool:
    """query_many(workers=2) == workers=1 on a Fig. 13-style sweep."""
    datasets = [
        independent_dataset(scale_n, 10, cardinality=100, missing_rate=0.1, seed=0),
        anticorrelated_dataset(scale_n, 10, cardinality=100, missing_rate=0.1, seed=0),
    ]
    requests = [
        (ds, k, algorithm)
        for ds in datasets
        for algorithm in ("esb", "ubb", "big", "ibig")
        for k in (4, 8, 16, 32, 64)
    ]
    sequential = QueryEngine().query_many(requests, workers=1)
    parallel = QueryEngine().query_many(requests, workers=2)
    return all(
        a.indices == b.indices and a.scores == b.scores and a.ids == b.ids
        for a, b in zip(sequential, parallel)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4000, help="objects (default 4000)")
    parser.add_argument("--d", type=int, default=4, help="dimensions (default 4)")
    parser.add_argument("--missing-rate", type=float, default=0.1)
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing repeats")
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=3.0,
        help="fail below this warm-cache vs per-call-rebuild ratio (default 3.0)",
    )
    parser.add_argument(
        "--min-matrix-speedup",
        type=float,
        default=2.0,
        help="fail below this bitset-route vs broadcast dominance_matrix ratio (default 2.0)",
    )
    parser.add_argument(
        "--workers-n",
        type=int,
        default=800,
        help="dataset size of the Fig. 13-style workers parity sweep (0 skips it)",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_engine.json"),
        help="write measured ratios to this path (default benchmarks/BENCH_engine.json)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    dataset = independent_dataset(
        args.n, args.d, cardinality=100, missing_rate=args.missing_rate, seed=args.seed
    )
    print(
        f"engine bitset cache on n={dataset.n} d={dataset.d} "
        f"missing_rate={dataset.missing_rate:.2f}"
    )

    # -- 1. cold (per-call table rebuild) vs warm (fingerprint-keyed cache)
    cold_seconds, cold_scores = best_of(args.repeats, cold_counts, dataset)
    warm_prepared = PreparedDataset(dataset)
    warm_prepared.tables(build=True)  # paid once, as the session cache does
    warm_seconds, warm_scores = best_of(
        args.repeats, dominated_counts, dataset, prepared=warm_prepared
    )
    if cold_scores.tolist() != warm_scores.tolist():
        print("FAIL: warm-cache counts disagree with per-call rebuild", file=sys.stderr)
        return 2
    warm_speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(f"  dominated_counts, rebuild per call : {cold_seconds * 1e3:9.1f} ms")
    print(f"  dominated_counts, warm cache       : {warm_seconds * 1e3:9.1f} ms")
    print(f"  warm-cache speedup                 : {warm_speedup:9.1f}x  (floor {args.min_warm_speedup:.1f}x)")

    # -- 2. dominance_matrix: packed mask route vs broadcast route
    broadcast_seconds, broadcast_matrix = best_of(
        args.repeats, dominance_matrix_blocked, dataset, route="broadcast"
    )
    bitset_seconds, bitset_matrix = best_of(
        args.repeats, dominance_matrix_blocked, dataset, route="bitset", prepared=warm_prepared
    )
    if not (bitset_matrix == broadcast_matrix).all():
        print("FAIL: bitset-route dominance matrix disagrees with broadcast", file=sys.stderr)
        return 2
    matrix_speedup = broadcast_seconds / bitset_seconds if bitset_seconds > 0 else float("inf")
    print(f"  dominance_matrix, broadcast route  : {broadcast_seconds * 1e3:9.1f} ms")
    print(f"  dominance_matrix, bitset route     : {bitset_seconds * 1e3:9.1f} ms")
    print(f"  mask-route speedup                 : {matrix_speedup:9.1f}x  (floor {args.min_matrix_speedup:.1f}x)")

    # -- 3. query_many workers parity (Fig. 13-style sweep)
    workers_identical = None
    if args.workers_n > 0:
        workers_identical = check_workers_parity(args.workers_n)
        verdict = "bit-identical" if workers_identical else "MISMATCH"
        print(f"  query_many workers=2 vs workers=1  : {verdict} (n={args.workers_n} sweep)")

    report = {
        "n": dataset.n,
        "d": dataset.d,
        "missing_rate": dataset.missing_rate,
        "cold_counts_s": cold_seconds,
        "warm_counts_s": warm_seconds,
        "warm_cache_speedup": warm_speedup,
        "matrix_broadcast_s": broadcast_seconds,
        "matrix_bitset_s": bitset_seconds,
        "matrix_speedup": matrix_speedup,
        "workers_parity": workers_identical,
        "floors": {
            "warm_cache_speedup": args.min_warm_speedup,
            "matrix_speedup": args.min_matrix_speedup,
        },
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {args.json}")

    if workers_identical is False:
        print("FAIL: parallel query_many differs from sequential", file=sys.stderr)
        return 2
    failed = False
    if warm_speedup < args.min_warm_speedup:
        print(
            f"FAIL: warm-cache speedup {warm_speedup:.2f}x below floor {args.min_warm_speedup}x",
            file=sys.stderr,
        )
        failed = True
    if matrix_speedup < args.min_matrix_speedup:
        print(
            f"FAIL: mask-route speedup {matrix_speedup:.2f}x below floor {args.min_matrix_speedup}x",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
