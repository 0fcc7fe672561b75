#!/usr/bin/env python
"""SIMD dispatch + native threading acceptance benchmark.

Measures the fused gather+AND+popcount accumulator pass (the universal
hot loop behind ``dominated_counts`` and ``foreign_dominated_counts``)
under every SIMD route the host supports, single-threaded and at
``--threads``, against two references: the *genuinely scalar* native
route (auto-vectorisation is disabled on the scalar twins, so this is
the honest pre-SIMD baseline) and numpy.

Three floors, each enforced:

1. ``--min-simd-speedup`` — best vector route at 1 thread over scalar at
   1 thread.  Pure ISA win; independent of core count.
2. ``--min-total-speedup`` — best route at ``--threads`` over scalar at
   1 thread.  SIMD x threading combined; the default floor is
   host-aware (multicore hosts must clear 2.5x, a single-core container
   can only demonstrate the SIMD term).
3. ``--min-numpy-speedup`` — best route at ``--threads`` over numpy.
   Host-aware for the same reason (15x multicore, 4x single-core).

Every measured combination is gated on **bit-identical parity** with
numpy; any disagreement exits 2.  The report records the host shape
(CPU count, build mode, routes) and the floors actually enforced, so a
committed ``BENCH_simd.json`` is interpretable on its own.

Run:  PYTHONPATH=src python benchmarks/bench_engine_simd.py
      PYTHONPATH=src python benchmarks/bench_engine_simd.py \
          --n 4096 --repeats 1 --min-simd-speedup 0.8 \
          --min-total-speedup 0.8 --min-numpy-speedup 0.8  # CI smoke

Writes ``--json`` (default ``benchmarks/BENCH_simd.json``). Exits 1 when
a floor is missed, 2 on a parity mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.engine.backend import (
    _cpu_count,
    native_available,
    native_build_error,
    native_build_mode,
    set_simd_route,
    simd_routes,
    use_backend,
    use_native_threads,
    use_simd_route,
)
from repro.datasets.synthetic import independent_dataset
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
        "--threads",
        type=int,
        default=4,
        help="native thread count for the threaded measurement",
    )
    parser.add_argument(
        "--min-simd-speedup",
        type=float,
        default=None,
        help="floor for scalar-1T / best-vector-1T (default 1.3 when a "
        "vector route exists, else 1.0)",
    )
    parser.add_argument(
        "--min-total-speedup",
        type=float,
        default=None,
        help="floor for scalar-1T / best-route-at---threads (default 2.5 "
        "with >=4 usable cores, else 1.3)",
    )
    parser.add_argument(
        "--min-numpy-speedup",
        type=float,
        default=None,
        help="floor for numpy / best-route-at---threads (default 15.0 "
        "with >=4 usable cores, else 4.0)",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(__file__), "BENCH_simd.json"),
    )
    args = parser.parse_args()

    if not native_available():
        print(f"native backend unavailable: {native_build_error()}", file=sys.stderr)
        return 1

    routes = simd_routes()
    vector_routes = [r for r in routes if r != "scalar"]
    best_route = set_simd_route("auto")
    cpus = _cpu_count()
    multicore = cpus >= max(4, args.threads)
    min_simd = (
        args.min_simd_speedup
        if args.min_simd_speedup is not None
        else (1.3 if vector_routes else 1.0)
    )
    min_total = (
        args.min_total_speedup
        if args.min_total_speedup is not None
        else (2.5 if multicore else 1.3)
    )
    min_numpy = (
        args.min_numpy_speedup
        if args.min_numpy_speedup is not None
        else (15.0 if multicore else 4.0)
    )

    dataset = independent_dataset(args.n, args.d, missing_rate=args.missing_rate, seed=0)
    n = dataset.n
    prepared = PreparedDataset(dataset)
    print(
        f"workload: n={n} d={dataset.d} σ={args.missing_rate} | host: {cpus} "
        f"cpu(s), build '{native_build_mode()}', routes {'/'.join(routes)}, "
        f"auto -> {best_route}"
    )
    # The tables the default route builds (value-keyed, under the budget).
    tables = prepared.tables()
    if tables is None:
        print("FAIL: the default route refused the bitset tables", file=sys.stderr)
        return 1
    print(f"bitset tables: {tables.nbytes / 1e6:.1f}MB")

    with use_backend("numpy") as backend:
        numpy_s, reference = _best_of(
            args.repeats,
            lambda b=backend: _accumulator_pass(b, tables, prepared.lo, prepared.hi, n),
        )
    print(f"numpy reference: {numpy_s * 1e3:.0f}ms")

    # every route at 1 thread, plus the best route at --threads
    combos = [(route, 1) for route in routes]
    if (best_route, args.threads) not in combos:
        combos.append((best_route, args.threads))
    measured: dict[str, float] = {}
    with use_backend("native") as backend:
        for route, count in combos:
            with use_simd_route(route), use_native_threads(count) as effective:
                seconds, counts = _best_of(
                    args.repeats,
                    lambda b=backend: _accumulator_pass(
                        b, tables, prepared.lo, prepared.hi, n
                    ),
                )
            if not np.array_equal(counts, reference):
                print(
                    f"FAIL: {route} x {count} thread(s) disagrees with numpy",
                    file=sys.stderr,
                )
                return 2
            key = f"{route}:t{count}"
            measured[key] = seconds
            print(
                f"  {route:>7} x {effective} thread(s): {seconds * 1e3:6.1f}ms "
                f"({numpy_s / seconds:5.2f}x numpy)"
            )

    scalar_s = measured["scalar:t1"]
    best_1t = min(measured[f"{r}:t1"] for r in routes)
    threaded_key = f"{best_route}:t{args.threads}"
    threaded_s = measured.get(threaded_key, measured[f"{best_route}:t1"])
    simd_speedup = scalar_s / best_1t if vector_routes else 1.0
    total_speedup = scalar_s / threaded_s
    numpy_speedup = numpy_s / threaded_s
    print(
        f"simd {simd_speedup:.2f}x (floor {min_simd:.1f}x) | "
        f"simd+threads {total_speedup:.2f}x (floor {min_total:.1f}x) | "
        f"vs numpy {numpy_speedup:.2f}x (floor {min_numpy:.1f}x)"
    )

    payload = {
        "n": n,
        "d": dataset.d,
        "missing_rate": args.missing_rate,
        "chunk": _row_step(tables.words),
        "table_bytes": tables.nbytes,
        "cpu_count": cpus,
        "build_mode": native_build_mode(),
        "routes": routes,
        "best_route": best_route,
        "threads": args.threads,
        "numpy_seconds": numpy_s,
        "seconds": measured,
        "simd_speedup": simd_speedup,
        "total_speedup": total_speedup,
        "numpy_speedup": numpy_speedup,
        "min_simd_speedup": min_simd,
        "min_total_speedup": min_total,
        "min_numpy_speedup": min_numpy,
    }
    with open(args.json, "w") as out:
        json.dump(payload, out, indent=2)
    print(f"wrote {args.json}")

    failed = False
    for label, value, floor in (
        ("simd", simd_speedup, min_simd),
        ("simd+threads", total_speedup, min_total),
        ("numpy", numpy_speedup, min_numpy),
    ):
        if value < floor:
            print(
                f"FAIL: {label} speedup {value:.2f}x below the {floor:.1f}x floor",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
