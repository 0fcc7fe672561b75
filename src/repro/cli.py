"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the library's everyday workflow:

* ``query``    — answer a TKD query over a CSV file;
* ``stream``   — replay an insert/delete/update stream against a CSV
  dataset with continuously maintained top-k (the engine's incremental
  path: patched bitset tables, tombstoned deletes, score adjustments);
* ``info``     — dataset statistics (shape, missing rate, domains);
* ``generate`` — write one of the paper's workloads to CSV;
* ``compress`` — report codec sizes/ratios for a dataset's bitmap index
  (the Fig. 10 measurement, for any CSV);
* ``experiment`` — regenerate a paper figure/table (delegates to
  :mod:`repro.experiments.figures`);
* ``cache``    — inspect, clear, compact, or locate the persistent store
  (:mod:`repro.engine.store`);
* ``trace``    — summarise a span log recorded with ``--trace``
  (:mod:`repro.engine.telemetry`).

Examples::

    python -m repro generate ind --n 2000 --dim 8 --out data.csv
    python -m repro info data.csv
    python -m repro query data.csv --k 5 --algorithm big
    python -m repro query data.csv --sweep-k 4,8,16,32 --workers 2
    python -m repro query data.csv --k 5 --partitions 4 --workers 4
    python -m repro query data.csv --sweep-k 4,8,16,32 --store .repro-cache
    python -m repro stream data.csv --ops updates.csv --k 5 --every 100
    python -m repro cache stats --dir .repro-cache
    python -m repro cache compact --dir .repro-cache
    python -m repro compress data.csv --schemes wah,concise,roaring
    python -m repro experiment --experiment fig18 --scale 0.02
    python -m repro query data.csv --k 5 --partitions 8 --workers 4 --trace q.json
    python -m repro trace summary q.json
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import __version__
from .core.dataset import IncompleteDataset
from .core.query import available_algorithms, top_k_dominating
from .datasets.loader import DATASET_NAMES, load_dataset
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k dominating queries on incomplete data (Miao et al., TKDE 2016)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="answer a TKD query over a CSV file")
    query.add_argument("csv", help="input CSV (empty cells / '-' mean missing)")
    query.add_argument("--k", type=int, default=5, help="answer size (default 5)")
    query.add_argument(
        "--algorithm",
        default="big",
        choices=available_algorithms(),
        help="query algorithm (default big); 'auto' picks via the engine's cost model",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the cost-based plan (modelled per-algorithm costs) before the answer",
    )
    query.add_argument(
        "--sweep-k",
        default=None,
        metavar="K1,K2,...",
        help="answer a whole k-ladder as one QueryEngine batch (shared "
        "preparations; combine with --workers to shard across processes)",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes: shards a --sweep-k batch, or runs --partitions "
        "shards on a process pool (default: in-process)",
    )
    query.add_argument(
        "--partitions",
        default=None,
        metavar="P",
        help="answer through the partitioned engine: split the data into P "
        "shards with cross-partition upper-bound pruning ('auto' lets the "
        "planner price it); bit-identical to the monolithic answer",
    )
    query.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="resident-memory budget for shard tables (accepts K/M/G/T suffixes, "
        "default: $REPRO_MEMORY_BUDGET); partitioned queries whose tables "
        "exceed it run out-of-core from memory-mapped spill files",
    )
    query.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result/planner store directory (default: $REPRO_CACHE_DIR "
        "when set); repeated runs answer warm from disk",
    )
    query.add_argument("--id-column", default=None, help="column holding object ids")
    query.add_argument(
        "--directions",
        default="min",
        help="'min', 'max', or comma-separated per-dimension list",
    )
    query.add_argument("--no-header", action="store_true", help="CSV has no header row")
    query.add_argument(
        "--backend",
        default=None,
        choices=("auto", "numpy", "native"),
        help="kernel backend (default: $REPRO_BACKEND, else auto); backends are "
        "bit-identical — this only changes speed",
    )
    query.add_argument(
        "--native-threads",
        default=None,
        metavar="N",
        help="in-process threads for native kernels: a count or 'auto' "
        "(default: $REPRO_NATIVE_THREADS, else 1); bit-identical at any count",
    )
    query.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record hierarchical spans (coordinator and worker processes) "
        "and export them to PATH: '.jsonl' writes a JSON-lines span log, "
        "anything else Chrome trace_event JSON (Perfetto-loadable); "
        "'-' prints the per-phase summary instead of writing a file",
    )

    stream = commands.add_parser(
        "stream",
        help="replay an update stream with continuously maintained top-k",
    )
    stream.add_argument("csv", help="initial dataset CSV (empty cells / '-' mean missing)")
    stream.add_argument(
        "--ops",
        required=True,
        metavar="OPS_CSV",
        help="operations file, one per line: 'insert,<id>,v1,..,vd' | "
        "'delete,<id>' | 'update,<id>,v1,..,vd' (empty cell = missing)",
    )
    stream.add_argument("--k", type=int, default=5, help="answer size (default 5)")
    stream.add_argument(
        "--every",
        type=int,
        default=0,
        metavar="N",
        help="print the maintained top-k after every N operations (default: end only)",
    )
    stream.add_argument("--id-column", default=None, help="column holding object ids")
    stream.add_argument(
        "--directions",
        default="min",
        help="'min', 'max', or comma-separated per-dimension list",
    )
    stream.add_argument("--no-header", action="store_true", help="CSV has no header row")
    stream.add_argument(
        "--backend",
        default=None,
        choices=("auto", "numpy", "native"),
        help="kernel backend (default: $REPRO_BACKEND, else auto); backends are "
        "bit-identical — this only changes speed",
    )
    stream.add_argument(
        "--native-threads",
        default=None,
        metavar="N",
        help="in-process threads for native kernels: a count or 'auto' "
        "(default: $REPRO_NATIVE_THREADS, else 1); bit-identical at any count",
    )
    stream.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record hierarchical spans and export them to PATH "
        "(see 'query --trace')",
    )

    info = commands.add_parser("info", help="describe an incomplete CSV dataset")
    info.add_argument("csv")
    info.add_argument("--id-column", default=None)
    info.add_argument("--no-header", action="store_true")

    generate = commands.add_parser("generate", help="write a paper workload to CSV")
    generate.add_argument("dataset", choices=DATASET_NAMES)
    generate.add_argument("--n", type=int, default=None, help="object count override")
    generate.add_argument("--dim", type=int, default=10, help="dimensions (synthetic)")
    generate.add_argument("--cardinality", type=int, default=100)
    generate.add_argument("--missing-rate", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output CSV path")

    compress = commands.add_parser(
        "compress", help="measure bitmap-index compression for a CSV dataset"
    )
    compress.add_argument("csv")
    compress.add_argument("--id-column", default=None)
    compress.add_argument("--no-header", action="store_true")
    compress.add_argument(
        "--schemes",
        default="wah,concise,roaring",
        help="comma-separated codec names (default: all three)",
    )

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper figure/table (see repro.experiments)"
    )
    experiment.add_argument("--experiment", default="all")
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--csv", default=None)

    cache = commands.add_parser(
        "cache", help="inspect, clear, or compact the persistent fingerprint-keyed store"
    )
    cache.add_argument("action", choices=("stats", "clear", "path", "compact"))
    cache.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_CACHE_DIR)",
    )

    trace = commands.add_parser(
        "trace", help="summarise a span log recorded with 'query --trace'"
    )
    trace.add_argument("action", choices=("summary",))
    trace.add_argument(
        "path",
        help="span log written by --trace (JSONL span log or Chrome trace JSON)",
    )
    return parser


def _parse_directions(raw: str):
    if "," in raw:
        return [token.strip() for token in raw.split(",")]
    return raw


class _InputError(Exception):
    """The input CSV could not be loaded; reported in one line, exit 2."""


def _load_csv(args) -> IncompleteDataset:
    """Load ``args.csv``; a header whose first field is ``id`` (what
    ``to_csv`` and ``repro generate`` write) names the id column unless
    ``--id-column`` is given."""
    kwargs = {"has_header": not args.no_header}
    if args.id_column is not None:
        kwargs["id_column"] = args.id_column
    elif not args.no_header and _first_field(args.csv) == "id":
        kwargs["id_column"] = 0
    if getattr(args, "directions", None):
        kwargs["directions"] = _parse_directions(args.directions)
    try:
        return IncompleteDataset.from_csv(args.csv, **kwargs)
    except ReproError as error:
        raise _InputError(str(error)) from None


def _first_field(path) -> str | None:
    """First cell of the first non-blank CSV row of *path* (None if unreadable)."""
    try:
        with open(path, "r", newline="") as handle:
            first = next(filter(None, csv.reader(handle)), None)
    except (csv.Error, UnicodeDecodeError):
        return None
    return first[0] if first else None


def _select_backend(args) -> None:
    """Apply ``--backend`` / ``--native-threads`` (process-wide; before
    any kernel runs)."""
    if getattr(args, "backend", None) is not None:
        from .engine.backend import select_backend

        select_backend(args.backend)
        # Pool workers resolve their backend from the environment.
        os.environ["REPRO_BACKEND"] = args.backend
    if getattr(args, "native_threads", None) is not None:
        from .engine.backend import set_native_threads

        set_native_threads(args.native_threads)
        # Pool workers apply the same thread count when they load the
        # native library.
        os.environ["REPRO_NATIVE_THREADS"] = str(args.native_threads)


def _start_trace(args) -> None:
    """Apply ``--trace`` (process-wide, like ``--backend``)."""
    if getattr(args, "trace", None) is None:
        return
    from .engine import telemetry

    telemetry.set_enabled(True)
    # Pool workers re-enable collection from the propagated context, but
    # the env var keeps freshly spawned interpreters consistent too.
    os.environ["REPRO_TRACE"] = "1"


def _finish_trace(args) -> None:
    """Export (or summarise) the spans a traced command collected."""
    path = getattr(args, "trace", None)
    if path is None:
        return
    from .engine import telemetry

    spans = telemetry.drain_spans()
    if path == "-":
        print()
        print(telemetry.render_summary(spans))
        return
    count = telemetry.export_trace(spans, path)
    kind = "JSONL span log" if str(path).endswith(".jsonl") else "Chrome trace"
    print(f"trace: wrote {count} spans to {path} ({kind})")


def _cmd_query(args) -> int:
    _select_backend(args)
    _start_trace(args)
    code = _run_query(args)
    if code == 0:
        _finish_trace(args)
    return code


def _run_query(args) -> int:
    dataset = _load_csv(args)
    if args.memory_budget is not None and args.partitions is None:
        print(
            "error: --memory-budget requires --partitions "
            "(only sharded queries spill; monolithic queries never consult it)",
            file=sys.stderr,
        )
        return 2
    if args.sweep_k is not None:
        if args.partitions is not None:
            print("error: --partitions applies to single queries, not --sweep-k", file=sys.stderr)
            return 2
        return _run_sweep(args, dataset)
    if args.partitions is not None:
        return _run_partitioned(args, dataset)
    if args.workers is not None:
        print(
            "error: --workers requires --sweep-k or --partitions "
            "(single queries run in-process)",
            file=sys.stderr,
        )
        return 2
    if args.explain:
        from .engine.planner import explain_plan

        print(explain_plan(dataset, args.k))
        if args.algorithm != "auto":
            print(f"(plan not applied: --algorithm {args.algorithm} was given explicitly)")
    store_dir = args.store if args.store is not None else os.environ.get("REPRO_CACHE_DIR")
    if store_dir or args.trace is not None:
        # A store makes even one-shot queries engine-backed, so repeated
        # CLI invocations answer warm from disk; tracing is engine-backed
        # too (the spans live on the engine's query path).
        from .engine.session import QueryEngine

        engine = QueryEngine(store=store_dir or None)
        result = engine.query(dataset, args.k, algorithm=args.algorithm)
        engine.flush()
        print(result.as_table())
        print()
        print(result.stats.summary())
        print(engine.stats.summary())
        return 0
    result = top_k_dominating(dataset, args.k, algorithm=args.algorithm)
    print(result.as_table())
    print()
    print(result.stats.summary())
    return 0


def _run_partitioned(args, dataset) -> int:
    """``query --partitions``: the engine's two-phase sharded route."""
    from .engine.session import QueryEngine

    partitions = args.partitions
    if isinstance(partitions, str) and partitions.lower() != "auto":
        try:
            partitions = int(partitions)
        except ValueError:
            print(
                f"error: --partitions expects an integer or 'auto', got {partitions!r}",
                file=sys.stderr,
            )
            return 2
    store_dir = args.store if args.store is not None else os.environ.get("REPRO_CACHE_DIR")
    from .engine.session import parse_memory_budget

    try:
        budget = parse_memory_budget(args.memory_budget)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = QueryEngine(store=store_dir or None, memory_budget=budget)
    if args.explain:
        from .engine.planner import plan_partitioned

        print(
            plan_partitioned(
                dataset.n,
                dataset.d,
                dataset.missing_rate,
                args.k,
                partitions=None if isinstance(partitions, str) else partitions,
                workers=args.workers,
                memory_budget=engine.memory_budget,
            ).summary()
        )
    result = engine.query(dataset, args.k, partitions=partitions, workers=args.workers)
    engine.flush()
    print(result.as_table())
    print()
    extra = result.stats.extra
    if "partitions" in extra:
        print(
            f"partitions={extra['partitions']} workers={extra.get('workers', 0)} "
            f"candidates={result.stats.candidates} "
            f"(survival {extra.get('survival', 0.0):.1%}, tau={extra.get('tau')})"
        )
    print(result.stats.summary())
    print(engine.stats.summary())
    return 0


def _run_sweep(args, dataset) -> int:
    """``query --sweep-k``: one QueryEngine batch, optionally sharded."""
    from .engine.session import QueryEngine

    try:
        ks = [int(token) for token in args.sweep_k.split(",") if token.strip()]
    except ValueError:
        print(f"error: --sweep-k expects comma-separated integers, got {args.sweep_k!r}", file=sys.stderr)
        return 2
    if not ks:
        print("error: --sweep-k got no k values", file=sys.stderr)
        return 2
    engine = QueryEngine(store=args.store)
    if args.explain:
        print(engine.plan(dataset, ks[0], repeats=len(ks)).summary())
    results = engine.query_many(
        [(dataset, k) for k in ks], algorithm=args.algorithm, workers=args.workers
    )
    for k, result in zip(ks, results):
        answer = "  ".join(f"{oid}({score})" for oid, score in zip(result.ids, result.scores))
        print(f"k={k:<4d} {answer}")
    print()
    print(engine.stats.summary())
    if engine.store is not None:
        print(engine.store.stats.summary())
    return 0


def _cmd_stream(args) -> int:
    """``repro stream``: the engine's incremental path over an ops file."""
    import csv as csv_module

    from .engine.session import QueryEngine

    _select_backend(args)
    _start_trace(args)
    dataset = _load_csv(args)
    engine = QueryEngine()
    live = engine.continuous(dataset, k=args.k)
    print(f"seeded stream with {live.n} x {live.d} objects from {args.csv}")

    with open(args.ops, "r", newline="") as handle:
        operations = [row for row in csv_module.reader(handle) if row]
    applied = 0
    for row in operations:
        op = row[0].strip().lower()
        if op not in ("insert", "delete", "update") or len(row) < 2:
            print(
                f"error: malformed stream op {','.join(row)!r} (line {applied + 1}); "
                "expected 'insert,<id>,v1,..' | 'delete,<id>' | 'update,<id>,v1,..'",
                file=sys.stderr,
            )
            return 2
        if op == "insert":
            object_id = row[1].strip() or None
            live.insert([row[2:]], ids=None if object_id is None else [object_id])
        elif op == "delete":
            live.delete([row[1].strip()])
        else:
            live.update({row[1].strip(): row[2:]})
        applied += 1
        if args.every and applied % args.every == 0:
            answer = "  ".join(f"{oid}({score})" for oid, score in live.top_k(args.k))
            print(f"[{applied:>6}] n={live.n:<7} top-{args.k}: {answer}")

    print(f"applied {applied} operations (n={live.n}, "
          f"tombstone debt {live.prepared.tombstone_debt:.0%})")
    print(live.result(args.k).as_table())
    print()
    print(engine.stats.summary())
    _finish_trace(args)
    return 0


def _cmd_info(args) -> int:
    args.directions = None
    dataset = _load_csv(args)
    print(f"objects:       {dataset.n}")
    print(f"dimensions:    {dataset.d}")
    print(f"missing rate:  {dataset.missing_rate:.3f}")
    print(f"buckets:       {len(set(dataset.patterns))} distinct observed patterns")
    for dim, name in enumerate(dataset.dim_names):
        print(
            f"  {name:>14}: {dataset.dimension_cardinality(dim):>7} distinct, "
            f"{dataset.missing_count(dim):>7} missing"
        )
    return 0


def _cmd_generate(args) -> int:
    kwargs = dict(
        seed=args.seed,
        dim=args.dim,
        cardinality=args.cardinality,
        missing_rate=args.missing_rate,
    )
    if args.n is not None:
        paper_n = {"movielens": 3700, "nba": 16000, "zillow": 200000}.get(args.dataset, 100000)
        kwargs["scale"] = args.n / paper_n
    dataset = load_dataset(args.dataset, **kwargs)
    dataset.to_csv(args.out)
    print(f"wrote {dataset.n} x {dataset.d} {args.dataset} dataset "
          f"(missing rate {dataset.missing_rate:.3f}) to {args.out}")
    return 0


def _cmd_compress(args) -> int:
    from .bitmap.compression import compress_index
    from .bitmap.index import BitmapIndex

    args.directions = None
    dataset = _load_csv(args)
    index = BitmapIndex(dataset)
    print(f"bitmap index over {dataset.n} x {dataset.d} ({dataset.missing_rate:.1%} missing)")
    print(f"{'scheme':>8}  {'bytes':>12}  {'ratio':>7}  {'seconds':>8}")
    for scheme in (token.strip() for token in args.schemes.split(",") if token.strip()):
        report = compress_index(index, scheme)
        print(
            f"{report.scheme:>8}  {report.compressed_bytes:>12}  "
            f"{report.ratio:>7.3f}  {report.seconds:>8.3f}"
        )
    return 0


def _cmd_experiment(args) -> int:
    from .experiments.figures import EXPERIMENTS, _all_experiments, run_experiment

    catalog = _all_experiments()
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment == "ext-all":
        names = [name for name in catalog if name.startswith("ext-")]
    else:
        names = [args.experiment]
    for name in names:
        if name not in catalog:
            print(f"unknown experiment {name!r}; available: {', '.join(catalog)}")
            return 2
        run_experiment(name, scale=args.scale, seed=args.seed, csv_path=args.csv)
        print()
    return 0


def _cmd_cache(args) -> int:
    from .engine.store import PersistentStore

    directory = args.dir if args.dir is not None else os.environ.get("REPRO_CACHE_DIR")
    if not directory:
        print(
            "error: no store directory; pass --dir DIR or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    store = PersistentStore(directory)
    if args.action == "path":
        print(store.path)
    elif args.action == "clear":
        entries = len(store)
        store.clear()
        print(f"cleared {entries} result entries (and planner calibration) at {store.path}")
    elif args.action == "compact":
        report = store.compact()
        print(
            f"compacted {store.path}: "
            f"{report['result_evictions']} result entries evicted, "
            f"{report['prepared_evictions']} prepared tables evicted, "
            f"{report['orphans_removed']} orphan files removed, "
            f"{report['lineage_pruned']} lineage records pruned"
        )
        print(
            f"now {report['result_bytes']} result bytes, "
            f"{report['prepared_bytes']} prepared bytes"
        )
    else:  # stats
        print(store.summary())
        for entry in sorted(
            store.entries(), key=lambda e: e["rebuild_seconds"], reverse=True
        )[:20]:
            fingerprint, k, algorithm, _options = entry["key"]
            print(
                f"  {algorithm:>6} k={k:<4d} {entry['bytes']:>7}B "
                f"rebuild={entry['rebuild_seconds'] * 1e3:.2f}ms  {fingerprint[:12]}…"
            )
    return 0


def _cmd_trace(args) -> int:
    """``repro trace summary``: the per-phase latency table for a span log."""
    from .engine import telemetry

    try:
        spans = telemetry.load_spans(args.path)
    except (OSError, ValueError) as error:
        print(f"error: cannot read span log {args.path!r}: {error}", file=sys.stderr)
        return 1
    if not spans:
        print(f"error: no spans in {args.path}", file=sys.stderr)
        return 1
    print(telemetry.render_summary(spans))
    return 0


_COMMANDS = {
    "query": _cmd_query,
    "stream": _cmd_stream,
    "info": _cmd_info,
    "generate": _cmd_generate,
    "compress": _cmd_compress,
    "experiment": _cmd_experiment,
    "cache": _cmd_cache,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
