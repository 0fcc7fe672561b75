"""The in-process workloads, each run in a fresh interpreter.

Usage: ``python perfbench/worker.py {session,stream} INPUT_DIR OUT.json
--seed N --seconds S --trace 0|1 [--setup-only]``

Reads the inputs ``run.py`` generated into ``INPUT_DIR`` and writes raw
timings, answers and counters to ``OUT.json``; ``run.py`` checks the
answers and turns the rest into metrics.
"""

from __future__ import annotations

import time

#: Set-up clocks start before numpy is imported: users pay that import too.
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402

import inputs
import layers

#: Warm-up k for the session: outside the timed k ranges, so no timed
#: request can hit the result it cached.
WARMUP_K = 5
#: Timed k values per class, as (centre, spread): requests take
#: ``centre - o`` and ``centre + o`` in turn for a seeded permutation of
#: offsets ``o``, so every k is distinct and the median k of any even
#: number of requests is the centre. The partitioned route's latency
#: grows with k, and this keeps the seed from moving its median.
CLASS_KS = {"A": (60, 12), "B": (24, 12)}
STREAM_K = 10
#: Writes between two stream answer checks (made outside timing).
CHECK_EVERY = 250
#: Minimum samples per operation class, even if --seconds runs out first.
MIN_SAMPLES = 3
#: Enough writes that at least ten lie beyond the write p99.
MIN_WRITES = 1100


def _import(recorder, trace: bool) -> None:
    import repro  # noqa: F401  (the package import every in-process user pays)

    recorder.add("import.cli_s", time.perf_counter() - _START)
    if trace:
        layers.install(recorder)


def _ingest(values, recorder):
    from repro import IncompleteDataset

    start = time.perf_counter()
    dataset = IncompleteDataset(values)
    recorder.add("core.dataset.ingest_s", time.perf_counter() - start)
    return dataset


def _stats(engine) -> dict:
    from dataclasses import asdict

    stats = asdict(engine.stats)
    stats["hit_rate"] = engine.stats.hit_rate
    return stats


def run_session(args, recorder) -> dict:
    """Warm QueryEngine; class A on the default route, class B with
    ``partitions="auto"``; every request a distinct k."""
    with recorder.unit("setup"):
        _import(recorder, args.trace)
        from repro import QueryEngine

        dataset = _ingest(np.load(os.path.join(args.input_dir, "values.npy")), recorder)
        engine = QueryEngine()
        engine.query(dataset, WARMUP_K)
    out = {"setup_s": time.perf_counter() - _START}
    if args.setup_only:
        return out

    ks = {}
    for klass, (centre, spread) in CLASS_KS.items():
        offsets = np.random.default_rng([args.seed, 3, ord(klass)]).permutation(spread) + 1
        ks[klass] = [centre + sign * int(o) for o in offsets for sign in (-1, 1)][::-1]
    observations_before = len(recorder.observations)
    requests = []
    loop_start = time.perf_counter()
    while ks["A"] and ks["B"]:
        count = {"A": 0, "B": 0}
        for request in requests:
            count[request["class"]] += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed >= args.seconds and min(count.values()) >= MIN_SAMPLES:
            break
        klass = "A" if count["A"] <= count["B"] else "B"
        k = ks[klass].pop()
        options = {} if klass == "A" else {"partitions": "auto"}
        with recorder.unit(klass) as record:
            begin = time.perf_counter()
            try:
                result = engine.query(dataset, k, **options)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            record["wall"] = latency = time.perf_counter() - begin
        entry = {"class": klass, "k": k, "latency": latency, "error": error}
        if result is not None:
            entry.update(
                rows=[int(r) for r in result.indices],
                scores=[int(s) for s in result.scores],
                algorithm=result.algorithm,
                scored=result.stats.scores_computed,
                n=result.stats.n,
                index_bytes=result.stats.index_bytes,
                extra={
                    key: value
                    for key, value in result.stats.extra.items()
                    if key in ("partitions", "survival", "phase1_seconds", "phase2_seconds")
                },
            )
        requests.append(entry)
    out["loop_s"] = time.perf_counter() - loop_start
    out["requests"] = requests
    out["engine"] = _stats(engine)
    out["observations"] = recorder.observations[observations_before:]
    return out


def _check_stream(live, pairs) -> bool:
    """Check a maintained top-k against the oracle and a fresh BIG answer."""
    from repro.core.query import make_algorithm

    dataset = live.dataset
    oracle = inputs.Oracle(dataset.values)
    reference = oracle.top_scores(STREAM_K)
    rows = [dataset.index_of(object_id) for object_id, _ in pairs]
    scores = [score for _, score in pairs]
    fresh = make_algorithm(dataset, "big").query(STREAM_K)
    return inputs.check_answer(
        rows, scores, STREAM_K, oracle.scores(rows), reference
    ) and sorted((int(s) for s in fresh.scores), reverse=True) == reference


def run_stream(args, recorder) -> dict:
    """One ContinuousQuery; single-row writes (40% update, 30% insert,
    30% delete), each followed by one top_k read."""
    with recorder.unit("setup"):
        _import(recorder, args.trace)
        from repro import QueryEngine

        dataset = _ingest(np.load(os.path.join(args.input_dir, "values.npy")), recorder)
        engine = QueryEngine()
        live = engine.continuous(dataset, k=STREAM_K)
    out = {
        "setup_s": time.perf_counter() - _START,
        "tables_ready": bool(live.prepared.tables_ready),
        "prepared_mb": live.prepared.nbytes / 2**20,
    }

    pool = np.load(os.path.join(args.input_dir, "pool.npy"))
    rng = np.random.default_rng([args.seed, 4])
    live_ids = list(dataset.ids)
    inserted = 0
    writes, reads, checks = [], [], []
    loop_s = 0.0
    while loop_s < args.seconds or len(writes) < MIN_WRITES:
        draw = rng.random()
        kind = "update" if draw < 0.4 else "insert" if draw < 0.7 else "delete"
        row = pool[len(writes) % len(pool)]
        recorder.kind = kind
        with recorder.unit(kind) as record:
            begin = time.perf_counter()
            if kind == "update":
                live.update({live_ids[rng.integers(len(live_ids))]: row.tolist()})
            elif kind == "insert":
                object_id = f"n{inserted}"
                inserted += 1
                live.insert(row[None, :], ids=[object_id])
                live_ids.append(object_id)
            else:
                slot = int(rng.integers(len(live_ids)))
                object_id = live_ids[slot]
                live_ids[slot] = live_ids[-1]
                live_ids.pop()
                live.delete([object_id])
            record["wall"] = write_s = time.perf_counter() - begin
        with recorder.unit("read") as record:
            begin = time.perf_counter()
            pairs = live.top_k(STREAM_K)
            record["wall"] = read_s = time.perf_counter() - begin
        writes.append((kind, write_s))
        reads.append(read_s)
        loop_s += write_s + read_s
        if len(writes) % CHECK_EVERY == 0:
            with recorder.pause():
                checks.append(_check_stream(live, pairs))
    with recorder.pause():
        checks.append(_check_stream(live, live.top_k(STREAM_K)))
    out.update(
        loop_s=loop_s,
        writes=writes,
        reads=reads,
        checks=checks,
        engine=_stats(engine),
        tombstone_debt=float(live.prepared.tombstone_debt),
        final_n=live.n,
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("session", "stream"))
    parser.add_argument("input_dir")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # Without --trace no wrapper is installed, so the recorder only holds
    # the import and ingest times the runners add themselves.
    recorder = layers.Recorder()
    runner = run_session if args.workload == "session" else run_stream
    out = runner(args, recorder)
    if args.trace:
        out["units"] = recorder.units
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
