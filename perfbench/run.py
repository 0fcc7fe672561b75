"""The repository benchmark: three workloads, end-to-end and per layer.

Usage::

    python3 perfbench/run.py --workload cli_cold_200k --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/repro`` must exist). Every
workload is a single-client closed loop in fresh interpreters whose
``REPRO_*`` variables are cleared; the native library cache lives under
``.perfbench-work/`` in the checkout and is warmed before anything is
timed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it are a human-readable report with host metadata. See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Every per-process step is killed after this many seconds.
CHILD_TIMEOUT = 150
CLI_K = 10
#: Store-filling invocations per run; their median is the CLI set-up.
CLI_FILLS = 3
#: Session set-ups per run (fresh interpreters); the last one goes on to
#: the timed loop and their median is the session set-up.
SESSION_SETUPS = 3
MIN_SAMPLES = 3

END_TO_END = (
    ("op_a_p50_ms", "ms"),
    ("op_b_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit, phase). A timed layer's value is the median of its time
#: per unit over the units that called it, taken from set-up units when
#: *phase* is "setup" and any called it, else from timed operations (and
#: the other way round for "op"). Counters (phase None) come from the
#: program's own reports; a layer a workload never reaches reads 0.
PER_LAYER = (
    ("import.cli_s", "s", "setup"),
    ("core.dataset.from_csv_s", "s", "op"),
    ("core.dataset.ingest_s", "s", "setup"),
    ("engine.session.fingerprint_s", "s", "setup"),
    ("core.big.prepare_s", "s", "setup"),
    ("bitmap.index_bytes", "bytes", None),
    ("core.big.execute_s", "s", "op"),
    ("core.big.scored_fraction", "fraction", None),
    ("engine.planner.plan_s", "s", "op"),
    ("engine.planner.model_error", "ratio", None),
    ("engine.session.prepare_s", "s", "setup"),
    ("engine.session.result_hit_rate", "fraction", None),
    ("engine.partition.execute_s", "s", "op"),
    ("engine.partition.phase1_s", "s", None),
    ("engine.partition.phase2_s", "s", None),
    ("engine.partition.survival", "fraction", None),
    ("engine.partition.partitions", "count", None),
    ("engine.partition.monolithic_fallbacks", "count", None),
    ("engine.store.read_s", "s", "op"),
    ("engine.store.hit_rate", "fraction", None),
    ("engine.backend.select_s", "s", "setup"),
    ("engine.kernels.prepare_s", "s", "setup"),
    ("engine.kernels.score_all_s", "s", "setup"),
    ("engine.kernels.tables_ready", "count", None),
    ("engine.kernels.prepared_mb", "MB", None),
    ("core.delta.build_ms", "ms", "op"),
    ("engine.session.apply_insert_ms", "ms", "op"),
    ("engine.session.apply_update_ms", "ms", "op"),
    ("engine.session.apply_delete_ms", "ms", "op"),
    ("engine.session.tables_patched", "count", None),
    ("engine.session.tables_rebuilt", "count", None),
    ("engine.kernels.tombstone_debt", "fraction", None),
    ("engine.session.read_ms", "ms", "op"),
    ("attributed_fraction", "fraction", None),
    ("traced.op_a_p50_ms", "ms", None),
    ("traced.op_b_p50_ms", "ms", None),
)

_HOST_PROBE = """
import json, os, platform, numpy
import repro.cli
from repro.engine import backend
active = backend.get_backend()
print(json.dumps({
    "nproc": os.cpu_count(),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "backend": active.name,
    "native_build_mode": backend.native_build_mode(),
}))
"""


class BenchmarkError(RuntimeError):
    """A step of the benchmark could not run; no result is printed."""


class Context:
    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        WORK.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        tmp = self.run_dir / "tmp"
        tmp.mkdir()
        # This process imports repro too (to check answers), so it gets
        # the same clean environment as every child.
        for key in [key for key in os.environ if key.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_NATIVE_CACHE=str(WORK / "native"),
            XDG_CACHE_HOME=str(WORK / "xdg"),
            TMPDIR=str(tmp),
        )
        self.report: list[str] = []
        self.peak_rss_mb = 0.0
        self._spawned = 0

    def note(self, line: str) -> None:
        self.report.append(line)

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion: wall time, peak RSS, exit code, output."""
        self._spawned += 1
        stem = self.run_dir / f"child{self._spawned}"
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        return {
            "wall": wall,
            "rss_mb": rss_mb,
            "code": proc.returncode,
            "stdout": Path(f"{stem}.out").read_text(),
            "stderr": Path(f"{stem}.err").read_text(),
        }

    def spawn_ok(self, argv: list[str]) -> dict:
        child = self.spawn(argv)
        if child["code"] != 0:
            raise BenchmarkError(
                f"{' '.join(argv[:3])} exited {child['code']}: {child['stderr'][-2000:]}"
            )
        return child

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def _describe_input(ctx: Context, label: str, values: np.ndarray, sigma: float) -> None:
    ctx.note(
        f"input {label}: n={values.shape[0]} d={values.shape[1]} C={inputs.CARDINALITY} "
        f"sigma={sigma} realised_sigma={inputs.realised_sigma(values):.4f}"
    )


def _timing_line(name: str, values: list[float], unit: str, scale: float = 1.0) -> str:
    return f"  {name:<22} {_median(values) * scale:12.4f} {unit:<3} (median of {len(values)})"


# ---------------------------------------------------------------------------
# cli_cold_200k
# ---------------------------------------------------------------------------

_TABLE_HEADER = ["rank", "id", "row", "score"]


def _parse_cli(stdout: str):
    """(ids, rows, scores, scored, index_bytes) from ``repro query`` output."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split() == _TABLE_HEADER)
    ids, rows, scores = [], [], []
    for line in lines[start + 2 :]:
        if not line.strip():
            break
        _, object_id, row, score = line.split()
        ids.append(object_id)
        rows.append(int(row))
        scores.append(int(score))
    scored = re.search(r"scored=(\d+)", stdout)
    index = re.search(r"index=(\d+)B", stdout)
    return (
        ids,
        rows,
        scores,
        int(scored.group(1)) if scored else None,
        int(index.group(1)) if index else 0,
    )


def run_cli(ctx: Context) -> dict:
    n = 200_000
    values = inputs.generate(n, 0.2, np.random.default_rng([ctx.seed, 1]))
    _describe_input(ctx, "cli_cold_200k", values, 0.2)
    ids = [f"r{i}" for i in range(n)]
    csv_path = ctx.run_dir / "data.csv"
    inputs.write_csv(csv_path, values, ids)
    oracle = inputs.Oracle(values)
    reference = oracle.top_scores(CLI_K)

    sys.path.insert(0, str(ROOT / "src"))
    from repro import IncompleteDataset, score_one

    dataset = IncompleteDataset(values, ids=ids)
    exact: dict[int, tuple[int, int]] = {}

    def correct(stdout: str) -> bool:
        try:
            got_ids, rows, scores, _, _ = _parse_cli(stdout)
        except (StopIteration, ValueError):
            return False
        if any(not 0 <= row < n for row in rows) or got_ids != [ids[r] for r in rows]:
            return False
        for row in rows:
            if row not in exact:
                exact[row] = (int(oracle.scores([row])[0]), score_one(dataset, row))
        if any(exact[row][0] != exact[row][1] for row in rows):
            return False
        return inputs.check_answer(rows, scores, CLI_K, [exact[r][0] for r in rows], reference)

    counts = {"attempted": 0, "failed": 0}
    units: list[dict] = []
    store_reads = store_hits = 0

    def invoke(label: str, extra: list[str]) -> dict:
        nonlocal store_reads, store_hits
        command = ["query", str(csv_path), "--k", str(CLI_K), "--id-column", "id", *extra]
        unit_path = ctx.run_dir / f"unit{len(units)}.json"
        if ctx.trace:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(unit_path), *command]
        else:
            argv = [sys.executable, "-m", "repro", *command]
        child = ctx.spawn(argv)
        ctx.peak_rss_mb = max(ctx.peak_rss_mb, child["rss_mb"])
        counts["attempted"] += 1
        child["ok"] = child["code"] == 0 and correct(child["stdout"])
        counts["failed"] += not child["ok"]
        if ctx.trace and unit_path.exists():
            record = json.loads(unit_path.read_text())
            if label != "setup":  # store fills miss by construction
                store_reads += record["store_reads"]
                store_hits += record["store_hits"]
            record.update(label=label, wall=child["wall"])
            units.append(record)
        return child

    stores = [ctx.run_dir / f"store{i}" for i in range(CLI_FILLS)]
    fills = [invoke("setup", ["--store", str(store)])["wall"] for store in stores]

    cold, hit, parsed = [], [], []
    loop_start = time.perf_counter()
    while (
        time.perf_counter() - loop_start < ctx.seconds
        or min(len(cold), len(hit)) < MIN_SAMPLES
    ):
        if len(cold) <= len(hit):
            child = invoke("A", [])
            cold.append(child["wall"])
            if child["ok"]:
                parsed.append(_parse_cli(child["stdout"]))
        else:
            hit.append(invoke("B", ["--store", str(stores[-1])])["wall"])
    loop_s = time.perf_counter() - loop_start

    ctx.note(_timing_line("cli_query_s", cold, "s"))
    ctx.note(_timing_line("cli_store_hit_s", hit, "s"))
    ctx.note(_timing_line("setup_s (store fill)", fills, "s"))
    counters = {
        "core.big.scored_fraction": _median([p[3] / n for p in parsed if p[3] is not None]),
        "bitmap.index_bytes": _median([p[4] for p in parsed]),
        "engine.store.hit_rate": store_hits / store_reads if store_reads else 0.0,
    }
    return {
        "op_a": cold,
        "op_b": hit,
        "ops": len(cold) + len(hit),
        "loop_s": loop_s,
        "setup": fills,
        "units": units,
        "counters": counters,
        **counts,
    }


# ---------------------------------------------------------------------------
# session_20k_s08 and stream_20k (worker.py in fresh interpreters)
# ---------------------------------------------------------------------------


def _worker(ctx: Context, workload: str, *flags: str) -> tuple[dict, dict]:
    out = ctx.run_dir / f"{workload}-{ctx._spawned}.json"
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        workload,
        str(ctx.run_dir),
        str(out),
        "--seed",
        str(ctx.seed),
        "--seconds",
        str(ctx.seconds),
        "--trace",
        str(int(ctx.trace)),
        *flags,
    ]
    child = ctx.spawn_ok(argv)
    return json.loads(out.read_text()), child


def run_session(ctx: Context) -> dict:
    values = inputs.generate(20_000, 0.8, np.random.default_rng([ctx.seed, 1]))
    _describe_input(ctx, "session_20k_s08", values, 0.8)
    np.save(ctx.run_dir / "values.npy", values)
    scores = inputs.Oracle(values).all_scores()
    reference = sorted(scores.tolist(), reverse=True)

    setups = [
        _worker(ctx, "session", "--setup-only")[0]["setup_s"] for _ in range(SESSION_SETUPS - 1)
    ]
    result, child = _worker(ctx, "session")
    setups.append(result["setup_s"])
    ctx.peak_rss_mb = child["rss_mb"]

    failed = 0
    for request in result["requests"]:
        ok = request["error"] is None and inputs.check_answer(
            request["rows"], request["scores"], request["k"], scores[request["rows"]], reference
        )
        failed += not ok
    requests = result["requests"]
    class_a = [r for r in requests if r["class"] == "A"]
    class_b = [r for r in requests if r["class"] == "B"]
    partitioned = [r for r in class_b if r.get("algorithm") == "partitioned"]
    op_a = [r["latency"] for r in class_a]
    op_b = [r["latency"] for r in class_b]
    ctx.note(_timing_line("query_s", op_a, "s"))
    ctx.note(_timing_line("query_partitioned_s", op_b, "s"))
    ctx.note(_timing_line("setup_s", setups, "s"))

    big = [r for r in class_a if r.get("algorithm") == "big"]
    observations = result.get("observations", [])
    counters = {
        "core.big.scored_fraction": _median([r["scored"] / r["n"] for r in big]),
        "bitmap.index_bytes": _median([r["index_bytes"] for r in big]),
        "engine.planner.model_error": _median([m / e for e, m in observations if e > 0]),
        "engine.session.result_hit_rate": result["engine"]["hit_rate"],
        "engine.partition.phase1_s": _median([r["extra"]["phase1_seconds"] for r in partitioned]),
        "engine.partition.phase2_s": _median([r["extra"]["phase2_seconds"] for r in partitioned]),
        "engine.partition.survival": _median([r["extra"]["survival"] for r in partitioned]),
        "engine.partition.partitions": _median([r["extra"]["partitions"] for r in partitioned]),
        "engine.partition.monolithic_fallbacks": len(class_b) - len(partitioned),
    }
    return {
        "op_a": op_a,
        "op_b": op_b,
        "ops": len(requests),
        "loop_s": result["loop_s"],
        "setup": setups,
        "units": result.get("units", []),
        "counters": counters,
        "attempted": len(requests),
        "failed": failed,
    }


def run_stream(ctx: Context) -> dict:
    values = inputs.generate(20_000, 0.2, np.random.default_rng([ctx.seed, 1]))
    pool = inputs.generate(20_000, 0.2, np.random.default_rng([ctx.seed, 2]))
    _describe_input(ctx, "stream_20k", values, 0.2)
    np.save(ctx.run_dir / "values.npy", values)
    np.save(ctx.run_dir / "pool.npy", pool)

    result, child = _worker(ctx, "stream")
    ctx.peak_rss_mb = child["rss_mb"]
    writes = [seconds for _, seconds in result["writes"]]
    reads = result["reads"]
    beyond = int(np.sum(np.asarray(writes) > np.percentile(writes, 99)))
    ctx.note(_timing_line("write_p50_ms", writes, "ms", 1e3))
    ctx.note(
        f"  {'write_p99_ms':<22} {np.percentile(writes, 99) * 1e3:12.4f} ms  "
        f"({len(writes)} writes, {beyond} beyond p99)"
    )
    ctx.note(_timing_line("read_p50_ms", reads, "ms", 1e3))
    ctx.note(f"  {'setup_s':<22} {result['setup_s']:12.4f} s   (one set-up; see README)")
    ctx.note(
        f"  checks: {len(result['checks'])} sampled answers, final n={result['final_n']}"
    )
    engine = result["engine"]
    counters = {
        "engine.kernels.tables_ready": int(result["tables_ready"]),
        "engine.kernels.prepared_mb": result["prepared_mb"],
        "engine.session.tables_patched": engine["tables_patched"],
        "engine.session.tables_rebuilt": engine["tables_rebuilt"],
        "engine.kernels.tombstone_debt": result["tombstone_debt"],
        "engine.session.result_hit_rate": engine["hit_rate"],
    }
    ops = len(writes) + len(reads)
    return {
        "op_a": writes,
        "op_b": reads,
        "ops": ops,
        "loop_s": result["loop_s"],
        "setup": [result["setup_s"]],
        "units": result.get("units", []),
        "counters": counters,
        "attempted": ops,
        "failed": result["checks"].count(False),
    }


WORKLOADS = {
    "cli_cold_200k": run_cli,
    "session_20k_s08": run_session,
    "stream_20k": run_stream,
}


def end_to_end_metrics(ctx: Context, outcome: dict) -> dict:
    values = {
        "op_a_p50_ms": _median(outcome["op_a"]) * 1e3,
        "op_b_p50_ms": _median(outcome["op_b"]) * 1e3,
        "ops_per_s": outcome["ops"] / outcome["loop_s"],
        "setup_s": _median(outcome["setup"]),
        "peak_rss_mb": ctx.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(outcome: dict) -> dict:
    setup = [unit for unit in outcome["units"] if unit["label"] == "setup"]
    operations = [unit for unit in outcome["units"] if unit["label"] != "setup"]
    counters = {
        "attributed_fraction": layers.attributed_fraction(operations),
        "traced.op_a_p50_ms": _median(outcome["op_a"]) * 1e3,
        "traced.op_b_p50_ms": _median(outcome["op_b"]) * 1e3,
        **outcome["counters"],
    }
    metrics = {}
    for name, unit, phase in PER_LAYER:
        if phase is None:
            value = counters.get(name, 0)
        else:
            first, second = (setup, operations) if phase == "setup" else (operations, setup)
            value = layers.median_time(first, name) or layers.median_time(second, name)
            if unit == "ms":
                value *= 1e3
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    ctx = Context(args)
    try:
        host = json.loads(ctx.spawn_ok([sys.executable, "-c", _HOST_PROBE])["stdout"])
        ctx.note(
            f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        )
        ctx.note(
            f"host nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
            f"backend={host['backend']} native_build_mode={host['native_build_mode']} "
            f"machine={platform.machine()} commit={_git_commit()}"
        )
        outcome = WORKLOADS[args.workload](ctx)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        ctx.close()

    attempted, failed = outcome["attempted"], outcome["failed"]
    ctx.note(f"  {'error_rate':<22} {failed / attempted:12.4f}     ({failed} of {attempted})")
    ctx.note(f"  {'peak_rss_mb':<22} {ctx.peak_rss_mb:12.1f} MB")
    ctx.note(f"  {'ops_per_s':<22} {outcome['ops'] / outcome['loop_s']:12.4f} 1/s")
    metrics = per_layer_metrics(outcome) if ctx.trace else end_to_end_metrics(ctx, outcome)
    for line in ctx.report:
        print(line)
    if ctx.trace:
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
