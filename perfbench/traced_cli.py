"""Run one ``repro`` CLI command with the layer calls timed.

Usage: ``python perfbench/traced_cli.py OUT.json <repro arguments...>``

The command runs exactly as ``python -m repro <arguments>`` would; the
per-layer times of the process (one unit) are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import time

import layers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder()
    start = time.perf_counter()
    import repro.cli

    recorder.add("import.cli_s", time.perf_counter() - start)
    layers.install(recorder)
    code = repro.cli.main(argv)
    sys.stdout.flush()
    record = recorder.snapshot()
    record["store_reads"] = recorder.store_reads
    record["store_hits"] = recorder.store_hits
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
