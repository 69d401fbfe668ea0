"""Determinism self-test of the benchmark.

For every workload, runs a fixed number of rounds twice with one seed
and once with another, in both trace modes, and checks that

* the two same-seed runs report exactly equal counts -- the points per
  answer, request and reply bytes, WAL bytes per row, fsyncs per batch
  and stored bytes per row -- and the same input digest;
* the other seed generates different inputs.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every comparison holds.  Timings are not compared: they
are the only part of a run that may differ.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench"

#: Rounds per workload: one crash point each, so stored bytes exist.
ROUNDS = {
    "serve_cold_large": 11,
    "ingest_durable": 5,
    "cluster_scatter": 31,
}

COUNTS = {
    0: ("stored_bytes_per_row",),
    1: (
        "engine.points_per_answer",
        "serving.request_bytes",
        "serving.reply_bytes",
        "persist.wal_bytes_per_row",
        "persist.fsyncs_per_batch",
    ),
}


def run(workload: str, seed: int, trace: int) -> dict:
    """One fixed-round run; returns its result file."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--rounds",
        str(ROUNDS[workload]),
        "--trace",
        str(trace),
    ]
    subprocess.run(command, check=True, capture_output=True, cwd=ROOT)
    path = RESULTS / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    problems = []
    for workload in ROUNDS:
        for trace, names in COUNTS.items():
            first = run(workload, 101, trace)
            second = run(workload, 101, trace)
            other = run(workload, 202, trace)
            for result in (first, second, other):
                if not result["correct"]:
                    problems.append(f"{workload} trace={trace}: a check failed")
            for name in names:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                status = "equal" if a == b else "DIFFERENT"
                print(f"{workload} {name}: {a!r} vs {b!r} {status}")
                if a != b:
                    problems.append(f"{workload} {name}: {a!r} != {b!r}")
            digests = [r["context"]["inputs_sha256"] for r in (first, second, other)]
            if digests[0] != digests[1]:
                problems.append(f"{workload}: one seed gave two input digests")
            if digests[0] == digests[2]:
                problems.append(f"{workload}: two seeds gave one input digest")
    for problem in problems:
        print(f"FAIL {problem}")
    print("determinism self-test:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
