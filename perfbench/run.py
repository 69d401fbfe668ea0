"""The repository benchmark: one workload, one seed, one closed loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_cold_large --seed 1 \\
        --seconds 35 --trace 0

An untraced run is split into ``LEGS`` legs, each a child process that
sets up the workload once (``setup_s`` is the median over the legs) and
then runs rounds of the workload's op script for its share of
``--seconds``, crash-stopping and recovering every few rounds; the
parent pools what the legs measured.  Every time measured is scaled
to a reference host speed by host probes around it (see ``drive``).
It prints the run context, attempted/failed counts per op, every
correctness check, and the metrics with their units; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when a check or an op failed.

``--trace 1`` runs one leg in this process instead, with span wrappers
installed on odd rounds.  Its metrics are the per-layer ones, plus the
tracing overhead measured against the even, untraced rounds; the spans
are written under ``.perfbench/``.

``--rounds N`` makes every leg run N rounds instead of a timed window
(the determinism self-test uses it).  Either way a leg lasts at least
until its first crash/recover cycle.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"
#: Processes an untraced run is split into.  Each leg sets up once and
#: measures its share of the window; ``setup_s`` is the median of the
#: legs' set-ups.
LEGS = 3
WORKLOADS = ("serve_cold_large", "ingest_durable", "cluster_scatter")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    # A leg of an untraced run: its number, and where to write its ledger.
    parser.add_argument("--leg", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--leg-output", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _workload(name: str, seed: int, recorder):
    from served import IngestDurable, ServeColdLarge
    from sharded import ClusterScatter

    classes = {cls.name: cls for cls in (ServeColdLarge, IngestDurable, ClusterScatter)}
    return classes[name](seed, recorder)


def drive(workload, ledger, recorder, directory: Path, leg: int, seconds: float, rounds: int | None) -> None:
    """One leg: set up, run the window, measure memory, tear down.

    Every set-up, round and crash/recover cycle is bracketed by host
    probes, and the times it measured are scaled to the reference host
    speed (``RunLedger.end_round``).
    """
    from harness import host_scale, peak_rss_mb, probe_seconds, process_tree

    probe = probe_seconds()
    started = perf_counter()
    workload.setup(directory, ledger, leg)
    elapsed = perf_counter() - started
    previous, probe = probe, probe_seconds()
    ledger.setup_seconds.append(elapsed * host_scale(previous, probe))
    window = perf_counter()
    index = 0
    while True:
        traced = recorder is not None and index % 2 == 1
        if traced:
            recorder.install()
            recorder.enabled = True
        ledger.begin_round()
        started = perf_counter()
        try:
            workload.round(index, traced)
        finally:
            elapsed = perf_counter() - started
            if traced:
                recorder.enabled = False
                recorder.remove()
        previous, probe = probe, probe_seconds()
        ledger.end_round(elapsed, host_scale(previous, probe))
        index += 1
        if index % workload.crash_every == 0:
            workload.crash(index // workload.crash_every - 1)
            previous, probe = probe, probe_seconds()
            ledger.recovery_seconds[-1] *= host_scale(previous, probe)
        # Every leg ends after at least one crash/recover cycle.
        if not ledger.recovery_seconds:
            continue
        if rounds is not None:
            if index >= rounds:
                break
        elif perf_counter() - window >= seconds:
            break
    ledger.peak_rss_mb = peak_rss_mb(process_tree())
    workload.teardown()


def run_leg(args: argparse.Namespace, recorder) -> tuple[object, object]:
    """Run one leg in this process; returns ``(workload, ledger)``."""
    from harness import RunLedger

    workload = _workload(args.workload, args.seed, recorder)
    ledger = RunLedger()
    directory = OUTPUT / f"run-{os.getpid()}"
    seconds = args.seconds if recorder is not None else args.seconds / LEGS
    try:
        with recorder if recorder is not None else contextlib.nullcontext():
            drive(workload, ledger, recorder, directory, args.leg, seconds, args.rounds)
    finally:
        workload.close()
        shutil.rmtree(directory, ignore_errors=True)
    return workload, ledger


def run_legs(args: argparse.Namespace) -> tuple[object, dict]:
    """Run ``LEGS`` child legs one after another and pool them; returns
    the pooled ledger and the first leg's workload context."""
    from harness import RunLedger

    ledger = RunLedger()
    contexts = []
    for leg in range(LEGS):
        path = OUTPUT / f"leg-{os.getpid()}-{leg}.json"
        command = [sys.executable, __file__, *_leg_arguments(args), "--leg", str(leg), "--leg-output", str(path)]
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        output = json.loads(path.read_text())
        path.unlink()
        ledger.absorb(output["ledger"])
        contexts.append(output["context"])
    return ledger, contexts[0]


def _leg_arguments(args: argparse.Namespace) -> list[str]:
    arguments = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.rounds is not None:
        arguments += ["--rounds", str(args.rounds)]
    return arguments


def per_layer(workload, ledger, table) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run as ``name -> (value, unit)``."""
    import numpy as np

    from harness import shard_quantile

    requests = max(table.requests, 1)
    queries = max(table.queries, 1)
    per_request = lambda name: table.self_time[name] / requests * 1e6  # noqa: E731
    mean_duration_ms = lambda name: (  # noqa: E731
        table.duration[name] / table.calls[name] * 1e3 if table.calls[name] else 0.0
    )
    is_query = lambda op: op.startswith("query")  # noqa: E731
    ingests = table.roots["ingest"]
    queue_total, queue_count = (
        workload.queue_wait() if hasattr(workload, "queue_wait") else (0.0, 0)
    )
    hits, misses = workload.cache_stats() if hasattr(workload, "cache_stats") else (0, 0)
    replay_seconds = sum(ledger.recovery_seconds)
    traced = np.asarray(ledger.op_latencies(("query",), traced=True))
    untraced = np.asarray(ledger.op_latencies(("query",), traced=False))
    overhead = (np.percentile(traced, 50) / np.percentile(untraced, 50) - 1.0) * 100
    histograms = (
        workload.shard_query_histograms()
        if hasattr(workload, "shard_query_histograms")
        else []
    )
    unattributed = sum(v for op, v in table.unattributed.items() if is_query(op))
    points_calls = table.count("sample_points_calls")
    return {
        "serving.frame_decode_us": (per_request("serving.frame_decode"), "us"),
        "serving.codec_us": (per_request("serving.codec"), "us"),
        "serving.request_bytes": (table.count("request_bytes", is_query) / queries, "count"),
        "serving.reply_bytes": (table.count("reply_bytes", is_query) / queries, "count"),
        "serving.queue_wait_us": (
            queue_total / queue_count * 1e6 if queue_count else 0.0,
            "us",
        ),
        "serving.unattributed_us": (unattributed / queries * 1e6, "us"),
        "engine.answer_us": (table.mean_self_us("engine.answer"), "us"),
        "engine.sample_points_us": (table.mean_self_us("engine.sample_points"), "us"),
        "engine.points_per_answer": (
            table.count("points") / points_calls if points_calls else 0.0,
            "count",
        ),
        "engine.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "engine.pin_ms": (mean_duration_ms("engine.pin"), "ms"),
        "engine.load_batch_us_per_krow": (
            table.per_krow_us("engine.load_batch", "load_rows"),
            "us",
        ),
        "engine.relation_insert_us_per_krow": (
            table.per_krow_us("engine.relation_insert", "relation_rows"),
            "us",
        ),
        "estimators.estimate_us": (table.mean_self_us("estimators.estimate"), "us"),
        "hotlist.report_us": (table.mean_self_us("hotlist.report"), "us"),
        "core.insert_array_us_per_krow": (
            table.per_krow_us("core.insert_array", "insert_rows"),
            "us",
        ),
        "persist.wal_append_us": (table.mean_self_us("persist.wal_append"), "us"),
        "persist.fsyncs_per_batch": (
            table.count("fsyncs", lambda op: op == "ingest") / ingests if ingests else 0.0,
            "count",
        ),
        "persist.checkpoint_ms": (mean_duration_ms("persist.checkpoint"), "ms"),
        "persist.wal_bytes_per_row": (
            table.count("wal_bytes", lambda op: op == "ingest") / table.count("load_rows")
            if table.count("load_rows")
            else 0.0,
            "count",
        ),
        "persist.replay_rows_per_s": (
            sum(ledger.replayed_rows) / replay_seconds if replay_seconds else 0.0,
            "rows/s",
        ),
        "cluster.routed_us": (table.root_mean_us("query.routed"), "us"),
        "cluster.scatter_us": (table.root_mean_us("query.scatter"), "us"),
        "cluster.shard_query_p50_us": (shard_quantile(histograms, 0.5) * 1e6, "us"),
        "cluster.gather_us": (table.mean_self_us("cluster.gather"), "us"),
        "cluster.partition_us_per_krow": (
            table.per_krow_us("cluster.partition", "partition_rows"),
            "us",
        ),
        "cluster.load_batch_ms": (mean_duration_ms("cluster.load_batch"), "ms"),
        "obs.trace_overhead_pct": (float(overhead), "%"),
    }


def _context(workload_context: dict, ledger, args: argparse.Namespace) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "legs": 1 if args.trace else LEGS,
        "host_scale_quartiles": [round(q, 4) for q in statistics.quantiles(ledger.scales, n=4)],
        "unscaled_round_seconds": round(ledger.raw_serving_seconds, 3),
        **workload_context,
    }


def _report(context, ledger, metrics, table) -> None:
    """The human-readable part of the output."""
    print("context " + json.dumps(context, sort_keys=True))
    print(f"{'op':<12}{'attempted':>10}{'failed':>8}")
    for op in sorted(ledger.attempted):
        print(f"{op:<12}{ledger.attempted[op]:>10}{ledger.failed[op]:>8}")
    for name in sorted(set(ledger.checks_passed) | set(ledger.checks_failed)):
        passed, failed = ledger.checks_passed[name], ledger.checks_failed[name]
        print(f"check {name}: {'ok' if not failed else 'FAILED'} ({passed} passed, {failed} failed)")
    for line in ledger.failures:
        print(f"  {line}")
    if table is not None:
        rows = table.query_rows()
        print(f"layer table: self time per query over {table.queries} traced queries")
        for name, calls, micros in rows:
            print(f"  {name:<28}{calls:>8.2f} calls{micros:>12.1f} us")
        total = sum(micros for _name, _calls, micros in rows)
        print(f"  {'sum of self times':<34}{total:>12.1f} us")
        print(f"  {'client-observed latency':<34}{table.query_latency_us():>12.1f} us")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()
    OUTPUT.mkdir(exist_ok=True)
    # Temporary files (the forkserver's socket) stay in the checkout; a
    # relative directory keeps the socket path short.
    tempfile.tempdir = os.path.relpath(OUTPUT)
    from spans import LayerTable, SpanRecorder

    if args.leg_output is not None:
        workload, ledger = run_leg(args, None)
        output = {"ledger": ledger.to_dict(), "context": workload.context()}
        args.leg_output.write_text(json.dumps(output))
        return 0
    table = None
    if args.trace:
        recorder = SpanRecorder()
        workload, ledger = run_leg(args, recorder)
        ledger.check(
            "points_per_answer_equals_sample_size",
            recorder.sample_size_mismatches == 0,
            f"{recorder.sample_size_mismatches} mismatches",
        )
        table = LayerTable(recorder)
        metrics = per_layer(workload, ledger, table)
        workload_context = workload.context()
    else:
        ledger, workload_context = run_legs(args)
        metrics = ledger.end_to_end()
    context = _context(workload_context, ledger, args)
    _report(context, ledger, metrics, table)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.write(OUTPUT / f"spans-{stem}.jsonl")
    result = {
        "correct": ledger.correct,
        "attempted": sum(ledger.attempted.values()),
        "failed": sum(ledger.failed.values()),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    (OUTPUT / f"result-{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "context": context,
                "ops": {
                    op: {"attempted": ledger.attempted[op], "failed": ledger.failed[op]}
                    for op in sorted(ledger.attempted)
                },
                "checks": {
                    name: {
                        "passed": ledger.checks_passed[name],
                        "failed": ledger.checks_failed[name],
                    }
                    for name in sorted(set(ledger.checks_passed) | set(ledger.checks_failed))
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
