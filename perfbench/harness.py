"""Run bookkeeping shared by every workload.

One :class:`RunLedger` per benchmark run collects what the closed loop
did -- per-op latencies, attempted/failed counts, the outcome of every
correctness check, crash/recover cycles, set-up times -- and turns it
into the end-to-end metrics.  The helpers below read process-tree
memory and bytes on disk from ``/proc`` and the filesystem, so no
program module is touched to measure them.
"""

from __future__ import annotations

import copy
import hashlib
import os
import statistics
from collections import Counter, defaultdict
from pathlib import Path

from time import perf_counter

import numpy as np

#: Ops whose latencies pool into ``query_p50_ms``/``query_p99_ms``.
QUERY_OPS = ("query",)


class RunLedger:
    """Everything one run measured, op by op and check by check."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.traced: dict[str, list[bool]] = defaultdict(list)
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.checks_passed: Counter[str] = Counter()
        self.checks_failed: Counter[str] = Counter()
        self.failures: list[str] = []
        self.setup_seconds: list[float] = []
        self.recovery_seconds: list[float] = []
        self.replayed_rows: list[int] = []
        self.rows_acked = 0
        self.serving_seconds = 0.0
        self.stored_bytes_per_row: float | None = None
        self.scales: list[float] = []
        self.raw_serving_seconds = 0.0
        self.peak_rss_mb = 0.0
        self._round_marks: dict[str, int] = {}

    def to_dict(self) -> dict:
        """Everything measured, as JSON, for the parent run to pool."""
        return {
            name: value for name, value in vars(self).items() if not name.startswith("_")
        }

    def absorb(self, leg: dict) -> None:
        """Pool one leg's measurements into this ledger."""
        for op, values in leg["latencies"].items():
            self.latencies[op].extend(values)
            self.traced[op].extend(leg["traced"][op])
        for name in ("attempted", "failed", "checks_passed", "checks_failed"):
            getattr(self, name).update(leg[name])
        for name in ("failures", "setup_seconds", "recovery_seconds", "replayed_rows", "scales"):
            getattr(self, name).extend(leg[name])
        self.rows_acked += leg["rows_acked"]
        self.serving_seconds += leg["serving_seconds"]
        self.raw_serving_seconds += leg["raw_serving_seconds"]
        if self.stored_bytes_per_row is None:
            self.stored_bytes_per_row = leg["stored_bytes_per_row"]
        self.peak_rss_mb = max(self.peak_rss_mb, leg["peak_rss_mb"])

    # -- ops -------------------------------------------------------------

    def record(
        self, op: str, seconds: float, ok: bool, traced: bool = False
    ) -> None:
        """One completed op: its latency, and whether it succeeded."""
        self.attempted[op] += 1
        if not ok:
            self.failed[op] += 1
            return
        self.latencies[op].append(seconds)
        self.traced[op].append(traced)

    def begin_round(self) -> None:
        """Mark where the latencies of the next round start."""
        self._round_marks = {op: len(values) for op, values in self.latencies.items()}

    def end_round(self, seconds: float, scale: float) -> None:
        """Book a round's wall time and take its latencies to the
        reference host speed.

        The host this runs on is shared: a fixed loop runs up to 1.6x
        slower for spells of about a second, on every core at once.
        :func:`probe_seconds` times fixed work right before and right
        after each round; ``scale`` (:func:`host_scale`) is the
        reference probe time over theirs, and every time the round
        measured is multiplied by it.
        """
        for op, values in self.latencies.items():
            for index in range(self._round_marks.get(op, 0), len(values)):
                values[index] *= scale
        self.serving_seconds += seconds * scale
        self.raw_serving_seconds += seconds
        self.scales.append(scale)

    def fail(self, op: str, error: BaseException) -> None:
        """An op that raised; the first few errors are kept for the log."""
        self.attempted[op] += 1
        self.failed[op] += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op}: {type(error).__name__}: {error}")

    def op_latencies(self, ops: tuple[str, ...], traced: bool | None = None) -> list[float]:
        """Pooled latencies of some ops, optionally only (un)traced ones."""
        pooled: list[float] = []
        for op in ops:
            for seconds, was_traced in zip(
                self.latencies[op], self.traced[op], strict=True
            ):
                if traced is None or was_traced == traced:
                    pooled.append(seconds)
        return pooled

    # -- checks ----------------------------------------------------------

    def check(self, name: str, condition: bool, detail: str = "") -> None:
        """Record one correctness check; a failure fails the run."""
        if condition:
            self.checks_passed[name] += 1
            return
        self.checks_failed[name] += 1
        if len(self.failures) < 10:
            self.failures.append(f"check {name} failed: {detail}")

    @property
    def correct(self) -> bool:
        """Every check passed, at least one ran, and no op failed."""
        return (
            not self.checks_failed
            and bool(self.checks_passed)
            and sum(self.failed.values()) == 0
        )

    # -- end-to-end metrics ----------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The nine end-to-end metrics as ``name -> (value, unit)``."""
        queries = np.asarray(self.op_latencies(QUERY_OPS))
        snapshots = np.asarray(self.latencies["snapshot"])
        queries_done = len(queries)
        return {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "query_p50_ms": (float(np.percentile(queries, 50)) * 1e3, "ms"),
            "query_p99_ms": (float(np.percentile(queries, 99)) * 1e3, "ms"),
            "query_qps": (queries_done / self.serving_seconds, "queries/s"),
            "snapshot_p50_ms": (
                float(np.percentile(snapshots, 50)) * 1e3,
                "ms",
            ),
            "ingest_rows_per_s": (
                self.rows_acked / self.serving_seconds,
                "rows/s",
            ),
            "recovery_s": (statistics.median(self.recovery_seconds), "s"),
            "stored_bytes_per_row": (
                float(self.stored_bytes_per_row or 0.0),
                "B/row",
            ),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def _parent_pid(pid: int) -> int | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces or parentheses; fields resume
    # after the last ')'.  Field 4 (index 1 after it) is the ppid.
    return int(stat.rsplit(")", 1)[1].split()[1])


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        parent = _parent_pid(int(entry))
        if parent is not None:
            children[parent].append(int(entry))
    tree = [root]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    return tree


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def bytes_on_disk(directory: Path) -> int:
    """Total size of every regular file under a directory."""
    return sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )


def shard_quantile(histograms: list[object], quantile: float) -> float:
    """A quantile of the shards' pooled ``Histogram`` series (0 when
    empty), by ``repro.obs.report.histogram_quantile``."""
    from repro.obs.report import histogram_quantile

    if not histograms:
        return 0.0
    rows = [h.cumulative() for h in histograms]  # type: ignore[attr-defined]
    pooled = [
        (bound, sum(row[i][1] for row in rows))
        for i, (bound, _count) in enumerate(rows[0])
    ]
    return histogram_quantile(pooled, quantile) or 0.0


#: What one :func:`probe_seconds` takes on the reference host (the
#: median over the probes of ten runs on a 2-vCPU VM).  Timings are
#: reported at this host speed: see :meth:`RunLedger.end_round`.
REFERENCE_PROBE_SECONDS = 0.002
_PROBE_VALUES = np.arange(4_096, dtype=np.int64)
_PROBE_COUNTS = (np.arange(4_096, dtype=np.int64) % 61) + 1
_PROBE_TABLE = np.arange(2_000_000, dtype=np.int64)  # 16 MB, past the L2 cache
_PROBE_INDEX = np.random.default_rng(0).integers(0, len(_PROBE_TABLE), 30_000)
_PROBE_DICT = {key * 7_919: key for key in range(1_000)}


def probe_seconds() -> float:
    """Time a fixed piece of work of each kind the program does: a
    pure-Python loop, a streaming numpy expand-and-reduce, a random
    gather from a table larger than the L2 cache, and a deep copy of a
    dict.  The median of three repetitions, so one interrupt does not
    count."""
    times = []
    for _ in range(3):
        started = perf_counter()
        total = 0
        for step in range(12_500):
            total += step * step % 7
        total += int(np.repeat(_PROBE_VALUES, _PROBE_COUNTS).sum())
        total += int(_PROBE_TABLE[_PROBE_INDEX].sum())
        copy.deepcopy(_PROBE_DICT)
        times.append(perf_counter() - started)
    return statistics.median(times)


def host_scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two probes to the
    reference host speed."""
    return REFERENCE_PROBE_SECONDS / ((before + after) / 2)


def digest(*parts: object) -> str:
    """SHA-256 over generated inputs: arrays by their bytes, sequences
    item by item, anything else by ``repr``."""
    hasher = hashlib.sha256()

    def feed(part: object) -> None:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (list, tuple)):
            for item in part:
                feed(item)
        else:
            hasher.update(repr(part).encode())

    for part in parts:
        feed(part)
    return hasher.hexdigest()
