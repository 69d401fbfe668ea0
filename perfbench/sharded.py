"""The cluster workload: a :class:`~repro.cluster.ShardedWarehouse` with
one shard worker per core, driven from one closed loop.

The loop interleaves routed FREQUENCY queries, scattered COUNT/SUM
queries and 5k-row ``load_batch`` calls.  Its "snapshot" op is
``merged_synopsis`` -- the Theorem 2 gather that freezes the fleet's
synopsis state into one sample.  Every ``crash_every`` rounds one shard
worker is killed; the coordinator notices, respawns it, and the worker
replays its own WAL before rejoining.
"""

from __future__ import annotations

import multiprocessing.forkserver
import multiprocessing.resource_tracker
import os
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from harness import RunLedger, bytes_on_disk, digest
from repro.cluster import ClusterError, ShardedWarehouse
from repro.engine import CountQuery, FrequencyQuery, SumQuery
from repro.estimators.selectivity import Predicate
from repro.obs.metrics import MetricsRegistry
from repro.randkit import spawn_seeds
from repro.streams import zipf_stream
from spans import SpanRecorder

RELATION = "sales"
ATTRIBUTE = "item"


class ClusterScatter:
    """Routed and scattered queries plus ingest over shard processes."""

    name = "cluster_scatter"
    shards = os.cpu_count() or 2
    rows = 1_000_000
    domain = 50_000
    skew = 1.1
    # Per shard.  At this size a scatter SUM takes ~10 ms, well above
    # the other queries, so query_p99_ms falls inside the SUM scatter
    # latencies, which the slower shard sets.  At footprint 4000 every
    # query was under 2 ms, p99 sat in the tail of millisecond
    # scheduling stalls, and it spread by 32% over ten seeds.
    footprint = 32_000
    ingest_rows = 5_000
    preload_batches = 10
    checkpoint_every = 8  # batches since recovery
    crash_every = 30  # rounds
    snapshot_every = 5  # rounds
    # One round: 18 routed FREQUENCY, 3 COUNT and 3 SUM scatters and 3
    # batches.
    schedule = ("freq", "freq", "count", "freq", "freq", "sum", "freq", "freq", "ingest") * 3

    def __init__(self, seed: int, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        seeds = spawn_seeds(seed, 5)
        self._warehouse_seeds = spawn_seeds(seeds[0], 8)
        self.preload = zipf_stream(self.rows, self.domain, self.skew, seed=seeds[1])
        self.ingest_pool = np.split(
            zipf_stream(self.ingest_rows * 32, self.domain, self.skew, seed=seeds[2]),
            32,
        )
        rng = np.random.default_rng(seeds[3])
        self.values = rng.integers(1, 5_000, size=4_096).tolist()
        self.ranges = []
        for _ in range(4_096):
            low = int(rng.integers(1, 50))
            self.ranges.append(
                Predicate(low=low, high=low + int(rng.integers(20, self.domain // 4)))
            )
        self.cursor = 0
        self.ingests = 0
        self.registry = MetricsRegistry()
        self.warehouse: ShardedWarehouse | None = None
        self.acked_rows = 0
        self.batches_since_recovery = 0
        self.directory: Path
        self.ledger: RunLedger

    def context(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "rows": self.rows,
            "domain": self.domain,
            "zipf_skew": self.skew,
            "footprint_per_shard": self.footprint,
            "rows_per_ingest": self.ingest_rows,
            "sync_every": 1,
            "checkpoint_every_batches": self.checkpoint_every,
            "crash_every_rounds": self.crash_every,
            "connections": 1,
            "inputs_sha256": digest(self.preload, self.ingest_pool, self.values, self.ranges),
        }

    # -- lifecycle ---------------------------------------------------------

    def setup(self, directory: Path, ledger: RunLedger, attempt: int) -> None:
        self.ledger = ledger
        self.directory = directory
        self.registry = MetricsRegistry()
        warehouse = ShardedWarehouse(
            self.shards,
            directory,
            seed=self._warehouse_seeds[attempt],
            sync_every=1,
            registry=self.registry,
        ).start()
        self.warehouse = warehouse
        warehouse.create_relation(RELATION, [ATTRIBUTE])
        warehouse.register_synopsis(
            RELATION,
            ATTRIBUTE,
            kind="concise-sample",
            footprint_bound=self.footprint,
            hotlist=True,
        )
        self._check_refuses_empty()
        for batch in np.array_split(self.preload, self.preload_batches):
            warehouse.load_batch(RELATION, {ATTRIBUTE: batch})
        self.acked_rows = self.rows
        warehouse.checkpoint()
        for value in self.values[:8]:
            warehouse.answer(FrequencyQuery(RELATION, ATTRIBUTE, value=value))

    def _check_refuses_empty(self) -> None:
        assert self.warehouse is not None
        try:
            self.warehouse.answer(
                CountQuery(RELATION, ATTRIBUTE, Predicate(low=1, high=10))
            )
        except ClusterError as error:
            # A worker reports the estimator's ValueError as bad-request.
            refused = "cannot estimate from an empty sample" in str(error)
            self.ledger.check("empty_relation_refused", refused, str(error))
        else:
            self.ledger.check("empty_relation_refused", False, "query answered")

    def teardown(self) -> None:
        if self.warehouse is not None:
            self.warehouse.close()
            self.warehouse = None

    def close(self) -> None:
        """Stop the forkserver and resource tracker the fleet was spawned
        through, waiting for each (the stdlib's own shutdown hooks)."""
        for holder, name in (
            (multiprocessing.forkserver, "_forkserver"),
            (multiprocessing.resource_tracker, "_resource_tracker"),
        ):
            process = getattr(holder, name, None)
            if process is not None:
                process._stop()

    # -- the loop ------------------------------------------------------------

    def _timed(self, op: str, root: str, call: Callable[[], Any], traced: bool) -> Any:
        recorder = self.recorder
        token = recorder.begin_root(root) if recorder else None
        started = perf_counter()
        try:
            result = call()
        except ClusterError as error:
            self.ledger.fail(op, error)
            return None
        finally:
            if recorder is not None:
                recorder.end(token)
        self.ledger.record(op, perf_counter() - started, True, traced)
        return result

    def _query(self, query: Any, root: str, traced: bool) -> None:
        assert self.warehouse is not None
        answer = self._timed("query", root, lambda: self.warehouse.answer(query), traced)
        if answer is not None:
            self.ledger.check(
                "all_shards_responding",
                answer.shards_responding == answer.shards_total,
                f"{answer.shards_responding}/{answer.shards_total}",
            )

    def round(self, index: int, traced: bool) -> None:
        assert self.warehouse is not None
        warehouse = self.warehouse
        for kind in self.schedule:
            self.cursor += 1
            position = self.cursor % len(self.ranges)
            if kind == "freq":
                query = FrequencyQuery(RELATION, ATTRIBUTE, value=self.values[position])
                self._query(query, "query.routed", traced)
            elif kind == "count":
                self._query(CountQuery(RELATION, ATTRIBUTE, self.ranges[position]), "query.scatter", traced)
            elif kind == "sum":
                self._query(SumQuery(RELATION, ATTRIBUTE, self.ranges[position]), "query.scatter", traced)
            else:
                self._ingest(traced)
        if index % self.snapshot_every == 0:
            self._timed(
                "snapshot",
                "snapshot",
                lambda: warehouse.merged_synopsis(RELATION, ATTRIBUTE),
                traced,
            )

    def _ingest(self, traced: bool) -> None:
        assert self.warehouse is not None
        warehouse = self.warehouse
        batch = self.ingest_pool[self.ingests % len(self.ingest_pool)]
        self.ingests += 1
        rows = self._timed(
            "ingest",
            "ingest",
            lambda: warehouse.load_batch(RELATION, {ATTRIBUTE: batch}),
            traced,
        )
        if rows is None:
            return
        self.acked_rows += rows
        self.ledger.rows_acked += rows
        self.batches_since_recovery += 1
        if self.batches_since_recovery % self.checkpoint_every == 0:
            self._timed("checkpoint", "checkpoint", warehouse.checkpoint, False)

    def crash(self, cycle: int) -> None:
        """Kill one worker, let the coordinator respawn it, verify."""
        assert self.warehouse is not None
        warehouse = self.warehouse
        if self.ledger.stored_bytes_per_row is None:
            self.ledger.stored_bytes_per_row = (
                bytes_on_disk(self.directory) / self.acked_rows
            )
        started = perf_counter()
        warehouse.kill_shard(cycle % self.shards)
        warehouse.stats()  # the failed exchange triggers the respawn
        healthy = warehouse.wait_until_healthy(timeout=60)
        self.ledger.recovery_seconds.append(perf_counter() - started)
        self.batches_since_recovery = 0
        self.ledger.check("shard_recovered", healthy, f"cycle {cycle}")
        hello = warehouse.hello_of(cycle % self.shards) or {}
        self.ledger.replayed_rows.append(int(hello.get("replayed", 0)))
        stats = warehouse.stats()
        recovered = sum(shard["rows"][RELATION] for shard in stats.values())
        self.ledger.check(
            "recovered_rows_equal_acked",
            recovered == self.acked_rows and len(stats) == self.shards,
            f"recovered {recovered} rows, acked {self.acked_rows}",
        )
        for role in (0, 1):
            merged = warehouse.merged_synopsis(RELATION, ATTRIBUTE, role=role)
            try:
                merged.check_invariants()
            except AssertionError as error:
                self.ledger.check("recovered_synopsis_invariants", False, str(error))
            else:
                self.ledger.check("recovered_synopsis_invariants", True)

    # -- per-layer sources ---------------------------------------------------

    def shard_query_histograms(self) -> list[Any]:
        for family in self.registry.collect():
            if family.name == "repro_cluster_shard_query_seconds":
                return list(family.series.values())
        return []
