"""The two served workloads: a durable AQP service on the benchmark's
own event loop, driven through :class:`~repro.serving.AQPClient`.

Each workload builds the same stack -- a
:class:`~repro.engine.DataWarehouse` whose
:class:`~repro.engine.ApproximateAnswerEngine` holds one concise sample
and one hot list, a :class:`~repro.persist.RecoveryManager` logging
every batch to a WAL under ``CheckpointStore(sync_every=1)``, and an
:class:`~repro.serving.AQPServer` -- and differs only in data size,
footprint and traffic mix.  The run is a sequence of rounds.  A round
is a fixed op script per connection, generated from the seed; the
connections of a round run concurrently.  Every ``crash_every`` rounds
the server is crash-stopped with ``abort()``, the store recovered, the
stack rebuilt and the clients reconnected.

Synopsis bindings follow the cluster worker's convention: the
aggregate sample is bound first and the hot-list reporter's backing
sample second, so a recovered store re-registers both roles.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Awaitable

import numpy as np

from harness import RunLedger, bytes_on_disk, digest
from repro.core import ConciseSample
from repro.engine import (
    ApproximateAnswerEngine,
    AverageQuery,
    CountQuery,
    DataWarehouse,
    FrequencyQuery,
    HotListQuery,
    QueryResultCache,
    SelectivityQuery,
    SumQuery,
)
from repro.engine.answering import answer_approximate
from repro.estimators.selectivity import Predicate
from repro.hotlist.concise import ConciseHotList
from repro.hotlist.counting import CountingHotList
from repro.obs.metrics import MetricsRegistry
from repro.persist import CheckpointStore, LocalFileSystem, RecoveryManager
from repro.randkit import spawn_seeds
from repro.serving import AQPClient, AQPServer, ServerError
from repro.serving.codec import encode_response
from repro.serving.protocol import ProtocolError
from repro.streams import zipf_stream
from spans import SpanRecorder

RELATION = "sales"
ATTRIBUTE = "item"

#: What a failed op may raise; anything else is a benchmark bug.
OP_ERRORS = (ServerError, ProtocolError, ConnectionError, OSError)


@dataclass(frozen=True)
class ServedConfig:
    """The data, synopses and durability of one served workload."""

    rows: int
    domain: int
    skew: float
    footprint: int
    hotlist: type[ConciseHotList] | type[CountingHotList]
    ingest_rows: int
    checkpoint_every: int  # ingest batches since recovery
    crash_every: int  # rounds
    sync_every: int = 1

    def describe(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "domain": self.domain,
            "zipf_skew": self.skew,
            "footprint": self.footprint,
            "hotlist": self.hotlist.__name__,
            "rows_per_ingest": self.ingest_rows,
            "sync_every": self.sync_every,
            "checkpoint_every_batches": self.checkpoint_every,
            "crash_every_rounds": self.crash_every,
        }


class _CountingHandle:
    """A WAL file handle that reports the bytes written through it."""

    def __init__(self, handle: Any, recorder: SpanRecorder) -> None:
        self.raw = handle
        self._recorder = recorder

    def write(self, data: bytes) -> int:
        self._recorder.add("wal_bytes", len(data))
        return self.raw.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.raw, name)


class CountingFileSystem(LocalFileSystem):
    """The real filesystem, counting fsyncs and WAL bytes into the
    span recorder's current op (the traced run hands one to every
    :class:`~repro.persist.CheckpointStore`)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def open(self, path: Path, mode: str) -> Any:
        handle = super().open(path, mode)
        if "r" not in mode and "wal" in Path(path).parts:
            return _CountingHandle(handle, self._recorder)
        return handle

    def fsync(self, handle: Any) -> None:
        self._recorder.add("fsyncs", 1)
        super().fsync(getattr(handle, "raw", handle))


class ServedStack:
    """Warehouse + engine + recovery manager + server over one store."""

    def __init__(
        self,
        config: ServedConfig,
        directory: Path,
        seed: int,
        recorder: SpanRecorder | None,
    ) -> None:
        self.config = config
        self.directory = directory
        self.recorder = recorder
        self.seeds = spawn_seeds(seed, 2)
        self.server_registries: list[MetricsRegistry] = []
        self.caches: list[QueryResultCache] = []
        self.acked_rows = 0
        self.batches_since_recovery = 0
        self.engine: ApproximateAnswerEngine
        self.manager: RecoveryManager
        self.server: AQPServer
        self.address: tuple[str, int]

    def _store(self) -> CheckpointStore:
        filesystem = (
            CountingFileSystem(self.recorder) if self.recorder is not None else None
        )
        return CheckpointStore(
            self.directory,
            filesystem,
            sync_every=self.config.sync_every,
            registry=MetricsRegistry(),
        )

    def _engine(self, warehouse: DataWarehouse) -> ApproximateAnswerEngine:
        cache = QueryResultCache(capacity=256, registry=MetricsRegistry())
        self.caches.append(cache)
        return ApproximateAnswerEngine(warehouse, cache=cache)

    async def _serve(self, warehouse: DataWarehouse) -> None:
        registry = MetricsRegistry()
        self.server_registries.append(registry)
        self.server = AQPServer(
            warehouse, self.engine, manager=self.manager, registry=registry
        )
        self.address = await self.server.start()

    async def build(self, preload: np.ndarray, ledger: RunLedger) -> None:
        """Empty durable stack, the early-query check, then the preload."""
        config = self.config
        warehouse = DataWarehouse()
        warehouse.create_relation(RELATION, [ATTRIBUTE])
        self.engine = self._engine(warehouse)
        sample = ConciseSample(config.footprint, seed=self.seeds[0])
        reporter = config.hotlist(config.footprint, seed=self.seeds[1])
        self.engine.register_sample(RELATION, ATTRIBUTE, sample)
        self.engine.register_hotlist(RELATION, ATTRIBUTE, reporter)
        self.manager = RecoveryManager(self._store())
        self.manager.attach(warehouse)
        self.manager.bind(RELATION, ATTRIBUTE, sample)
        self.manager.bind(RELATION, ATTRIBUTE, reporter.sample)
        self.manager.checkpoint()
        await self._serve(warehouse)
        await self._check_refuses_empty(ledger)
        warehouse.load_batch(RELATION, {ATTRIBUTE: preload})
        self.acked_rows = len(preload)
        self.manager.checkpoint()

    async def _check_refuses_empty(self, ledger: RunLedger) -> None:
        """A COUNT before the preload must fail as an empty sample, so
        a run that queried too early would show failed ops."""
        client = await AQPClient.connect(*self.address)
        await client.hello()
        try:
            await client.query(
                CountQuery(RELATION, ATTRIBUTE, Predicate(low=1, high=10)),
                mode="live",
            )
        except ServerError as error:
            refused = (
                error.code == "query-error"
                and "cannot estimate from an empty sample" in error.message
            )
            ledger.check("empty_relation_refused", refused, str(error))
        else:
            ledger.check("empty_relation_refused", False, "query answered")
        finally:
            await client.bye()

    def checkpoint(self, ledger: RunLedger) -> None:
        """Checkpoint on the event loop: the foreground stall."""
        recorder = self.recorder
        token = recorder.begin_root("checkpoint") if recorder else None
        started = perf_counter()
        try:
            self.manager.checkpoint()
        finally:
            if recorder is not None:
                recorder.end(token)
        ledger.record("checkpoint", perf_counter() - started, True)

    def acked(self, rows: int, ledger: RunLedger) -> None:
        """Book one acknowledged ingest; checkpoint on the cadence."""
        self.acked_rows += rows
        ledger.rows_acked += rows
        self.batches_since_recovery += 1
        if self.batches_since_recovery % self.config.checkpoint_every == 0:
            self.checkpoint(ledger)

    async def crash_and_recover(self, seed: int, ledger: RunLedger) -> None:
        """``abort()``, then recover and rebuild until the server listens.

        Clients must be idle (between rounds).  ``recovery_s`` covers
        ``RecoveryManager.recover`` plus the rebuild to serving.
        """
        if ledger.stored_bytes_per_row is None:
            ledger.stored_bytes_per_row = (
                bytes_on_disk(self.directory) / self.acked_rows
            )
        self.server.abort()
        await asyncio.sleep(0)
        started = perf_counter()
        self.manager = RecoveryManager(self._store())
        state = self.manager.recover(seed=seed)
        self.engine = self._engine(state.warehouse)
        self.engine.adopt_row_counts()
        sample, backing = (binding.synopsis for binding in self.manager.bindings)
        reporter = self.config.hotlist(self.config.footprint, seed=0)
        reporter.sample = backing  # share, as the cluster worker does
        self.engine.register_sample(RELATION, ATTRIBUTE, sample)
        self.engine.register_hotlist(RELATION, ATTRIBUTE, reporter)
        self.manager.attach(state.warehouse)
        await self._serve(state.warehouse)
        ledger.recovery_seconds.append(perf_counter() - started)
        ledger.replayed_rows.append(state.replayed)
        self.batches_since_recovery = 0
        recovered = state.warehouse.relation(RELATION).size
        ledger.check(
            "recovered_rows_equal_acked",
            recovered == self.acked_rows and state.sequence == self.acked_rows,
            f"recovered {recovered} rows, acked {self.acked_rows}",
        )
        for binding in self.manager.bindings:
            try:
                binding.synopsis.check_invariants()
            except AssertionError as error:
                ledger.check("recovered_synopsis_invariants", False, str(error))
            else:
                ledger.check("recovered_synopsis_invariants", True)

    async def close(self) -> None:
        await self.server.shutdown()
        self.manager.detach()


class ServedWorkload:
    """Rounds of client ops against a :class:`ServedStack`."""

    name = ""
    config: ServedConfig
    connections = 1
    ingest_pool_size = 16  # distinct ingest batches, cycled

    def __init__(self, seed: int, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        self.loop = asyncio.new_event_loop()
        seeds = spawn_seeds(seed, 4)
        self._stack_seeds = spawn_seeds(seeds[0], 8)
        self._recovery_seeds = seeds[1]
        config = self.config
        self.preload = zipf_stream(config.rows, config.domain, config.skew, seed=seeds[2])
        self.ingest_pool = [
            batch.tolist()
            for batch in np.split(
                zipf_stream(
                    config.ingest_rows * self.ingest_pool_size,
                    config.domain,
                    config.skew,
                    seed=seeds[3],
                ),
                self.ingest_pool_size,
            )
        ]
        self.ingests = 0
        self.crash_every = config.crash_every
        self.stack: ServedStack | None = None
        self.clients: list[AQPClient] = []
        self.ledger: RunLedger

    def context(self) -> dict[str, Any]:
        return {
            **self.config.describe(),
            "connections": self.connections,
            "inputs_sha256": digest(self.preload, self.ingest_pool, self.script()),
        }

    def script(self) -> object:
        """The generated queries, for the input digest."""
        raise NotImplementedError

    # -- lifecycle (called by run.py) ---------------------------------

    def setup(self, directory: Path, ledger: RunLedger, attempt: int) -> None:
        self.ledger = ledger
        self.loop.run_until_complete(self._setup(directory, attempt))

    async def _setup(self, directory: Path, attempt: int) -> None:
        self.stack = ServedStack(
            self.config, directory, self._stack_seeds[attempt], self.recorder
        )
        await self.stack.build(self.preload, self.ledger)
        await self._connect()
        await self.warm_up()

    def teardown(self) -> None:
        self.loop.run_until_complete(self._teardown())

    async def _teardown(self) -> None:
        for client in self.clients:
            await client.bye()
        self.clients = []
        if self.stack is not None:
            await self.stack.close()

    def close(self) -> None:
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

    def round(self, index: int, traced: bool) -> None:
        self.loop.run_until_complete(self.run_round(index, traced))

    def crash(self, cycle: int) -> None:
        self.loop.run_until_complete(self._crash(cycle))

    async def _crash(self, cycle: int) -> None:
        assert self.stack is not None
        for client in self.clients:
            await client.close()
        self.clients = []
        seed = spawn_seeds(self._recovery_seeds, cycle + 1)[cycle]
        await self.stack.crash_and_recover(seed, self.ledger)
        await self._connect()

    async def _connect(self) -> None:
        assert self.stack is not None
        for _ in range(self.connections):
            client = await AQPClient.connect(*self.stack.address)
            await client.hello()
            self.clients.append(client)

    async def warm_up(self) -> None:
        """Untimed ops that load lazy state before the window."""

    async def run_round(self, index: int, traced: bool) -> None:
        raise NotImplementedError

    # -- ops -------------------------------------------------------------

    async def op(
        self, name: str, client: AQPClient, call: Awaitable[Any], traced: bool
    ) -> Any:
        """Run one client op, timed from send to decoded reply."""
        recorder = self.recorder
        token = (
            recorder.begin_root(name, client.session_id) if recorder else None
        )
        started = perf_counter()
        try:
            result = await call
        except OP_ERRORS as error:
            self.ledger.fail(name, error)
            return None
        finally:
            if recorder is not None:
                recorder.end(token)
        self.ledger.record(name, perf_counter() - started, True, traced)
        return result

    async def ingest(self, client: AQPClient, traced: bool) -> None:
        assert self.stack is not None
        batch = self.ingest_pool[self.ingests % len(self.ingest_pool)]
        self.ingests += 1
        rows = await self.op(
            "ingest", client, client.ingest(RELATION, {ATTRIBUTE: batch}), traced
        )
        if rows is not None:
            self.stack.acked(rows, self.ledger)

    def check_live(self, served: Any, query: Any) -> None:
        """Served answer == the engine's own answer at this epoch."""
        assert self.stack is not None
        if served is None:
            return
        reference = answer_approximate(self.stack.engine, query)
        self.ledger.check(
            "served_equals_engine",
            _same_answer(served, reference),
            repr(query),
        )

    def check_pinned(self, served: Any, reference_view: Any, query: Any) -> None:
        """Served pinned answer == a pin taken at the same epoch."""
        assert self.stack is not None
        if served is None:
            return
        self.ledger.check(
            "served_equals_engine",
            _same_answer(served, reference_view.answer(query)),
            repr(query),
        )

    # -- per-layer sources -------------------------------------------------

    def queue_wait(self) -> tuple[float, int]:
        assert self.stack is not None
        total, count = 0.0, 0
        for registry in self.stack.server_registries:
            for family in registry.collect():
                if family.name == "repro_server_queue_wait_seconds":
                    for histogram in family.series.values():
                        total += histogram.sum  # type: ignore[union-attr]
                        count += histogram.count  # type: ignore[union-attr]
        return total, count

    def cache_stats(self) -> tuple[int, int]:
        assert self.stack is not None
        hits = sum(cache.stats["hits"] for cache in self.stack.caches)
        misses = sum(cache.stats["misses"] for cache in self.stack.caches)
        return hits, misses


def _same_answer(served: Any, reference: Any) -> bool:
    """Whether a served answer equals the reference, bit for bit."""
    return encode_response(served) == encode_response(reference)


def _range(rng: np.random.Generator, domain: int) -> Predicate:
    """A range over the frequent head of the domain: never empty."""
    low = int(rng.integers(1, 50))
    return Predicate(low=low, high=low + int(rng.integers(20, domain // 4)))


class ServeColdLarge(ServedWorkload):
    """Distinct-predicate queries on a footprint-64k concise sample."""

    name = "serve_cold_large"
    config = ServedConfig(
        rows=2_000_000,
        domain=100_000,
        skew=1.25,
        footprint=64_000,
        hotlist=ConciseHotList,
        ingest_rows=2_000,
        checkpoint_every=4,
        crash_every=5,
    )
    queries_per_round = 50
    check_every = 25  # queries

    def __init__(self, seed: int, recorder: SpanRecorder | None) -> None:
        super().__init__(seed, recorder)
        rng = np.random.default_rng(spawn_seeds(seed, 5)[4])
        kinds = (FrequencyQuery, CountQuery, SumQuery, AverageQuery, SelectivityQuery, HotListQuery)
        self.queries = []
        for position in range(12_000):
            kind = kinds[position % len(kinds)]
            if kind is FrequencyQuery:
                query = FrequencyQuery(RELATION, ATTRIBUTE, value=int(rng.integers(1, 2_000)))
            elif kind is HotListQuery:
                query = HotListQuery(RELATION, ATTRIBUTE, k=int(rng.integers(5, 500)))
            else:
                query = kind(RELATION, ATTRIBUTE, _range(rng, self.config.domain))
            self.queries.append(query)
        self.next_query = 0

    def script(self) -> object:
        return self.queries

    async def warm_up(self) -> None:
        client = self.clients[0]
        for query in self.queries[-6:]:
            await client.query(query, mode="live")

    async def run_round(self, index: int, traced: bool) -> None:
        client = self.clients[0]
        for position in range(self.queries_per_round):
            query = self.queries[self.next_query % (len(self.queries) - 6)]
            self.next_query += 1
            served = await self.op("query", client, client.query(query, mode="live"), traced)
            if position % self.check_every == 0:
                self.check_live(served, query)
        await self.ingest(client, traced)
        await self.op("snapshot", client, client.snapshot(), traced)


class IngestDurable(ServedWorkload):
    """A 20k-row ingest stream beside a pinned COUNT reader."""

    name = "ingest_durable"
    config = ServedConfig(
        rows=1_000_000,
        domain=50_000,
        skew=1.1,
        footprint=4_000,
        hotlist=CountingHotList,
        ingest_rows=20_000,
        checkpoint_every=16,
        crash_every=4,
    )
    connections = 2
    # About as many reads as batches, so most reads overlap a batch: with
    # many more reads the reader would finish alone and the median would
    # sit on the edge between the contended and the idle latencies.
    batches_per_round = 10
    reads_per_round = 12
    check_every = 4  # rounds

    def __init__(self, seed: int, recorder: SpanRecorder | None) -> None:
        super().__init__(seed, recorder)
        rng = np.random.default_rng(spawn_seeds(seed, 5)[4])
        self.counts = [
            CountQuery(RELATION, ATTRIBUTE, _range(rng, self.config.domain))
            for _ in range(4_000)
        ]
        self.next_count = 0

    def script(self) -> object:
        return self.counts

    async def warm_up(self) -> None:
        await self.clients[1].query(self.counts[-1], mode="live")

    async def run_round(self, index: int, traced: bool) -> None:
        writer, reader = self.clients
        await self.op("snapshot", reader, reader.snapshot(), traced)
        reference = None
        if index % self.check_every == 0:
            assert self.stack is not None
            reference = self.stack.engine.pin_view()
        await asyncio.gather(
            self._writer(writer, traced),
            self._reader(reader, reference, traced),
        )

    async def _writer(self, client: AQPClient, traced: bool) -> None:
        for _ in range(self.batches_per_round):
            await self.ingest(client, traced)

    async def _reader(self, client: AQPClient, reference: Any, traced: bool) -> None:
        for position in range(self.reads_per_round):
            query = self.counts[self.next_count % (len(self.counts) - 1)]
            self.next_count += 1
            served = await self.op("query", client, client.query(query), traced)
            if reference is not None and position < 3:
                self.check_pinned(served, reference, query)
