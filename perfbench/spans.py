"""Span tracing from outside the program, for the per-layer numbers.

The traced run wraps the public entry points of each layer -- the wire
codec and frame decoder, the engine answer path, the estimators, the
hot-list reporters, warehouse/relation/synopsis ingest, the WAL and
checkpoints, the cluster coordinator's partition/gather steps -- by
patching the module or class attribute the program calls through.
Nothing under ``src/`` changes; :meth:`SpanRecorder.install` and
:meth:`SpanRecorder.remove` swap the wrappers in and out, so the run
can alternate traced and untraced rounds and measure its own overhead.

A span is ``(span id, trace id, parent id, name, start, end)``.  The
benchmark opens one root span per client op; spans in the same asyncio
task nest under it.  The in-process server runs each connection in its
own task, so a server-side span is parented to the client op of the
session that connection opened (learned from the ``hello`` reply).
Spans are kept in memory and written out when the run ends.  Self time
is a span's duration minus its children's, so per trace the self times
add up to the root's duration exactly; the root's own self time is the
unattributed rest (socket I/O, event-loop scheduling, waiting behind
another connection's work).
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping

from repro.cluster import coordinator as cluster_coordinator
from repro.cluster.coordinator import ShardedWarehouse
from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.engine import answering
from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.pinned import PinnedEngineView
from repro.engine.registry import SAMPLE
from repro.engine.relation import Relation
from repro.engine.warehouse import DataWarehouse
from repro.hotlist.concise import ConciseHotList
from repro.hotlist.counting import CountingHotList
from repro.persist.recovery import RecoveryManager
from repro.persist.wal import WriteAheadLog
from repro.serving import client as serving_client
from repro.serving import codec as serving_codec
from repro.serving import server as serving_server
from repro.serving.protocol import FrameDecoder

Hook = Callable[["SpanRecorder", tuple, Any], None]

_MAIN_THREAD = threading.main_thread().ident


def _context() -> object:
    """The execution context a span stack belongs to: the running
    asyncio task, else the current thread."""
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    return task if task is not None else threading.get_ident()


def _batch_rows(columns: Any) -> int:
    return len(next(iter(columns.values()))) if columns else 0


class SpanRecorder:
    """In-memory spans plus per-op counters for one traced run."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.root_op: dict[int, str] = {}
        self.counts: Counter[tuple[str, str]] = Counter()
        self.sample_size_mismatches = 0
        self._ids = itertools.count(1)
        self._stacks: dict[object, list[int]] = defaultdict(list)
        self._trace_of: dict[int, int] = {}
        self._session_root: dict[str, int] = {}
        self._task_session: dict[object, str] = {}
        self._learner = _Patch(serving_server, "encode_result", self._learning)
        self._patches: list[_Patch] = []
        self._installed = False

    def __enter__(self) -> SpanRecorder:
        # The session learner stays in for the whole run (connections
        # say hello outside the traced rounds); the layer wrappers are
        # built on top of it, so removing them restores the learner.
        self._learner.install()
        self._patches = _patches(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()
        self._learner.remove()

    def _learning(self, encode_result: Callable) -> Callable:
        def wrapper(request_id: Any, result: dict[str, Any]) -> bytes:
            # A hello reply names the session of the connection task
            # that sends it.
            if isinstance(result, dict) and result.get("server") == "repro-aqp":
                self._task_session[_context()] = str(result["session"])
            return encode_result(request_id, result)

        return wrapper

    # -- span bookkeeping ------------------------------------------------

    def _ambient(self, context: object) -> int | None:
        """The span that work in a context with an empty stack belongs
        to: a server connection's current client op, or -- for the
        cluster coordinator's pool threads -- the main thread's op."""
        if isinstance(context, asyncio.Task):
            session = self._task_session.get(context)
            return self._session_root.get(session) if session else None
        if context != _MAIN_THREAD:
            stack = self._stacks.get(_MAIN_THREAD)
            return stack[-1] if stack else None
        return None

    def _current(self) -> tuple[object, int | None]:
        context = _context()
        stack = self._stacks.get(context)
        return context, (stack[-1] if stack else self._ambient(context))

    def begin_root(self, op: str, session: str | None = None) -> tuple | None:
        """Open the root span of one client op."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self._trace_of[span_id] = span_id
        self.root_op[span_id] = op
        context = _context()
        self._stacks[context].append(span_id)
        if session is not None:
            self._session_root[session] = span_id
        return (span_id, span_id, None, op, perf_counter(), context, session)

    def begin(self, name: str) -> tuple | None:
        """Open a child span; ``None`` outside any traced op, and in the
        coordinator's pool threads (their spans would overlap)."""
        if not self.enabled:
            return None
        context, parent = self._current()
        if parent is None or (
            not isinstance(context, asyncio.Task) and context != _MAIN_THREAD
        ):
            return None
        span_id = next(self._ids)
        trace = self._trace_of[parent]
        self._trace_of[span_id] = trace
        self._stacks[context].append(span_id)
        return (span_id, trace, parent, name, perf_counter(), context, None)

    def end(self, token: tuple | None) -> None:
        """Close a span opened by :meth:`begin` or :meth:`begin_root`."""
        if token is None:
            return
        finished = perf_counter()
        span_id, trace, parent, name, started, context, session = token
        self._stacks[context].pop()
        if session is not None:
            self._session_root.pop(session, None)
        del self._trace_of[span_id]
        self.spans.append((span_id, trace, parent, name, started, finished))

    def add(self, counter: str, amount: float) -> None:
        """Add to a counter of the op the current work belongs to."""
        if not self.enabled:
            return
        _context_key, span = self._current()
        if span is None:
            return
        trace = self._trace_of.get(span)
        if trace is not None:
            self.counts[(self.root_op[trace], counter)] += amount

    def in_server_task(self) -> bool:
        """Whether the caller is a server connection task."""
        return self._task_session.get(_context()) is not None

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Swap every layer wrapper in (idempotent)."""
        if not self._installed:
            for patch in self._patches:
                patch.install()
            self._installed = True

    def remove(self) -> None:
        """Restore every original attribute (idempotent)."""
        if self._installed:
            for patch in reversed(self._patches):
                patch.remove()
            self._installed = False

    def write(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, trace, parent, name, started, finished in self.spans:
                handle.write(
                    f'{{"id": {span_id}, "trace": {trace}, '
                    f'"parent": {json.dumps(parent)}, "name": "{name}", '
                    f'"start": {started!r}, "end": {finished!r}}}\n'
                )


class _Patch:
    """One attribute swap: ``owner.attribute`` <-> a timed wrapper."""

    def __init__(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        self.owner = owner
        self.attribute = attribute
        self.own = attribute in vars(owner)
        self.original = vars(owner)[attribute] if self.own else None
        self.wrapper = functools.wraps(getattr(owner, attribute))(
            wrapper(getattr(owner, attribute))
        )

    def install(self) -> None:
        setattr(self.owner, self.attribute, self.wrapper)

    def remove(self) -> None:
        if self.own:
            setattr(self.owner, self.attribute, self.original)
        else:
            delattr(self.owner, self.attribute)


def _timed(recorder: SpanRecorder, name: str, after: Hook | None = None):
    def make(function: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end(token)
            if after is not None:
                after(recorder, args, result)
            return result

        return wrapper

    return make


def _counted(after: Hook, recorder: SpanRecorder):
    """A wrapper that only counts: for calls made in pool threads."""

    def make(function: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = function(*args, **kwargs)
            after(recorder, args, result)
            return result

        return wrapper

    return make


def _request_bytes(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.add("request_bytes", len(result))


def _reply_bytes(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    # Bytes fed to a client-side decoder are reply bytes; a server
    # connection task feeds request bytes (already counted at encode).
    if not recorder.in_server_task():
        recorder.add("reply_bytes", len(args[1]))


def _points(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    source, relation, attribute = args
    recorder.add("points", len(result))
    recorder.add("sample_points_calls", 1)
    sample = source.lookup_synopsis(relation, attribute, SAMPLE)
    if recorder.enabled and len(result) != sample.sample_size:
        recorder.sample_size_mismatches += 1


def _rows_of(counter: str, position: int) -> Hook:
    """Count the rows of a columnar batch or an array argument."""

    def hook(recorder: SpanRecorder, args: tuple, result: Any) -> None:
        value = args[position]
        rows = _batch_rows(value) if isinstance(value, Mapping) else len(value)
        recorder.add(counter, rows)

    return hook


def _patches(recorder: SpanRecorder) -> list[_Patch]:
    """Every wrapper the traced rounds install, layer by layer."""

    def timed(name: str, after: Hook | None = None):
        return _timed(recorder, name, after)

    codec = "serving.codec"
    patches = [
        # serving: frame I/O and the envelope/query codec, both sides
        _Patch(FrameDecoder, "feed", timed("serving.frame_decode", _reply_bytes)),
        _Patch(serving_server, "parse_request", timed(codec)),
        _Patch(serving_server, "encode_result", timed(codec)),
        _Patch(serving_server, "encode_error", timed(codec)),
        _Patch(serving_client, "encode_request", timed(codec, _request_bytes)),
        _Patch(serving_client, "parse_reply", timed(codec)),
        _Patch(cluster_coordinator, "encode_request", _counted(_request_bytes, recorder)),
    ]
    for function in ("encode_query", "decode_query", "encode_response", "decode_response"):
        patches.append(_Patch(serving_codec, function, timed(codec)))
    patches += [
        # engine: answer routing, point expansion, pins, ingest
        _Patch(ApproximateAnswerEngine, "answer", timed("engine.answer")),
        _Patch(PinnedEngineView, "answer", timed("engine.answer")),
        _Patch(answering, "sample_points", timed("engine.sample_points", _points)),
        _Patch(ApproximateAnswerEngine, "pin_view", timed("engine.pin")),
        _Patch(DataWarehouse, "load_batch", timed("engine.load_batch", _rows_of("load_rows", 2))),
        _Patch(Relation, "insert_batch", timed("engine.relation_insert", _rows_of("relation_rows", 1))),
        # estimators and hot lists, as the answer path calls them
        *(
            _Patch(answering, function, timed("estimators.estimate"))
            for function in (
                "estimate_count",
                "estimate_sum",
                "estimate_average",
                "estimate_selectivity",
            )
        ),
        _Patch(ConciseHotList, "report", timed("hotlist.report")),
        _Patch(CountingHotList, "report", timed("hotlist.report")),
        # core: the synopsis batch-ingest kernels
        _Patch(ConciseSample, "insert_array", timed("core.insert_array", _rows_of("insert_rows", 1))),
        _Patch(CountingSample, "insert_array", timed("core.insert_array", _rows_of("insert_rows", 1))),
        # persist: WAL appends and checkpoints
        _Patch(WriteAheadLog, "append", timed("persist.wal_append")),
        _Patch(WriteAheadLog, "append_many", timed("persist.wal_append")),
        _Patch(RecoveryManager, "checkpoint", timed("persist.checkpoint")),
        # cluster: partitioning, scatter ingest, gather algebra
        _Patch(cluster_coordinator, "partition_columns", timed("cluster.partition", _rows_of("partition_rows", 0))),
        _Patch(ShardedWarehouse, "load_batch", timed("cluster.load_batch")),
    ]
    for function in (
        "merge_scalar_responses",
        "merge_hotlist_responses",
        "merge_ratio_responses",
    ):
        patches.append(_Patch(cluster_coordinator, function, timed("cluster.gather")))
    return patches


# -- analysis --------------------------------------------------------------


def _is_query(op: str) -> bool:
    return op.startswith("query")


class LayerTable:
    """Self time per span name, per op kind, from a finished recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        children: dict[int, float] = defaultdict(float)
        for _id, _trace, parent, _name, started, finished in recorder.spans:
            if parent is not None:
                children[parent] += finished - started
        self.self_time: dict[str, float] = defaultdict(float)
        self.duration: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.query_self: dict[str, float] = defaultdict(float)
        self.query_calls: Counter[str] = Counter()
        self.roots: Counter[str] = Counter()
        self.root_time: dict[str, float] = defaultdict(float)
        self.unattributed: dict[str, float] = defaultdict(float)
        for span_id, trace, parent, name, started, finished in recorder.spans:
            duration = finished - started
            own = duration - children.get(span_id, 0.0)
            op = recorder.root_op[trace]
            if parent is None:
                self.roots[op] += 1
                self.root_time[op] += duration
                self.unattributed[op] += own
                continue
            self.self_time[name] += own
            self.duration[name] += duration
            self.calls[name] += 1
            if _is_query(op):
                self.query_self[name] += own
                self.query_calls[name] += 1
        self.counts = recorder.counts

    def count(self, counter: str, ops: Callable[[str], bool] = lambda _op: True) -> float:
        return sum(v for (op, name), v in self.counts.items() if name == counter and ops(op))

    @property
    def queries(self) -> int:
        return sum(n for op, n in self.roots.items() if _is_query(op))

    @property
    def requests(self) -> int:
        return sum(n for op, n in self.roots.items() if op != "checkpoint")

    def mean_self_us(self, name: str) -> float:
        calls = self.calls[name]
        return self.self_time[name] / calls * 1e6 if calls else 0.0

    def per_krow_us(self, name: str, rows_counter: str) -> float:
        rows = self.count(rows_counter)
        return self.self_time[name] / rows * 1e9 if rows else 0.0

    def root_mean_us(self, op: str) -> float:
        return self.root_time[op] / self.roots[op] * 1e6 if self.roots[op] else 0.0

    def query_rows(self) -> list[tuple[str, float, float]]:
        """``(layer, calls per query, self us per query)`` rows plus the
        unattributed rest; their self times sum to the client latency."""
        queries = self.queries
        if not queries:
            return []
        rows = [
            (name, self.query_calls[name] / queries, self.query_self[name] / queries * 1e6)
            for name in sorted(self.query_self)
        ]
        unattributed = sum(v for op, v in self.unattributed.items() if _is_query(op))
        rows.append(("serving.unattributed", 1.0, unattributed / queries * 1e6))
        return rows

    def query_latency_us(self) -> float:
        queries = self.queries
        total = sum(v for op, v in self.root_time.items() if _is_query(op))
        return total / queries * 1e6 if queries else 0.0
