"""Worker-side tracing and parallel-overhead attribution.

``MultiprocessExecutor`` workers share nothing with the parent but
their pickled payload — in particular, not the tracer. PR 2 therefore
stopped tracing at the dispatch boundary: one parent-side span wrapped
the whole pool dispatch, and per-chunk time was invisible, which made
the measured negative scaling (``benchmarks/results/
parallel_speedup.txt``) undiagnosable. This module crosses the
boundary:

* :class:`WorkerTracer` — a buffering tracer for worker processes. It
  reuses the parent-side :class:`~repro.obs.tracer.Span` machinery
  (same event schema, same nesting rules) but collects events in a
  plain list, so a chunk's trace travels back to the parent as
  picklable data alongside the chunk result.
* :func:`merge_worker_events` — folds shipped worker buffers into the
  parent trace **keyed by chunk index, not arrival order**. Two runs of
  the same workload produce the same merged event sequence no matter
  how the OS interleaved the workers, modulo timestamps and worker
  pids (:data:`~repro.obs.events.TIMESTAMP_FIELDS` /
  :data:`~repro.obs.events.SCHEDULE_ATTRS`).
* :class:`ChunkProfile` / :class:`DispatchProfile` /
  :class:`ParallelProfile` — the overhead ledger: per chunk, payload
  pickle bytes in/out, serialize/deserialize seconds, queue wait vs
  compute wall time, optional ``tracemalloc`` peaks; aggregated into
  the additive ``parallel_profile`` block of
  :class:`~repro.obs.report.RunReport` and rendered by ``repro profile
  --timeline``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, cast

from repro.contracts import commutative_merge, deterministic
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.events import COUNTER, GAUGE, SPAN_END
from repro.obs.sinks import Sink
from repro.obs.tracer import Span, Tracer

__all__ = [
    "WORKER_CHUNK_SPAN",
    "WORKER_DESERIALIZE_SPAN",
    "WORKER_COMPUTE_SPAN",
    "WORKER_SERIALIZE_SPAN",
    "WorkerTracer",
    "merge_worker_events",
    "ChunkProfile",
    "DispatchProfile",
    "ParallelProfile",
]

#: Span names a traced chunk emits, outermost first. ``worker.chunk``
#: wraps the chunk end to end; the three children partition it into the
#: payload unpickle, the actual work function, and the result pickle.
WORKER_CHUNK_SPAN = "worker.chunk"
WORKER_DESERIALIZE_SPAN = "worker.deserialize"
WORKER_COMPUTE_SPAN = "worker.compute"
WORKER_SERIALIZE_SPAN = "worker.serialize"


class WorkerTracer:
    """An in-worker tracer that buffers events instead of sinking them.

    Duck-types the parts of :class:`~repro.obs.tracer.Tracer` that
    :class:`~repro.obs.tracer.Span` uses (``clock``, ``_stack``,
    ``_emit``, ``sinks``), so worker spans are emitted by the *same*
    code path as parent spans and the event schema cannot drift between
    the two sides. No ``trace_start`` event is emitted — a worker
    buffer is a fragment of the parent trace, not a trace of its own.
    """

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.events: List[Dict[str, Any]] = []
        self.sinks: List[Sink] = []  # Span flushes these on error; none here
        self._stack: List[str] = []
        self._seq = 0

    def _emit(self, event: Dict[str, Any]) -> None:
        event["seq"] = self._seq
        self._seq += 1
        self.events.append(event)

    def span(self, name: str, **attrs: Any) -> Span:
        """A buffered span; same semantics as :meth:`Tracer.span`."""
        return Span(cast(Tracer, self), name, attrs)

    def count(self, name: str, value: int = 1) -> None:
        self._metric(COUNTER, name, value)

    def gauge(self, name: str, value: float) -> None:
        self._metric(GAUGE, name, value)

    def _metric(self, kind: str, name: str, value: float) -> None:
        path = "/".join(self._stack)
        self._emit({"event": kind, "name": name, "path": path, "value": value})

    def span_seconds(self, name: str) -> float:
        """Total buffered wall time of closed spans named ``name``."""
        return sum(
            float(event.get("duration", 0.0))
            for event in self.events
            if event.get("event") == SPAN_END and event.get("name") == name
        )

    def export(
        self,
        chunk_index: int,
        result_bytes: int = 0,
        tracemalloc_peak_bytes: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The picklable worker-trace payload shipped back to the parent.

        Schema (``docs/OBSERVABILITY.md``): ``chunk`` keys the
        deterministic merge; ``pid`` attributes the lane; the
        ``*_seconds`` fields are the per-phase durations the overhead
        ledger consumes without re-scanning events; ``events`` is the
        raw buffered fragment for :func:`merge_worker_events`.
        """
        return {
            "chunk": chunk_index,
            "pid": os.getpid(),
            "deserialize_seconds": self.span_seconds(WORKER_DESERIALIZE_SPAN),
            "compute_seconds": self.span_seconds(WORKER_COMPUTE_SPAN),
            "serialize_seconds": self.span_seconds(WORKER_SERIALIZE_SPAN),
            "worker_seconds": self.span_seconds(WORKER_CHUNK_SPAN),
            "result_bytes": result_bytes,
            "tracemalloc_peak_bytes": tracemalloc_peak_bytes,
            "events": list(self.events),
        }


@commutative_merge
def merge_worker_events(
    tracer: Tracer, traces: Iterable[Mapping[str, Any]]
) -> None:
    """Fold worker trace buffers into the parent trace, chunk-keyed.

    Buffers are sorted by chunk index before re-emission, so the merged
    event sequence is a function of the workload alone — the pool's
    completion order (the one thing the OS controls) never reaches the
    trace. Worker paths are nested under the parent's currently open
    span (the dispatch span, when called from the executor) and every
    merged event gains ``worker`` (pid) and ``chunk`` attributes for
    attribution. Within a buffer the worker's own emit order is kept —
    it is deterministic per chunk.
    """
    if not tracer.enabled:
        return
    base_path = tracer.current_path
    base_depth = tracer.current_depth
    for trace in sorted(traces, key=_chunk_index):
        worker = int(trace.get("pid", 0))
        chunk = int(trace.get("chunk", 0))
        for event in trace.get("events", ()):
            merged = dict(event)
            path = str(event.get("path", ""))
            if base_path:
                merged["path"] = f"{base_path}/{path}" if path else base_path
            if "depth" in merged:
                merged["depth"] = int(merged["depth"]) + base_depth
            attrs = dict(event.get("attrs") or {})
            attrs["worker"] = worker
            attrs["chunk"] = chunk
            merged["attrs"] = attrs
            tracer.absorb(merged)


@deterministic
def _chunk_index(trace: Mapping[str, Any]) -> int:
    """The merge key: which chunk (by submission index) produced a buffer."""
    return int(trace.get("chunk", 0))


@dataclass
class ChunkProfile:
    """One chunk's overhead/compute breakdown (one timeline row).

    Parent-side fields (``serialize_seconds``,
    ``result_deserialize_seconds``, ``queue_seconds``,
    ``round_trip_seconds``, byte counts) are measured by the executor;
    worker-side fields come from the shipped
    :meth:`WorkerTracer.export` payload. ``queue_seconds`` is the
    round trip minus the worker's own wall time — time the chunk spent
    in pool queues or waiting for a CPU, the cost that explains
    negative scaling on an oversubscribed box.
    """

    chunk: int
    worker: int
    inline: bool = False
    retried: bool = False
    payload_bytes_in: int = 0
    payload_bytes_out: int = 0
    serialize_seconds: float = 0.0
    deserialize_seconds: float = 0.0
    compute_seconds: float = 0.0
    result_serialize_seconds: float = 0.0
    result_deserialize_seconds: float = 0.0
    queue_seconds: float = 0.0
    round_trip_seconds: float = 0.0
    tracemalloc_peak_bytes: Optional[int] = None

    def pickle_seconds(self) -> float:
        """Both sides of both pickles: the full serialization tax."""
        return (
            self.serialize_seconds
            + self.deserialize_seconds
            + self.result_serialize_seconds
            + self.result_deserialize_seconds
        )

    def to_dict(self) -> Dict[str, Any]:
        """Every field in order, with ``pickle_seconds`` after the four
        pickle timings it sums (the timeline row's key order)."""
        row = asdict(self)
        tail = {
            key: row.pop(key)
            for key in (
                "queue_seconds", "round_trip_seconds", "tracemalloc_peak_bytes"
            )
        }
        row["pickle_seconds"] = self.pickle_seconds()
        row.update(tail)
        return row


@dataclass
class DispatchProfile:
    """Aggregate accounting for one traced ``map_chunks`` dispatch.

    The ``*_seconds`` buckets partition the parent's sequential wall
    time inside the dispatch span: payload pickling, pool submission,
    blocking collection (during which workers compute), pool teardown,
    in-process crash retries, result unpickling, and the merge — the
    trace merge plus the counters and profile rows that close the
    dispatch.
    Their sum over the dispatch wall is the ``accounted_fraction`` the
    acceptance gate holds at >= 0.9 — if it drops, the executor has
    grown a cost the profile cannot see.
    """

    label: str
    map_call: int
    wall_seconds: float = 0.0
    serialize_seconds: float = 0.0
    submit_seconds: float = 0.0
    collect_seconds: float = 0.0
    teardown_seconds: float = 0.0
    retry_seconds: float = 0.0
    deserialize_seconds: float = 0.0
    merge_seconds: float = 0.0
    chunks: List[ChunkProfile] = field(default_factory=list)

    def accounted_seconds(self) -> float:
        return (
            self.serialize_seconds
            + self.submit_seconds
            + self.collect_seconds
            + self.teardown_seconds
            + self.retry_seconds
            + self.deserialize_seconds
            + self.merge_seconds
        )

    def accounted_fraction(self) -> float:
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.accounted_seconds() / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "map_call": self.map_call,
            "chunks": len(self.chunks),
            "wall_seconds": self.wall_seconds,
            "serialize_seconds": self.serialize_seconds,
            "submit_seconds": self.submit_seconds,
            "collect_seconds": self.collect_seconds,
            "teardown_seconds": self.teardown_seconds,
            "retry_seconds": self.retry_seconds,
            "deserialize_seconds": self.deserialize_seconds,
            "merge_seconds": self.merge_seconds,
            "accounted_seconds": self.accounted_seconds(),
            "accounted_fraction": self.accounted_fraction(),
            "compute_seconds": sum(c.compute_seconds for c in self.chunks),
            "queue_seconds": sum(c.queue_seconds for c in self.chunks),
            "pickle_seconds": sum(c.pickle_seconds() for c in self.chunks),
            "payload_bytes_in": sum(c.payload_bytes_in for c in self.chunks),
            "payload_bytes_out": sum(c.payload_bytes_out for c in self.chunks),
        }


class ParallelProfile:
    """The overhead ledger one executor accumulates across dispatches."""

    def __init__(self) -> None:
        self.dispatches: List[DispatchProfile] = []

    def add(self, dispatch: DispatchProfile) -> None:
        self.dispatches.append(dispatch)

    def to_block(
        self,
        executor: str,
        workers: int,
        parent_pid: int,
        profile_memory: bool,
    ) -> Dict[str, Any]:
        """The additive ``parallel_profile`` run-report block.

        ``{}`` when nothing was profiled (untraced runs), so serial and
        untraced reports keep their exact previous shape. Chunk rows
        are flattened in (dispatch, chunk-index) order; lanes group
        chunks by worker pid in order of first appearance — both
        deterministic given the workload, with only the pid *values*
        schedule-dependent.
        """
        if not self.dispatches:
            return {}
        chunk_rows: List[Dict[str, Any]] = []
        lanes: Dict[int, Dict[str, Any]] = {}
        lane_order: List[int] = []
        for dispatch in self.dispatches:
            for chunk in sorted(dispatch.chunks, key=lambda c: c.chunk):
                row = chunk.to_dict()
                row["label"] = dispatch.label
                row["map_call"] = dispatch.map_call
                chunk_rows.append(row)
                lane = lanes.get(chunk.worker)
                if lane is None:
                    lane = {
                        "worker": chunk.worker,
                        "role": "parent" if chunk.worker == parent_pid
                        else "worker",
                        "chunks": 0,
                        "compute_seconds": 0.0,
                        "queue_seconds": 0.0,
                        "pickle_seconds": 0.0,
                        "payload_bytes_in": 0,
                        "payload_bytes_out": 0,
                    }
                    lanes[chunk.worker] = lane
                    lane_order.append(chunk.worker)
                lane["chunks"] += 1
                lane["compute_seconds"] += chunk.compute_seconds
                lane["queue_seconds"] += chunk.queue_seconds
                lane["pickle_seconds"] += chunk.pickle_seconds()
                lane["payload_bytes_in"] += chunk.payload_bytes_in
                lane["payload_bytes_out"] += chunk.payload_bytes_out
        wall = sum(d.wall_seconds for d in self.dispatches)
        accounted = sum(d.accounted_seconds() for d in self.dispatches)
        peaks = [
            c.tracemalloc_peak_bytes
            for d in self.dispatches
            for c in d.chunks
            if c.tracemalloc_peak_bytes is not None
        ]
        totals: Dict[str, Any] = {
            "dispatches": len(self.dispatches),
            "chunks": len(chunk_rows),
            "wall_seconds": wall,
            "compute_seconds": sum(
                row["compute_seconds"] for row in chunk_rows
            ),
            "queue_seconds": sum(row["queue_seconds"] for row in chunk_rows),
            "pickle_seconds": sum(
                row["pickle_seconds"] for row in chunk_rows
            ),
            "payload_bytes_in": sum(
                row["payload_bytes_in"] for row in chunk_rows
            ),
            "payload_bytes_out": sum(
                row["payload_bytes_out"] for row in chunk_rows
            ),
            "accounted_seconds": accounted,
            "accounted_fraction": (
                accounted / wall if wall > 0.0 else 1.0
            ),
            "tracemalloc_peak_bytes": max(peaks) if peaks else None,
        }
        return {
            "executor": executor,
            "workers": workers,
            "parent_pid": parent_pid,
            "profile_memory": profile_memory,
            "dispatches": [d.to_dict() for d in self.dispatches],
            "chunks": chunk_rows,
            "lanes": [lanes[pid] for pid in lane_order],
            "totals": totals,
        }
