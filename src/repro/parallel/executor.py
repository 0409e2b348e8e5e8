"""Executors: serial and process-pool dispatch of chunked work.

The pipeline's one dispatched hot path, pairwise block scoring, is
embarrassingly parallel; what it must never be is *schedule-dependent*.
The contract here is determinism **by merge, not by schedule**
(``docs/PARALLELISM.md``):

* chunk plans come from :mod:`repro.parallel.chunking` and are pure
  functions of the work list;
* :meth:`Executor.map_chunks` returns results in **submission order**
  regardless of completion order;
* chunk work functions are module-level and argument-determined (they
  run identically in a worker, in-process, or in a crash retry);
* every consumer merges chunk results with an order-independent
  function from :mod:`repro.parallel.merge`.

Under those four rules a run with ``--workers 4`` is byte-identical to
``--workers 1``, which is what the parity harness in
``tests/test_parallel.py`` pins.

Every chunk takes one route: the parent pickles the payload, the
worker entry :func:`~repro.parallel.work.run_chunk` unpickles it,
computes, and pickles the result, and the parent unpickles that. A
chunk run inline (the only chunk of a dispatch) or retried in-process
goes through the same entry. Tracing adds worker-side spans and
parent-side time stamps; it never changes the route.

Resilience: a :class:`~repro.resilience.faults.WorkerCrashPlan` can kill
one worker mid-chunk (the ``repro chaos`` ``worker-crash`` scenario). A
broken pool loses the results of every unfinished chunk; the executor
recomputes exactly those chunks in-process — the work functions are
deterministic, so the retry reproduces what the worker would have
returned, and the merged output is unchanged. A *hung* worker (a
:class:`~repro.resilience.faults.WorkerHangPlan` in tests; a deadlock or
I/O stall in production) is handled the same way when a per-chunk
``timeout`` is set: the overdue chunk is declared lost, recomputed
in-process exactly once, and counted as ``parallel.chunks_timed_out`` —
bounded retries, deterministic outcome.
"""

from __future__ import annotations

import abc
import os
import pickle
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.contracts import deterministic, impure
from repro.obs.clock import Clock
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs.worker import (
    ChunkProfile,
    DispatchProfile,
    ParallelProfile,
    merge_worker_events,
)
from repro.parallel.chunking import fixed_chunks, partition_evenly
from repro.parallel.shared import (
    SharedStateHandle,
    adopt_registry,
    registry_snapshot,
    shared_generation,
    worker_context,
)
from repro.parallel.work import ChunkTask, run_chunk
from repro.resilience.faults import (
    WorkerCrashPlan,
    WorkerHangPlan,
    hang_worker,
    kill_current_worker,
)

__all__ = [
    "MIN_DISPATCH_PAIRS",
    "ExecutorStats",
    "Executor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "make_executor",
]

T = TypeVar("T")

#: A chunk work function: module-level, picklable, argument-determined.
ChunkFunc = Callable[[Any], Any]

#: Pair lists shorter than this are scored inline with the batch
#: kernels instead of paying dispatch. Results are identical either
#: way; this only moves where the work runs.
MIN_DISPATCH_PAIRS = 512


@dataclass
class ExecutorStats:
    """Dispatch accounting, echoed into the run report ``parallel`` block.

    Counts are deterministic for a given workload and worker count —
    except ``worker_retries``/``kills_armed``, which are only non-zero
    under injected faults.
    """

    map_calls: int = 0
    chunks: int = 0
    worker_chunks: int = 0
    inline_chunks: int = 0
    worker_retries: int = 0
    kills_armed: int = 0
    hangs_armed: int = 0
    chunks_timed_out: int = 0
    shared_dispatches: int = 0
    pools_created: int = 0

    def to_echo(self) -> Dict[str, int]:
        """Every counter, in field order (the report key order)."""
        return asdict(self)


class Executor(abc.ABC):
    """Runs chunked work; subclasses choose where chunks execute.

    ``workers`` is the parallelism degree; ``chunk_size`` optionally
    overrides the default one-chunk-per-worker plan with fixed-size
    chunks (useful to test merge behavior across many small chunks).
    """

    name: str = "executor"

    def __init__(self, workers: int, chunk_size: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.stats = ExecutorStats()

    @property
    def parallel(self) -> bool:
        """True when this executor actually dispatches to workers."""
        return self.workers > 1

    def close(self) -> None:
        """Release any retained resources (warm pools); idempotent."""

    @deterministic
    def plan_chunks(self, items: Sequence[T]) -> List[List[T]]:
        """The deterministic chunk plan for ``items`` (a partition)."""
        if self.chunk_size is not None:
            return fixed_chunks(items, self.chunk_size)
        return partition_evenly(items, self.workers)

    def to_echo(self) -> Dict[str, Any]:
        """JSON-safe self-description for run reports and debugging."""
        echo: Dict[str, Any] = {
            "executor": self.name,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
        }
        echo.update(self.stats.to_echo())
        return echo

    def profile_echo(self) -> Dict[str, Any]:
        """The additive ``parallel_profile`` report block.

        ``{}`` unless this executor recorded per-chunk overhead (only
        traced :class:`MultiprocessExecutor` dispatches do), so serial
        and untraced reports keep their previous shape. Like
        :meth:`to_echo` this is measurement, not configuration — it
        never reaches config echoes or checkpoint fingerprints
        (reprolint RL205).
        """
        return {}

    def _count_shared(self, shared: Optional[SharedStateHandle]) -> None:
        """Count a dispatch whose payloads carry ``shared.ref``.

        Every ``ref`` is a registry token, so any publication counts.
        """
        if shared is not None:
            self.stats.shared_dispatches += 1

    @abc.abstractmethod
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared: Optional[SharedStateHandle] = None,
    ) -> List[Any]:
        """Apply ``func`` to every payload; results in submission order.

        ``shared`` is the publication the payloads reference, if any.
        Executors use it only for the ``shared_dispatches`` stat — it
        never influences execution.
        """


class SerialExecutor(Executor):
    """In-process execution: the reference the parallel paths must match."""

    name = "serial"

    def __init__(self, chunk_size: Optional[int] = None) -> None:
        super().__init__(1, chunk_size)

    @deterministic
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared: Optional[SharedStateHandle] = None,
    ) -> List[Any]:
        tracer = tracer if tracer is not None else NULL_TRACER
        stats = self.stats
        stats.map_calls += 1
        stats.chunks += len(payloads)
        stats.inline_chunks += len(payloads)
        with tracer.span(label, executor=self.name, chunks=len(payloads)):
            return [func(payload) for payload in payloads]


class MultiprocessExecutor(Executor):
    """ProcessPoolExecutor-backed dispatch with deterministic crash retry.

    Chunk *results* are collected in submission order, so completion
    order — the one thing the OS scheduler controls — never reaches a
    caller. Every chunk runs through :func:`~repro.parallel.work.
    run_chunk` on explicitly pickled payloads, traced or not. With
    tracing enabled each chunk also runs under a
    :class:`~repro.obs.worker.WorkerTracer` whose buffered events ship
    back with the result and merge into the parent trace keyed by chunk
    index, while the executor's :class:`~repro.obs.worker.
    ParallelProfile` ledger records per-chunk pickle bytes/time, queue
    wait vs compute, and (with ``profile_memory``) tracemalloc peaks.
    Traced output is byte-identical to untraced
    (``tests/test_worker_trace.py``).

    ``worker_fault`` is the chaos hook: when the targeted chunk comes
    up, :func:`~repro.resilience.faults.kill_current_worker` is
    submitted in its place, the pool breaks, and the lost chunks are
    recomputed in-process.

    ``timeout`` bounds how long the parent waits for each chunk (the
    collection loop walks futures in submission order, so a chunk's
    budget starts when its predecessor is collected). An overdue chunk
    is treated exactly like one lost to a crash: declared lost,
    recomputed in-process once, and counted in
    ``stats.chunks_timed_out``. The stuck worker is abandoned —
    shutdown does not wait for it — so a single hang costs one timeout
    plus one in-process recompute, never a stuck run. ``worker_hang``
    is the matching chaos hook: the targeted chunk is replaced with
    :func:`~repro.resilience.faults.hang_worker`.
    """

    name = "multiprocess"

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int] = None,
        worker_fault: Optional[WorkerCrashPlan] = None,
        profile_memory: bool = False,
        timeout: Optional[float] = None,
        worker_hang: Optional[WorkerHangPlan] = None,
    ) -> None:
        super().__init__(workers, chunk_size)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.worker_fault = worker_fault
        self.worker_hang = worker_hang
        self.timeout = timeout
        self.profile_memory = profile_memory
        self.profile = ParallelProfile()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = -1
        self._pool_finalizer: Optional[weakref.finalize] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The warm worker pool, rebuilt only when it must be.

        A pool is reusable while the shared-state registry generation
        it was built under is current — its workers adopt a registry
        snapshot at start (inherited under fork, pickled once per
        worker under spawn), so a publish/close after that makes the
        snapshot stale. Faulted or timed-out pools are discarded by the
        dispatch loop. The pool is always ``self.workers`` wide
        (workers spawn lazily, so an undersized dispatch never pays for
        idle slots).
        """
        generation = shared_generation()
        pool = self._pool
        if pool is not None and self._pool_generation == generation:
            return pool
        self._discard_pool(wait=True)
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=worker_context(),
            initializer=adopt_registry,
            initargs=(registry_snapshot(),),
        )
        self._pool = pool
        self._pool_generation = generation
        # GC safety net: an executor dropped without close() must not
        # leave idle workers behind for the rest of the process.
        self._pool_finalizer = weakref.finalize(
            self, _abandon_pool, pool
        )
        self.stats.pools_created += 1
        return pool

    def _discard_pool(self, wait: bool) -> None:
        """Shut the warm pool down (broken, stale, or at close())."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self._pool_generation = -1
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        pool.shutdown(wait=wait, cancel_futures=not wait)

    def close(self) -> None:
        self._discard_pool(wait=True)

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        call_index: int,
        index: int,
        task: ChunkTask,
    ) -> "Future[Any]":
        """Submit one chunk, or the fault the chaos plans put in its place."""
        fault = self.worker_fault
        hang = self.worker_hang
        if fault is not None and fault.should_kill(call_index, index):
            self.stats.kills_armed += 1
            return pool.submit(kill_current_worker)
        if hang is not None and hang.should_hang(call_index, index):
            self.stats.hangs_armed += 1
            return pool.submit(hang_worker, hang.seconds)
        return pool.submit(run_chunk, task)

    @impure(
        reason="spawns OS worker processes whose completion order is "
               "scheduler-dependent, and when traced measures queue wait "
               "and worker pids; callers restore determinism by "
               "collecting in submission order and merging order-"
               "independently (docs/PARALLELISM.md)"
    )
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared: Optional[SharedStateHandle] = None,
    ) -> List[Any]:
        """The one dispatch loop: pickle, submit, collect, retry, unpickle.

        With tracing enabled the loop also stamps parent-side times and
        records a :class:`DispatchProfile`: its buckets (serialize/
        submit/collect/teardown/retry/deserialize/merge) partition the
        dispatch span's wall time, which is what keeps
        ``accounted_fraction`` >= 0.9. Untraced, every stamp reads 0.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        stats = self.stats
        call_index = stats.map_calls
        stats.map_calls += 1
        work = list(payloads)
        count = len(work)
        stats.chunks += count
        if not work:
            return []
        self._count_shared(shared)
        traced = tracer.enabled
        clock = tracer.clock
        now = clock.now if traced else _unstamped
        profile_memory = traced and self.profile_memory
        inline = (
            count == 1
            and self.worker_fault is None
            and self.worker_hang is None
        )
        outputs: Dict[int, Tuple[bytes, Optional[Dict[str, Any]]]] = {}
        submitted_at: List[float] = [0.0] * count
        completed_at: Dict[int, float] = {}
        failed: List[int] = []
        timed_out: List[int] = []
        lost: List[int] = []
        submit_seconds = collect_seconds = 0.0
        teardown_seconds = retry_seconds = 0.0
        with tracer.span(label, executor=self.name, chunks=count):
            wall_start = now()
            serialize: List[float] = []
            blobs: List[bytes] = []
            for payload in work:
                t0 = now()
                blobs.append(
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                )
                serialize.append(now() - t0)
            tasks: List[ChunkTask] = [
                (func, index, blob, traced, profile_memory)
                for index, blob in enumerate(blobs)
            ]
            if inline:
                # One chunk gains nothing from a pool; skip the process
                # cost but keep the route.
                stats.inline_chunks += 1
                submitted_at[0] = now()
                outputs[0] = run_chunk(tasks[0])
                completed_at[0] = now()
                collect_seconds = completed_at[0] - submitted_at[0]
            else:
                # Pool start-up counts as submit time: timed anywhere
                # else it would be in the wall but in no bucket.
                t0 = now()
                pool = self._ensure_pool()
                try:
                    futures: List["Future[Any]"] = []
                    try:
                        for index, task in enumerate(tasks):
                            submitted_at[index] = now()
                            future = self._submit(
                                pool, call_index, index, task
                            )
                            if traced:
                                future.add_done_callback(
                                    _completion_marker(
                                        completed_at, index, clock
                                    )
                                )
                            futures.append(future)
                    except BrokenProcessPool:
                        # A warm worker died while chunks were still
                        # being submitted; everything unsubmitted is lost
                        # and recomputed below, like any other loss.
                        pass
                    submit_seconds = now() - t0
                    for index in range(count):
                        if index >= len(futures):
                            failed.append(index)
                            continue
                        t0 = now()
                        try:
                            outputs[index] = futures[index].result(
                                timeout=self.timeout
                            )
                        except BrokenProcessPool:
                            # The worker died before returning this
                            # chunk; recompute below. Anything else (a
                            # real exception raised by ``func``)
                            # propagates unchanged.
                            failed.append(index)
                        except FuturesTimeout:
                            # The worker is wedged, not dead: same lost-
                            # chunk treatment, but the pool must not be
                            # waited on at shutdown.
                            timed_out.append(index)
                            futures[index].cancel()
                        collect_seconds += now() - t0
                finally:
                    t0 = now()
                    # A clean dispatch keeps the pool warm for the next
                    # call. A broken pool is useless and a hung worker
                    # must never park shutdown — discard without waiting
                    # (not-yet-started futures are cancelled).
                    if failed or timed_out:
                        self._discard_pool(wait=False)
                    teardown_seconds = now() - t0
                lost = sorted(failed + timed_out)
                stats.worker_chunks += count - len(lost)
                t0 = now()
                for index in lost:
                    # Deterministic retry: the same task yields the same
                    # result bytes the worker would have produced (its
                    # trace is attributed to the parent pid).
                    outputs[index] = run_chunk(tasks[index])
                    completed_at[index] = now()
                    stats.worker_retries += 1
                stats.chunks_timed_out += len(timed_out)
                retry_seconds = now() - t0

            results: List[Any] = []
            deserialize: List[float] = []
            for index in range(count):
                t0 = now()
                results.append(pickle.loads(outputs[index][0]))
                deserialize.append(now() - t0)
            # The merge bucket runs from here to the dispatch's last
            # stamp, so the counters, the trace merge and the profile
            # rows sit in a bucket: a stall in an untimed stretch (say,
            # another parent thread holding the GIL) is in the wall but
            # in no bucket.
            merge_start = now()
            tracer.count("parallel.chunks", count)
            if lost:
                tracer.count("parallel.worker_retries", len(lost))
            if timed_out:
                tracer.count("parallel.chunks_timed_out", len(timed_out))
            if traced:
                traces = [outputs[index][1] or {} for index in range(count)]
                merge_worker_events(tracer, traces)
                profiles = [
                    _chunk_profile(
                        index,
                        trace,
                        inline=inline,
                        retried=index in lost,
                        bytes_in=len(blobs[index]),
                        bytes_out=len(outputs[index][0]),
                        serialize_seconds=serialize[index],
                        deserialize_seconds=deserialize[index],
                        round_trip_seconds=max(
                            0.0,
                            completed_at.get(index, submitted_at[index])
                            - submitted_at[index],
                        ),
                    )
                    for index, trace in enumerate(traces)
                ]
                tracer.count(
                    "parallel.payload_bytes_in", sum(len(b) for b in blobs)
                )
                tracer.count(
                    "parallel.payload_bytes_out",
                    sum(p.payload_bytes_out for p in profiles),
                )
                peaks = [
                    p.tracemalloc_peak_bytes
                    for p in profiles
                    if p.tracemalloc_peak_bytes is not None
                ]
                if peaks:
                    tracer.gauge(
                        "parallel.tracemalloc_peak_bytes", float(max(peaks))
                    )
                wall_end = now()
                self.profile.add(
                    DispatchProfile(
                        label=label,
                        map_call=call_index,
                        wall_seconds=wall_end - wall_start,
                        serialize_seconds=sum(serialize),
                        submit_seconds=submit_seconds,
                        collect_seconds=collect_seconds,
                        teardown_seconds=teardown_seconds,
                        retry_seconds=retry_seconds,
                        deserialize_seconds=sum(deserialize),
                        merge_seconds=wall_end - merge_start,
                        chunks=profiles,
                    )
                )
        return results

    def profile_echo(self) -> Dict[str, Any]:
        return self.profile.to_block(
            executor=self.name,
            workers=self.workers,
            parent_pid=os.getpid(),
            profile_memory=self.profile_memory,
        )


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """weakref.finalize target: reap a warm pool its executor dropped.

    Must not reference the executor (the finalizer fires because it is
    gone). No waiting — idle workers exit as soon as they see the
    shutdown sentinel.
    """
    pool.shutdown(wait=False, cancel_futures=True)


def _unstamped() -> float:
    """The untraced loop's clock: every stamp reads 0."""
    return 0.0


def _chunk_profile(
    index: int,
    trace: Dict[str, Any],
    *,
    inline: bool,
    retried: bool,
    bytes_in: int,
    bytes_out: int,
    serialize_seconds: float,
    deserialize_seconds: float,
    round_trip_seconds: float,
) -> ChunkProfile:
    """One chunk's overhead row from parent stamps + its worker trace."""
    worker_seconds = float(trace.get("worker_seconds", 0.0))
    peak = trace.get("tracemalloc_peak_bytes")
    return ChunkProfile(
        chunk=index,
        worker=int(trace.get("pid", 0)),
        inline=inline,
        retried=retried,
        payload_bytes_in=bytes_in,
        payload_bytes_out=bytes_out,
        serialize_seconds=serialize_seconds,
        deserialize_seconds=float(trace.get("deserialize_seconds", 0.0)),
        compute_seconds=float(trace.get("compute_seconds", 0.0)),
        result_serialize_seconds=float(trace.get("serialize_seconds", 0.0)),
        result_deserialize_seconds=deserialize_seconds,
        queue_seconds=max(0.0, round_trip_seconds - worker_seconds),
        round_trip_seconds=round_trip_seconds,
        tracemalloc_peak_bytes=int(peak) if peak is not None else None,
    )


def _completion_marker(
    completed_at: Dict[int, float], index: int, clock: Clock
) -> Callable[["Future[Any]"], None]:
    """A done-callback stamping when a chunk's future settled.

    Fires on the pool's callback thread the instant the future
    completes — before the parent thread unblocks from ``result()`` on
    an *earlier* chunk — so per-chunk queue wait is not inflated by the
    parent's submission-order collection. Dict assignment is atomic
    under the GIL; distinct chunks write distinct keys.
    """

    def mark(_future: "Future[Any]") -> None:
        completed_at[index] = clock.now()

    return mark


def make_executor(
    workers: int,
    chunk_size: Optional[int] = None,
    profile_memory: bool = False,
) -> Executor:
    """The executor for a ``--workers N`` request (serial when N <= 1)."""
    if workers <= 1:
        return SerialExecutor(chunk_size=chunk_size)
    return MultiprocessExecutor(
        workers, chunk_size=chunk_size, profile_memory=profile_memory
    )
