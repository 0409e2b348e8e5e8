"""Deterministic parallel execution for blocking pair scoring.

One scoring dispatch reaches the pool, ``mfiblocks.score_pairs``;
mining and the classifier's ranking run serially under every executor.
The layer has five small parts (full design in ``docs/PARALLELISM.md``):

* **chunking** (:mod:`repro.parallel.chunking`) — pure partition
  planners; no element lost, duplicated, or reordered;
* **executors** (:mod:`repro.parallel.executor`) — :class:`SerialExecutor`
  (the reference) and the ``ProcessPoolExecutor``-backed
  :class:`MultiprocessExecutor` with submission-order result collection
  and deterministic in-process retry of chunks lost to a worker crash;
* **merges** (:mod:`repro.parallel.merge`) — order-independent folds of
  chunk results (max per canonical pair key);
* **work functions** (:mod:`repro.parallel.work`) — the module-level,
  picklable, argument-determined chunk body :func:`score_pair_chunk`,
  plus the one worker entry :func:`run_chunk` every dispatched chunk
  runs through;
* **shared state** (:mod:`repro.parallel.shared`) — read-only objects
  published once per run and referenced from ``(ref, pairs)``
  payloads.

Together they make ``repro resolve --workers 4`` byte-identical to
``--workers 1`` — determinism by merge, not by schedule — which
``tests/test_parallel.py`` pins with a parity matrix and
``tests/test_property_invariants.py`` pins property-by-property.
"""

from __future__ import annotations

from repro.parallel.adversarial import AdversarialScheduleExecutor
from repro.parallel.chunking import fixed_chunks, partition_evenly
from repro.parallel.executor import (
    Executor,
    ExecutorStats,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.parallel.merge import max_merge_into
from repro.parallel.shared import (
    SharedStateHandle,
    publish_shared_state,
    shared_generation,
    shared_state,
)
from repro.parallel.work import run_chunk, score_pair_chunk

__all__ = [
    "AdversarialScheduleExecutor",
    "fixed_chunks",
    "partition_evenly",
    "Executor",
    "ExecutorStats",
    "MultiprocessExecutor",
    "SerialExecutor",
    "make_executor",
    "max_merge_into",
    "SharedStateHandle",
    "publish_shared_state",
    "shared_generation",
    "shared_state",
    "run_chunk",
    "score_pair_chunk",
]
