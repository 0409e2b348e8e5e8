"""Chunk work functions and the one worker entry that runs them.

Every chunk :class:`~repro.parallel.executor.MultiprocessExecutor`
dispatches — to a pool worker, inline as the only chunk, or as an
in-process retry after a crash or timeout — runs through
:func:`run_chunk`: the parent pickles the payload, ``run_chunk``
unpickles it, calls the work function, and pickles the result for the
parent to unpickle. Tracing only adds a :class:`WorkerTracer` around
those steps; the route is the same.

A worker shares nothing with the parent but the pickled payload and
the shared-state registry snapshot it adopted at pool start: no
tracer, no caches, no ambient state. Each work function is therefore
argument-determined — the property that makes a chunk's result
identical wherever it runs (``docs/PARALLELISM.md``). The one scoring
dispatch, ``mfiblocks.score_pairs``, runs :func:`score_pair_chunk` on a
``(ref, pairs)`` payload: ``ref`` resolves through
:func:`~repro.parallel.shared.shared_state` to the published scorer and
corpus, and scoring runs on the batch kernels.
"""

from __future__ import annotations

import pickle
import tracemalloc
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.contracts import fork_safe, impure, picklable_work, shared_readonly
from repro.obs.tracer import Tracer
from repro.obs.worker import (
    WORKER_CHUNK_SPAN,
    WORKER_COMPUTE_SPAN,
    WORKER_DESERIALIZE_SPAN,
    WORKER_SERIALIZE_SPAN,
    WorkerTracer,
)
from repro.parallel.shared import shared_state

if TYPE_CHECKING:
    from repro.blocking.scoring import BlockScorer
    from repro.similarity.interning import InternedCorpus

__all__ = [
    "score_pair_chunk",
    "run_chunk",
]

Pair = Tuple[int, int]

#: (work function, chunk index, pickled chunk payload, trace?,
#: profile memory?)
ChunkTask = Tuple[Callable[[Any], Any], int, bytes, bool, bool]

#: (published shared-state registry token, pairs to score).
PairChunk = Tuple[str, List[Pair]]


@picklable_work
@fork_safe
@shared_readonly
def score_pair_chunk(payload: PairChunk) -> List[Tuple[Pair, float]]:
    """Blocking pair similarity for one chunk of candidate pairs.

    The scorer and the interned corpus come from the published shared
    state. The batch kernels are bit-identical to the scalar
    ``BlockScorer.pair_similarity`` per pair, so the floats match the
    serial path's exactly.
    """
    ref, pairs = payload
    state = shared_state(ref)
    scorer: "BlockScorer" = state["scorer"]
    corpus: "InternedCorpus" = state["corpus"]
    scores = scorer.pair_similarity_batch(corpus, pairs)
    return list(zip(pairs, scores))


@picklable_work
@fork_safe
@impure(
    reason="reads the worker clock and pid to attribute per-chunk time "
           "when traced; the wrapped work function stays argument-"
           "determined, so the result bytes do not depend on tracing"
)
def run_chunk(task: ChunkTask) -> Tuple[bytes, Optional[Dict[str, Any]]]:
    """Run one chunk: unpickle, compute, pickle the result.

    Returns ``(result pickle, worker-trace payload)``. The trace is
    ``None`` unless ``task`` asks for tracing, in which case the steps
    run under ``worker.deserialize``/``worker.compute``/
    ``worker.serialize`` spans of a :class:`WorkerTracer` (the compute
    optionally under ``tracemalloc``) and the parent merges the buffer
    keyed by chunk index. Runs identically in a pool worker, inline, or
    in a crash retry — only the pid in the trace differs.
    """
    func, chunk_index, blob, traced, profile_memory = task
    tracer: Union[WorkerTracer, Tracer] = (
        WorkerTracer() if traced else Tracer(enabled=False)
    )
    peak: Optional[int] = None
    with tracer.span(WORKER_CHUNK_SPAN, chunk=chunk_index):
        with tracer.span(WORKER_DESERIALIZE_SPAN):
            payload = pickle.loads(blob)
        if profile_memory:
            tracemalloc.start()
        try:
            with tracer.span(WORKER_COMPUTE_SPAN):
                result = func(payload)
        finally:
            if profile_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        with tracer.span(WORKER_SERIALIZE_SPAN):
            result_blob = pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL
            )
    if not isinstance(tracer, WorkerTracer):
        return result_blob, None
    return result_blob, tracer.export(
        chunk_index,
        result_bytes=len(result_blob),
        tracemalloc_peak_bytes=peak,
    )
