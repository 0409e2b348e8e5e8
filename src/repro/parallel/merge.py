"""Order-independent merges — the determinism half of the parallel layer.

A parallel stage is deterministic when (1) its chunk plan is a partition
of the work (:mod:`repro.parallel.chunking`) and (2) its merge is
invariant under any permutation of the chunk results. Max-merge has that
invariance because ``max`` is commutative, associative, and idempotent:
whatever order worker results arrive in, every key ends with the same
score. This is exactly the accumulation MFIBlocks already performs
serially — a pair's score is its best score over all admitting blocks —
so the parallel path computes the *same function*, not an approximation.

One caveat the callers must own: a merged ``dict`` carries an insertion
order that *does* depend on arrival order. Mapping equality is
order-insensitive, and the one consumer in this codebase, MFIBlocks'
pair scoring, sorts before producing ordered output
(``BlockingResult.ranked_pairs``), which is what makes ranked output
byte-identical across worker counts. See ``docs/PARALLELISM.md``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple, TypeVar

from repro.contracts import commutative_merge, deterministic

__all__ = ["max_merge_into"]

K = TypeVar("K", bound=Hashable)


@commutative_merge
@deterministic
def max_merge_into(
    target: Dict[K, float], updates: Iterable[Tuple[K, float]]
) -> Dict[K, float]:
    """Max-merge ``(key, score)`` updates into ``target`` in place.

    Returns ``target`` for chaining. Any permutation of the updates (or
    of successive calls) yields an equal mapping.
    """
    for key, score in updates:
        current = target.get(key)
        if current is None or score > current:
            target[key] = score
    return target
