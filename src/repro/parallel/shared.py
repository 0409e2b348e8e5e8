"""Shared worker state: publish heavy read-only objects once per run.

The pair-scoring jobs need a large read-only context in every chunk —
the scorer plus the interned corpus, or the dataset plus a trained
model. Pickling that context into every chunk payload costs tens of
milliseconds per chunk, so the parent publishes it once instead:

* :func:`publish_shared_state` returns a :class:`SharedStateHandle`
  whose ``ref`` the work functions resolve through :func:`shared_state`.
  Chunk payloads are ``(ref, pairs)``.
* Where worker pools fork (:func:`shared_state_supported`; the pool
  context, :func:`worker_context`, is ``fork`` wherever the platform
  default is fork-based — Linux on every Python version), ``ref`` is a
  deterministic registry token. The objects go into a module-global
  registry that forked workers inherit, and an
  :class:`~repro.similarity.interning.InternedCorpus`'s big numpy
  arrays move into ``multiprocessing.shared_memory`` segments, so the
  per-worker cost is a page-table entry, not a copy.
* Where pools spawn (macOS, Windows) ``ref`` is the object mapping
  itself: it travels in the pickled payload, nothing is registered,
  and no segments are made. Same bytes out, just more pickling.
* A *generation* counter (:func:`shared_generation`) increments on
  every registry publish/close, so the executor knows a warm worker
  pool forked before the current publication cannot see it and must be
  rebuilt.

Ownership (reprolint RL204): the handle owns the segments — its
``close()`` both ``close()``\\ s and ``unlink()``\\ s every one, after
rebinding the corpus to private copies of the arrays so no live view
dangles into a freed buffer. Handles are context managers; the
mining/classify callers publish in a ``with`` block (or
``try/finally``) around dispatch.

Workers treat the registry as frozen: work functions that read it are
``@shared_readonly`` and never write. Only the parent mutates it, in
publish/close pairs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
from multiprocessing import shared_memory
from multiprocessing.context import BaseContext
from typing import Any, Dict, Iterator, List, Mapping, Union

import numpy as np

from repro.contracts import deterministic
from repro.similarity.interning import InternedCorpus

__all__ = [
    "SharedRef",
    "SharedStateHandle",
    "publish_shared_state",
    "shared_state",
    "shared_generation",
    "shared_state_supported",
    "worker_context",
]

#: token -> published objects; forked workers inherit a snapshot.
_REGISTRY: Dict[str, Mapping[str, Any]] = {}

#: Bumped on every publish/close so executors can detect stale pools.
_GENERATION: int = 0

#: Deterministic token source (reprolint forbids uuid/random here).
_TOKENS: Iterator[int] = itertools.count(1)

#: What a work function resolves: a registry token (fork) or the
#: published mapping itself (every other start method).
SharedRef = Union[str, Mapping[str, Any]]


def worker_context() -> BaseContext:
    """The ``multiprocessing`` context worker pools start under.

    ``fork`` wherever the platform's default start method is fork-based
    (``fork``, or ``forkserver`` on Python 3.14+), so which route shared
    state takes does not depend on the interpreter version; the default
    elsewhere (``spawn`` on macOS and Windows).
    """
    method = multiprocessing.get_start_method(allow_none=False)
    return multiprocessing.get_context(
        "fork" if method == "forkserver" else method
    )


@deterministic
def shared_state_supported() -> bool:
    """True when forked workers inherit the parent's registry."""
    return worker_context().get_start_method() == "fork"


def shared_generation() -> int:
    """The current registry generation (see module docstring)."""
    return _GENERATION


def shared_state(ref: SharedRef) -> Mapping[str, Any]:
    """Resolve a handle's ``ref`` (in the parent or a worker)."""
    if not isinstance(ref, str):
        return ref
    try:
        return _REGISTRY[ref]
    except KeyError:
        raise RuntimeError(
            f"shared state {ref!r} is not published in this process; "
            "the worker pool predates the publication (stale generation) "
            "or the handle was closed before dispatch finished"
        ) from None


class SharedStateHandle:
    """Owner of one publication: registry entry + shm segments.

    ``ref`` is what chunk payloads carry (see the module docstring).
    ``segment_bytes`` is the total shared-memory footprint (0 when the
    published objects carried no interned corpus); ``baseline_bytes``
    is what one pickled copy of the published objects costs — the
    executor multiplies it by dispatched chunks to report
    ``bytes_not_pickled``. Both are 0 when ``ref`` is the mapping.
    """

    def __init__(
        self,
        ref: SharedRef,
        segments: List[shared_memory.SharedMemory],
        corpora: List[InternedCorpus],
        baseline_bytes: int,
    ) -> None:
        self.ref = ref
        self.baseline_bytes = baseline_bytes
        self.segment_bytes = sum(segment.size for segment in segments)
        self._segments = segments
        self._corpora = corpora
        self._closed = False

    @property
    def shared(self) -> bool:
        """True when payloads carry a registry token, not the objects."""
        return isinstance(self.ref, str)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unpublish and release every owned shm segment (idempotent)."""
        global _GENERATION
        if self._closed:
            return
        self._closed = True
        if not self.shared:
            return
        _REGISTRY.pop(self.ref, None)
        _GENERATION += 1
        for corpus in self._corpora:
            # Rebind the corpus to private copies so its arrays outlive
            # the segments (and so close() below has no live exports).
            corpus.copy_arrays_private()
        for segment in self._segments:
            segment.close()
            segment.unlink()

    def __enter__(self) -> "SharedStateHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _allocate_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create one shm segment; ownership transfers to the caller's
    :class:`SharedStateHandle`, whose ``close()`` pairs ``close()`` +
    ``unlink()`` for every segment it owns (reprolint RL204)."""
    return shared_memory.SharedMemory(create=True, size=max(1, nbytes))


def _move_to_shared_memory(
    corpus: InternedCorpus,
) -> List[shared_memory.SharedMemory]:
    """Rehome the corpus's big arrays into shm segments it then reads."""
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    arrays = corpus.export_arrays()
    for name, array in arrays.items():
        segment = _allocate_segment(array.nbytes)
        segments.append(segment)
        view: np.ndarray = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf
        )
        view[...] = array
        views[name] = view
    corpus.adopt_arrays(views)
    return segments


def publish_shared_state(**objects: Any) -> SharedStateHandle:
    """Publish read-only objects for the ``(ref, pairs)`` work functions.

    On fork, any :class:`InternedCorpus` among ``objects`` has its
    arrays moved into shared memory and everything is registered under
    a fresh deterministic token. Elsewhere the handle's ``ref`` is the
    mapping itself. Returns the owning handle — close it (or use it as
    a context manager) once dispatch is done.

    Side effects (reviewed, parent-side only): creates OS shared-memory
    segments (owned by the returned handle) and mutates the process-
    local publication registry. The published *values* are frozen, and
    the token sequence is a deterministic process-local counter, so
    contracted callers stay byte-reproducible.
    """
    global _GENERATION
    published = dict(objects)
    if not shared_state_supported():
        return SharedStateHandle(published, [], [], 0)
    token = f"shared:{next(_TOKENS)}"
    baseline_bytes = len(
        pickle.dumps(published, protocol=pickle.HIGHEST_PROTOCOL)
    )
    segments: List[shared_memory.SharedMemory] = []
    corpora: List[InternedCorpus] = []
    for value in published.values():
        if isinstance(value, InternedCorpus):
            corpora.append(value)
            segments.extend(_move_to_shared_memory(value))
    _REGISTRY[token] = published
    _GENERATION += 1
    return SharedStateHandle(token, segments, corpora, baseline_bytes)
