"""Shared worker state: publish heavy read-only objects once per run.

The one scoring dispatch, ``mfiblocks.score_pairs``, needs a large
read-only context in every chunk: the scorer plus the interned corpus.
Pickling that context into every chunk payload costs tens of
milliseconds per chunk, so the parent publishes it once instead, and
every start method takes the same route:

* :func:`publish_shared_state` registers the objects in a module-global
  registry under a deterministic token and returns a
  :class:`SharedStateHandle` whose ``ref`` is that token. Chunk
  payloads are ``(ref, pairs)``; work functions resolve ``ref`` through
  :func:`shared_state`.
* Worker pools start with ``initializer=adopt_registry,
  initargs=(registry_snapshot(),)``, so each worker holds the registry
  as it stood when its pool was built. Under fork (the pool context,
  :func:`worker_context`, wherever the platform default is fork-based —
  Linux on every Python version) the worker inherits those arguments
  without pickling and reads the parent's pages copy-on-write; under
  spawn (macOS, Windows) they are pickled once per worker, never per
  chunk.
* A *generation* counter (:func:`shared_generation`) increments on
  every publish/close, so the executor knows a warm worker pool built
  before the current publication cannot see it and must be rebuilt.

Ownership: the handle owns its registry entry — ``close()`` removes it
and bumps the generation. The published objects themselves are never
copied or rebound. Handles are context managers; the blocking caller
publishes before its dispatches and closes the handle in a
``try/finally``.

Workers treat the registry as frozen: work functions that read it are
``@shared_readonly`` and never write. Only the parent mutates it, in
publish/close pairs (and each worker once, at pool start).
"""

from __future__ import annotations

import itertools
import multiprocessing
from multiprocessing.context import BaseContext
from typing import Any, Dict, Iterator, Mapping

__all__ = [
    "SharedStateHandle",
    "adopt_registry",
    "publish_shared_state",
    "registry_snapshot",
    "shared_state",
    "shared_generation",
    "worker_context",
]

#: token -> published objects; pool workers adopt a snapshot at start.
_REGISTRY: Dict[str, Mapping[str, Any]] = {}

#: Bumped on every publish/close so executors can detect stale pools.
_GENERATION: int = 0

#: Deterministic token source (reprolint forbids uuid/random here).
_TOKENS: Iterator[int] = itertools.count(1)


def worker_context() -> BaseContext:
    """The ``multiprocessing`` context worker pools start under.

    ``fork`` wherever the platform's default start method is fork-based
    (``fork``, or ``forkserver`` on Python 3.14+), so workers inherit
    the registry snapshot without pickling on every interpreter
    version; the default elsewhere (``spawn`` on macOS and Windows).
    """
    method = multiprocessing.get_start_method(allow_none=False)
    return multiprocessing.get_context(
        "fork" if method == "forkserver" else method
    )


def shared_generation() -> int:
    """The current registry generation (see module docstring)."""
    return _GENERATION


def registry_snapshot() -> Dict[str, Mapping[str, Any]]:
    """The current publications, handed to a new pool's workers."""
    return dict(_REGISTRY)


def adopt_registry(snapshot: Mapping[str, Mapping[str, Any]]) -> None:
    """Pool initializer: make ``snapshot`` this worker's registry."""
    _REGISTRY.clear()
    _REGISTRY.update(snapshot)


def shared_state(ref: str) -> Mapping[str, Any]:
    """Resolve a handle's ``ref`` (in the parent or a worker)."""
    try:
        return _REGISTRY[ref]
    except KeyError:
        raise RuntimeError(
            f"shared state {ref!r} is not published in this process; "
            "the worker pool predates the publication (stale generation) "
            "or the handle was closed before dispatch finished"
        ) from None


class SharedStateHandle:
    """Owner of one publication's registry entry.

    ``ref`` is the registry token chunk payloads carry (see the module
    docstring).
    """

    def __init__(self, ref: str) -> None:
        self.ref = ref
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unpublish (idempotent)."""
        global _GENERATION
        if self._closed:
            return
        self._closed = True
        _REGISTRY.pop(self.ref, None)
        _GENERATION += 1

    def __enter__(self) -> "SharedStateHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def publish_shared_state(**objects: Any) -> SharedStateHandle:
    """Publish read-only objects for the ``(ref, pairs)`` work functions.

    Registers ``objects`` under a fresh deterministic token and returns
    the owning handle — close it (or use it as a context manager) once
    dispatch is done.

    Side effects (reviewed, parent-side only): mutates the process-local
    publication registry. The published *values* are frozen, and the
    token sequence is a deterministic process-local counter, so
    contracted callers stay byte-reproducible.
    """
    global _GENERATION
    token = f"shared:{next(_TOKENS)}"
    _REGISTRY[token] = objects
    _GENERATION += 1
    return SharedStateHandle(token)
