"""Determinism contracts: declarative markers checked by reprolint.

The paper's evaluation rests on ranked pair lists being byte-identical
run over run; PR 1's reprolint enforces that *within* a line, and the
inter-procedural pass (``repro lint --contracts``, rules RL100-RL103 in
``tools/reprolint/contracts.py``) enforces it across function
boundaries. These decorators are the vocabulary of that pass:

``@pure``
    No observable effects and output depends only on the arguments.
    The item-similarity functions of Eq. 1 are the canonical example.
``@deterministic``
    Output depends only on the arguments (effects such as tracing are
    allowed) — same inputs, same outputs, every run, every
    ``PYTHONHASHSEED``.
``@ordered_output``
    ``@deterministic`` whose returned collection order is part of the
    contract: ranked pair lists, mined itemset lists, CSV row streams.
``@seeded(param="rng")``
    Deterministic *given* the named seed/RNG parameter: all randomness
    flows from it, and calls into other ``@seeded`` functions must
    thread it (rule RL102).
``@impure(reason)``
    Declared, reviewed nondeterminism — the contract-layer counterpart
    of an RL005 path exemption. ``repro.obs.clock`` is the sole
    wall-clock holder of this marker in ``src/``; a contracted function
    that reaches a declared-impure one is an RL100 violation.

The parallel-safety pass (``repro lint --parallel-safety``, rules
RL200-RL205 in ``tools/reprolint/parallel_safety.py``) adds four more
markers for code that crosses a process boundary:

``@picklable_work``
    A chunk work function handed to ``Executor.map_chunks``: module
    level, picklable, and argument-determined. The linter makes every
    such function a parallel-safety root whether or not it can see the
    submission site.
``@fork_safe``
    Safe to execute in a forked/spawned worker: reaches no inherited
    file handle, live RNG, tracer/sink, or connection object (RL203).
``@commutative_merge``
    An order-independent fold of chunk results — invariant under any
    permutation of its input chunks. RL202 requires every
    ``map_chunks`` result to flow through one of these.
``@shared_readonly``
    Declares that the module-global state a work function reads is
    reviewed as effectively immutable; RL201 still forbids writes to
    it anywhere reachable from worker code.

The performance pass (``repro lint --perf``, rules RL300-RL305 in
``tools/reprolint/perf_lint.py``) adds two cost markers. They make no
determinism claim — a ``@hot_path`` function can be ``@pure`` or not —
and they never silence the determinism or parallel-safety passes:

``@hot_path``
    A measured hot entry point: ``benchmarks/e2e`` per-layer times put
    real run time under this function (or the vectorization plan
    targets it). The perf pass roots its loop-cost analysis here,
    alongside executor work roots.
``@batch_kernel``
    A batch implementation whose inner loop is the *point* (a
    vectorized kernel, a tight primitive the plan already accepted).
    The perf pass neither analyzes its body nor traverses into it —
    the declared endpoint of a completed vectorization.

At runtime the decorators only attach ``__repro_contracts__`` metadata
(queryable via :func:`contracts_of`) and return the function unchanged:
zero overhead, no wrapping, signatures and identities preserved. All
enforcement is static — the linter recognizes the decorator syntax —
plus dynamic spot-checks by the ``repro sanitize`` hash-order harness.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple, TypeVar

__all__ = [
    "pure",
    "deterministic",
    "ordered_output",
    "seeded",
    "impure",
    "picklable_work",
    "fork_safe",
    "commutative_merge",
    "shared_readonly",
    "hot_path",
    "batch_kernel",
    "contracts_of",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Attribute attached to decorated callables: a tuple of marker strings
#: such as ``("pure",)`` or ``("seeded:rng",)``.
CONTRACT_ATTR = "__repro_contracts__"


def _attach(func: F, marker: str) -> F:
    existing: Tuple[str, ...] = getattr(func, CONTRACT_ATTR, ())
    setattr(func, CONTRACT_ATTR, existing + (marker,))
    return func


def pure(func: F) -> F:
    """Mark ``func`` as pure: argument-determined output, no effects."""
    return _attach(func, "pure")


def deterministic(func: F) -> F:
    """Mark ``func`` as deterministic: argument-determined output."""
    return _attach(func, "deterministic")


def ordered_output(func: F) -> F:
    """Mark ``func`` deterministic including its output *ordering*."""
    return _attach(func, "ordered_output")


def seeded(param: str = "rng") -> Callable[[F], F]:
    """Mark a function deterministic given the seed parameter ``param``."""

    def decorate(func: F) -> F:
        return _attach(func, f"seeded:{param}")

    return decorate


def impure(reason: str) -> Callable[[F], F]:
    """Declare reviewed nondeterminism (wall clock, entropy, I/O order).

    ``reason`` is mandatory: an undocumented impurity declaration is as
    suspect as an unjustified lint suppression.
    """
    if not reason or not reason.strip():
        raise ValueError("impure() requires a non-empty reason")

    def decorate(func: F) -> F:
        return _attach(func, "impure")

    return decorate


def picklable_work(func: F) -> F:
    """Mark ``func`` as an executor work function: picklable, module
    level, argument-determined (parallel-safety root for RL200/RL201)."""
    return _attach(func, "picklable_work")


def fork_safe(func: F) -> F:
    """Mark ``func`` safe to run in a forked/spawned worker process:
    no inherited handle, live RNG, tracer, or connection is reachable."""
    return _attach(func, "fork_safe")


def commutative_merge(func: F) -> F:
    """Mark ``func`` as an order-independent chunk-result fold.

    The result must be invariant under any permutation of the chunk
    results it consumes — the property that makes ``--workers N``
    byte-identical to ``--workers 1`` (RL202).
    """
    return _attach(func, "commutative_merge")


def shared_readonly(func: F) -> F:
    """Declare the module-global state ``func`` reads as reviewed
    read-only; RL201 still forbids mutating it from worker code."""
    return _attach(func, "shared_readonly")


def hot_path(func: F) -> F:
    """Mark ``func`` as a measured hot entry point: a root of the
    RL300-RL305 performance pass (``repro lint --perf``)."""
    return _attach(func, "hot_path")


def batch_kernel(func: F) -> F:
    """Mark ``func`` as a batch kernel whose inner loop is intentional;
    the performance pass neither analyzes nor traverses into it."""
    return _attach(func, "batch_kernel")


def contracts_of(func: Callable[..., Any]) -> Tuple[str, ...]:
    """The contract markers attached to ``func`` (empty if none)."""
    markers: Tuple[str, ...] = getattr(func, CONTRACT_ATTR, ())
    return markers
