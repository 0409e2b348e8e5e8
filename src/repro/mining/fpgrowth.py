"""FP-Growth and FPMax-style maximal frequent itemset mining.

MFIBlocks needs *maximal* frequent itemsets (MFIs): item sets whose
support meets ``minsup`` and that no frequent superset subsumes
(Section 4.1.1). The paper mines them with Borgelt's C implementation of
FP-Growth; this module is a from-scratch pure-Python equivalent:

* :func:`frequent_itemsets` — classic FP-Growth, all frequent itemsets.
* :func:`maximal_frequent_itemsets` — FPMax: FP-Growth with single-path
  short-circuiting and MFI-subsumption pruning, returning only maximal
  sets. An alternative "mine all, filter maximal" path exists for the
  ablation benchmark (``maximal_via_filter``).

Items may be any hashable values; they are mapped to dense integer ids
ordered by descending global support internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Collection,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.contracts import (
    commutative_merge,
    fork_safe,
    hot_path,
    ordered_output,
    picklable_work,
    pure,
)
from repro.mining.fptree import FPTree
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import Executor
from repro.resilience.budgets import BudgetMeter

__all__ = [
    "Itemset",
    "frequent_itemsets",
    "maximal_frequent_itemsets",
    "maximal_via_filter",
    "merge_mfi_candidates",
]

T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class Itemset(Generic[T]):
    """A mined itemset with its support count."""

    items: FrozenSet[T]
    support: int

    def __len__(self) -> int:
        return len(self.items)


class _Vocabulary(Generic[T]):
    """Bidirectional mapping item value <-> dense int id, frequency-ordered.

    Id 0 is the globally most frequent item; the id order doubles as the
    canonical FP-tree sort order.
    """

    def __init__(self, transactions: List[List[T]], minsup: int) -> None:
        support: Dict[T, int] = {}
        for transaction in transactions:
            for value in set(transaction):
                support[value] = support.get(value, 0) + 1
        frequent = [
            (value, count) for value, count in support.items() if count >= minsup
        ]
        # Descending support; ties broken by repr for determinism.
        frequent.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        self.value_of: List[T] = [value for value, _ in frequent]
        self.id_of: Dict[T, int] = {
            value: index for index, value in enumerate(self.value_of)
        }
        self.order: Dict[int, int] = {index: index for index in range(len(frequent))}

    def encode(self, transaction: Collection[T]) -> List[int]:
        return sorted(
            self.id_of[value]
            for value in set(transaction)
            if value in self.id_of
        )

    def decode(self, ids: Iterable[int]) -> FrozenSet[T]:
        return frozenset(self.value_of[item_id] for item_id in ids)


def _build_tree(
    transactions: List[List[T]], minsup: int
) -> Tuple[FPTree, "_Vocabulary[T]"]:
    vocabulary = _Vocabulary(transactions, minsup)
    tree = FPTree()
    for transaction in transactions:
        encoded = vocabulary.encode(transaction)
        if encoded:
            tree.insert(encoded)
    return tree, vocabulary


def _validate(transactions: List[List[T]], minsup: int) -> None:
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")


# ---------------------------------------------------------------------------
# Classic FP-Growth (all frequent itemsets)
# ---------------------------------------------------------------------------


@ordered_output
def frequent_itemsets(
    transactions: Iterable[Collection[T]], minsup: int
) -> List[Itemset[T]]:
    """Mine *all* frequent itemsets with support >= ``minsup``."""
    materialized = [list(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    tree, vocabulary = _build_tree(materialized, minsup)
    results: List[Itemset[T]] = []
    for ids, support in _fp_growth(tree, [], minsup, vocabulary.order):
        results.append(Itemset(vocabulary.decode(ids), support))
    return results


def _fp_growth(
    tree: FPTree,
    suffix: List[int],
    minsup: int,
    order: Dict[int, int],
) -> Iterator[Tuple[List[int], int]]:
    # Process items least-frequent first (highest id first).
    for item in sorted(tree.items(), reverse=True):
        support = tree.support_of(item)
        if support < minsup:
            continue
        itemset = suffix + [item]
        yield itemset, support
        conditional = FPTree.from_conditional(
            tree.prefix_paths(item), minsup, order
        )
        if not conditional.is_empty():
            yield from _fp_growth(conditional, itemset, minsup, order)


# ---------------------------------------------------------------------------
# FPMax (maximal frequent itemsets)
# ---------------------------------------------------------------------------


class _MFIStore:
    """Stores discovered MFIs and answers subsumption queries.

    ``is_subsumed(candidate)`` is true when some stored MFI is a superset
    of (or equal to) the candidate. An inverted index item → MFI ids keeps
    the check near-constant for typical candidates.
    """

    def __init__(self) -> None:
        self.itemsets: List[Tuple[FrozenSet[int], int]] = []
        self._by_item: Dict[int, Set[int]] = {}

    @pure
    def is_subsumed(self, candidate: FrozenSet[int]) -> bool:
        # The surviving-ids set is a pure intersection over the candidate's
        # posting lists, so the (hash-seed-dependent) visit order of
        # ``candidate`` cannot change the outcome.
        hits: Optional[Set[int]] = None
        for item in candidate:
            postings = self._by_item.get(item)
            if not postings:
                return False
            hits = set(postings) if hits is None else hits & postings
            if not hits:
                return False
        if hits is None:  # empty candidate: any stored MFI subsumes it
            return bool(self.itemsets)
        return True

    def add(self, candidate: FrozenSet[int], support: int) -> None:
        index = len(self.itemsets)
        self.itemsets.append((candidate, support))
        for item in candidate:
            self._by_item.setdefault(item, set()).add(index)


@hot_path
@ordered_output
def maximal_frequent_itemsets(
    transactions: Iterable[Collection[T]],
    minsup: int,
    tracer: Optional[Tracer] = None,
    budget: Optional[BudgetMeter] = None,
    executor: Optional[Executor] = None,
) -> List[Itemset[T]]:
    """Mine maximal frequent itemsets (FPMax).

    Returns MFIs as :class:`Itemset` values; the support reported is the
    support of the maximal set itself. An optional tracer times tree
    construction vs. the FPMax recursion and gauges the tree size —
    Fig. 12's dominant cost, broken down.

    ``budget`` bounds the FPMax recursion: each node expansion charges
    one unit, and an exhausted meter stops the search, returning the
    MFIs found so far (anytime semantics). The caller reads
    ``budget.degraded`` to learn the result is partial; with an
    iteration-only budget the cut point — and therefore the output —
    is deterministic.

    ``executor`` (when parallel) shards the FPMax top level across
    workers by item id; the shard union, maximality-pruned, is exactly
    the serial MFI set with the same supports
    (``docs/PARALLELISM.md``). A budgeted mine always runs serially:
    the budget's deterministic cut point is defined by the serial visit
    order, which sharding would not preserve.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    materialized = [list(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    tracer.count("fpgrowth.transactions", len(materialized))
    if (
        executor is not None
        and executor.parallel
        and (budget is None or not budget.enabled)
    ):
        return _maximal_parallel(materialized, minsup, executor, tracer)
    with tracer.span("fpgrowth.build_tree", minsup=minsup):
        tree, vocabulary = _build_tree(materialized, minsup)
    tracer.gauge("fpgrowth.tree_nodes", tree.node_count())
    tracer.gauge("fpgrowth.vocabulary", len(vocabulary.value_of))
    store = _MFIStore()
    with tracer.span("fpgrowth.fpmax", minsup=minsup):
        _fpmax(tree, [], minsup, vocabulary.order, store, budget)
    if budget is not None and budget.degraded:
        tracer.count("fpgrowth.budget_exhausted", 1)
    tracer.count("fpgrowth.mfis", len(store.itemsets))
    return [
        Itemset(vocabulary.decode(ids), support) for ids, support in store.itemsets
    ]


@hot_path
def _fpmax(
    tree: FPTree,
    suffix: List[int],
    minsup: int,
    order: Dict[int, int],
    store: _MFIStore,
    budget: Optional[BudgetMeter] = None,
    only: Optional[AbstractSet[int]] = None,
) -> None:
    """FPMax recursion; ``only`` restricts the top-level items (a shard).

    ``only`` applies at this depth alone — recursive calls see every
    item. A single-path tree emits its one candidate only from the
    shard owning the path's highest id, the shard whose top-level loop
    would have generated it.
    """
    if tree.is_empty():
        return
    if budget is not None:
        if budget.exhausted():
            return
        budget.charge()
    single = tree.single_path()
    if single is not None:
        if only is not None and single[-1][0] not in only:
            return
        candidate = frozenset(suffix) | {item for item, _ in single}
        if not store.is_subsumed(candidate):
            support = single[-1][1]
            store.add(candidate, support)
        return
    # Least-frequent items first so long candidates are found early and
    # subsume the rest.
    for item in sorted(tree.items(), reverse=True):
        if only is not None and item not in only:
            continue
        support = tree.support_of(item)
        if support < minsup:
            continue
        new_suffix = suffix + [item]
        conditional = FPTree.from_conditional(tree.prefix_paths(item), minsup, order)
        if conditional.is_empty():
            candidate = frozenset(new_suffix)
            if not store.is_subsumed(candidate):
                store.add(candidate, support)
            continue
        # MFI-tree pruning: if the suffix plus *everything* that could
        # still be added is already covered, the subtree is fruitless.
        head = frozenset(new_suffix) | set(conditional.items())
        if store.is_subsumed(head):
            continue
        _fpmax(conditional, new_suffix, minsup, order, store, budget)
        if budget is not None and budget.degraded:
            return


# ---------------------------------------------------------------------------
# Sharded FPMax (parallel path)
# ---------------------------------------------------------------------------
#
# Correctness sketch (full argument in docs/PARALLELISM.md): FPMax
# processes top-level items least-frequent-first, and every candidate it
# emits while processing top item *i* contains *i* as its highest id.
# Sharding the top-level items therefore partitions the candidate space:
# each itemset's generating shard is uniquely determined by its max id,
# so shard-local mining finds every serial candidate exactly once, with
# its true support (supports come from the full tree, which every worker
# rebuilds from the complete encoded transaction list). Shard-local
# subsumption pruning is *weaker* than serial pruning — a shard cannot
# see another shard's supersets — which only ever leaves extra
# non-maximal candidates behind; the global merge removes exactly those.


@picklable_work
@fork_safe
def _mine_shard(
    payload: Tuple[List[List[int]], int, int, List[int]]
) -> List[Tuple[FrozenSet[int], int]]:
    """FPMax over the top-level items of one shard (pool-worker body).

    Rebuilds the FP-tree from the encoded transactions — cheaper and
    simpler than pickling a node graph with parent links — then runs
    :func:`_fpmax` restricted to the shard's item ids at the top level.
    Module-level and argument-determined, so a chunk computes the same
    result in a worker, in-process, or in a crash retry.
    """
    encoded, minsup, n_items, shard = payload
    tree = FPTree()
    for transaction in encoded:
        tree.insert(transaction)
    order = {item: item for item in range(n_items)}
    store = _MFIStore()
    _fpmax(tree, [], minsup, order, store, only=frozenset(shard))
    return store.itemsets


@commutative_merge
@ordered_output
def merge_mfi_candidates(
    shard_results: Iterable[List[Tuple[FrozenSet[int], int]]]
) -> List[Tuple[FrozenSet[int], int]]:
    """Globally maximality-prune shard-local MFI candidates.

    Order-independent: candidates are deduplicated and visited in
    canonical order (longest first, ties by sorted item ids), so any
    permutation of ``shard_results`` yields the same list. Longer sets
    are inserted before anything they could subsume, and equal-length
    distinct sets can never subsume each other, so one pass suffices.
    """
    unique = {
        candidate for result in shard_results for candidate in result
    }
    ordered = sorted(
        unique, key=lambda entry: (-len(entry[0]), sorted(entry[0]))
    )
    store = _MFIStore()
    for items, support in ordered:
        if not store.is_subsumed(items):
            store.add(items, support)
    return store.itemsets


def _maximal_parallel(
    materialized: List[List[T]],
    minsup: int,
    executor: Executor,
    tracer: Tracer,
) -> List[Itemset[T]]:
    """Shard the FPMax top level across the executor's workers."""
    vocabulary: _Vocabulary[T] = _Vocabulary(materialized, minsup)
    n_items = len(vocabulary.value_of)
    tracer.gauge("fpgrowth.vocabulary", n_items)
    if n_items == 0:
        return []
    encoded: List[List[int]] = []
    for transaction in materialized:
        ids = vocabulary.encode(transaction)
        if ids:
            encoded.append(ids)
    # Round-robin over item ids: ids are support-ordered, so each shard
    # gets a comparable mix of frequent (cheap) and rare (deep) items.
    n_shards = min(executor.workers, n_items)
    shards = [
        [item for item in range(n_items) if item % n_shards == index]
        for index in range(n_shards)
    ]
    payloads = [(encoded, minsup, n_items, shard) for shard in shards]
    with tracer.span("fpgrowth.fpmax", minsup=minsup, shards=n_shards):
        shard_results = executor.map_chunks(
            _mine_shard, payloads, tracer=tracer, label="fpgrowth.shards"
        )
        merged = merge_mfi_candidates(shard_results)
    tracer.count("fpgrowth.mfis", len(merged))
    return [Itemset(vocabulary.decode(ids), support) for ids, support in merged]


@ordered_output
def maximal_via_filter(
    transactions: Iterable[Collection[T]], minsup: int
) -> List[Itemset[T]]:
    """Reference implementation: mine all frequent itemsets, keep maximal.

    Exponentially slower than FPMax on dense data; exists for testing and
    the MFI-strategy ablation benchmark.
    """
    all_frequent = frequent_itemsets(transactions, minsup)
    all_frequent.sort(key=lambda itemset: -len(itemset.items))
    maximal: List[Itemset[T]] = []
    seen: List[FrozenSet[T]] = []
    for itemset in all_frequent:
        if any(itemset.items < kept for kept in seen):
            continue
        if any(itemset.items == kept for kept in seen):
            continue
        maximal.append(itemset)
        seen.append(itemset.items)
    return maximal
