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

Subsumption is the miner's inner test, and two choices keep it cheap.
Found MFIs are indexed by posting *bitsets* — one Python ``int`` per
item, bit *k* for MFI *k* — so a query is a short chain of ``&`` with
no copy (:class:`_MFIStore`). And FPMax tests each pattern base's head
(the suffix plus the base's frequent items, which are exactly the
conditional tree's items) *before* it builds the conditional tree, so
a subsumed branch costs one counting pass, not a tree.

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
    Tuple,
    TypeVar,
)

from repro.contracts import hot_path, ordered_output, pure
from repro.mining.fptree import FPTree
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.budgets import BudgetMeter

__all__ = [
    "Itemset",
    "frequent_itemsets",
    "maximal_frequent_itemsets",
    "maximal_via_filter",
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
    for ids, support in _fp_growth(tree, [], minsup):
        results.append(Itemset(vocabulary.decode(ids), support))
    return results


def _fp_growth(
    tree: FPTree,
    suffix: List[int],
    minsup: int,
) -> Iterator[Tuple[List[int], int]]:
    # Process items least-frequent first (highest id first).
    for item in sorted(tree.items(), reverse=True):
        support = tree.support_of(item)
        if support < minsup:
            continue
        itemset = suffix + [item]
        yield itemset, support
        conditional = FPTree.from_conditional(tree.prefix_paths(item), minsup)
        if not conditional.is_empty():
            yield from _fp_growth(conditional, itemset, minsup)


# ---------------------------------------------------------------------------
# FPMax (maximal frequent itemsets)
# ---------------------------------------------------------------------------


class _MFIStore:
    """Stores discovered MFIs and answers subsumption queries.

    ``is_subsumed(candidate)`` is true when some stored MFI is a superset
    of (or equal to) the candidate. The inverted index is a posting
    *bitset* per item: a Python ``int`` whose bit *k* is set when MFI
    number *k* contains the item. A query ANDs the candidate's postings
    and stops at the first missing item or empty intersection, so no
    posting is ever copied.

    ``trees_built`` and ``heads_pruned`` count, over one mine, the
    conditional FP-trees :func:`_fpmax` built and recursed into and the
    pattern bases whose head was already subsumed, so no tree was built.
    """

    def __init__(self) -> None:
        self.itemsets: List[Tuple[FrozenSet[int], int]] = []
        self._by_item: Dict[int, int] = {}
        self.trees_built = 0
        self.heads_pruned = 0

    @pure
    def is_subsumed(self, candidate: AbstractSet[int]) -> bool:
        # ``hits`` is a pure intersection over the candidate's posting
        # bitsets, so the (hash-seed-dependent) visit order of
        # ``candidate`` cannot change the outcome.
        if not candidate:  # empty candidate: any stored MFI subsumes it
            return bool(self.itemsets)
        by_item = self._by_item
        hits = -1
        for item in candidate:
            if item not in by_item:
                return False
            hits &= by_item[item]
            if not hits:
                return False
        return True

    def add(self, candidate: FrozenSet[int], support: int) -> None:
        bit = 1 << len(self.itemsets)
        self.itemsets.append((candidate, support))
        by_item = self._by_item
        for item in candidate:
            by_item[item] = by_item.get(item, 0) | bit


@hot_path
@ordered_output
def maximal_frequent_itemsets(
    transactions: Iterable[Collection[T]],
    minsup: int,
    tracer: Optional[Tracer] = None,
    budget: Optional[BudgetMeter] = None,
) -> List[Itemset[T]]:
    """Mine maximal frequent itemsets (FPMax).

    Returns MFIs as :class:`Itemset` values; the support reported is the
    support of the maximal set itself. An optional tracer times tree
    construction vs. the FPMax recursion and gauges the tree size —
    Fig. 12's dominant cost, broken down — and counts the conditional
    trees built against the heads pruned before a build
    (``fpgrowth.trees_built`` / ``fpgrowth.heads_pruned``).

    ``budget`` bounds the FPMax recursion: each node expansion charges
    one unit, and an exhausted meter stops the search, returning the
    MFIs found so far (anytime semantics). The caller reads
    ``budget.degraded`` to learn the result is partial; with an
    iteration-only budget the cut point — and therefore the output —
    is deterministic.

    The search always runs serially in the caller's process, whatever
    executor the pipeline holds: the paper parallelizes support finding
    and block construction, not FPMax, and ``docs/PARALLELISM.md``
    gives the measurement behind keeping it serial.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    materialized = [list(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    tracer.count("fpgrowth.transactions", len(materialized))
    with tracer.span("fpgrowth.build_tree", minsup=minsup):
        tree, vocabulary = _build_tree(materialized, minsup)
    tracer.gauge("fpgrowth.tree_nodes", tree.node_count())
    tracer.gauge("fpgrowth.vocabulary", len(vocabulary.value_of))
    store = _MFIStore()
    with tracer.span("fpgrowth.fpmax", minsup=minsup):
        _fpmax(tree, [], minsup, store, budget)
    if budget is not None and budget.degraded:
        tracer.count("fpgrowth.budget_exhausted", 1)
    tracer.count("fpgrowth.trees_built", store.trees_built)
    tracer.count("fpgrowth.heads_pruned", store.heads_pruned)
    tracer.count("fpgrowth.mfis", len(store.itemsets))
    return [
        Itemset(vocabulary.decode(ids), support) for ids, support in store.itemsets
    ]


@hot_path
def _fpmax(
    tree: FPTree,
    suffix: List[int],
    minsup: int,
    store: _MFIStore,
    budget: Optional[BudgetMeter] = None,
) -> None:
    """FPMax recursion: add the MFIs of ``tree`` under ``suffix``."""
    if tree.is_empty():
        return
    if budget is not None:
        if budget.exhausted():
            return
        budget.charge()
    single = tree.single_path()
    if single is not None:
        candidate = frozenset(suffix) | {item for item, _ in single}
        if not store.is_subsumed(candidate):
            support = single[-1][1]
            store.add(candidate, support)
        return
    # Least-frequent items first so long candidates are found early and
    # subsume the rest.
    for item in sorted(tree.items(), reverse=True):
        support = tree.support_of(item)
        if support < minsup:
            continue
        new_suffix = suffix + [item]
        paths = tree.prefix_paths(item)
        # The conditional tree's items are exactly the base's frequent
        # items: count them first, and build the tree only for a head
        # that survives the subsumption test.
        keep = FPTree.frequent_in_base(paths, minsup)
        if not keep:
            candidate = frozenset(new_suffix)
            if not store.is_subsumed(candidate):
                store.add(candidate, support)
            continue
        # MFI-tree pruning: if the suffix plus *everything* that could
        # still be added is already covered, the subtree is fruitless.
        if store.is_subsumed(keep.union(new_suffix)):
            store.heads_pruned += 1
            continue
        conditional = FPTree.from_conditional(paths, minsup, keep)
        store.trees_built += 1
        _fpmax(conditional, new_suffix, minsup, store, budget)
        if budget is not None and budget.degraded:
            return


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
