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

Both recurse over a *vertical* database instead of FP-trees: one tidset
per frequent item, a Python ``int`` whose bit *t* is set when encoded
transaction *t* holds the item. The conditional database of a suffix
*S* is a list of ``(item, support, tidset)`` columns in ascending item
id, each tidset already intersected with the transactions holding all
of *S*. FP-Growth reads three things from a conditional FP-tree, and
each has an exact tidset form: its items are the smaller ids whose
intersected tidsets still meet ``minsup``; their supports are those
popcounts; and the tree is a single path exactly when every item's
tidset sits inside the tidset of the item before it. The loop visits
the items highest id first, as it visited a tree's items, and that
order depends only on the item set, so the MFIs, their supports, the
discovery order and every budget charge are the FP-tree miner's. The
tidsets leave the miner as each :class:`Itemset`'s support set
(``tidset``, bit *t* for input transaction *t*); tid numbering decides
which bits are set, never what is found or in which order.

Subsumption is the miner's inner test, and two choices keep it cheap.
Found MFIs are indexed by posting *bitsets* — one Python ``int`` per
item, bit *k* for MFI *k* — so a query is a short chain of ``&`` with
no copy (:class:`_MFIStore`). And FPMax tests each projection's head
(the suffix plus the items still frequent in it) *before* it recurses,
so a subsumed branch costs one projection.

Items may be any hashable values; they are mapped to dense integer ids
ordered by descending global support internally.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
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
    Sequence,
    Tuple,
    TypeVar,
)

from repro.contracts import hot_path, ordered_output, pure
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.budgets import BudgetMeter

__all__ = [
    "Itemset",
    "frequent_itemsets",
    "maximal_frequent_itemsets",
    "maximal_via_filter",
]

T = TypeVar("T", bound=Hashable)

#: One item of a (conditional) database: ``(item id, support, tidset)``.
Column = Tuple[int, int, int]


def _bin_popcount(value: int) -> int:
    """Set bits of a non-negative ``int``: ``int.bit_count`` before 3.10."""
    return bin(value).count("1")


if sys.version_info >= (3, 10):
    _popcount = int.bit_count
else:  # about 20x slower, still exact
    _popcount = _bin_popcount


@dataclass(frozen=True)
class Itemset(Generic[T]):
    """A mined itemset with its support count and support set.

    ``tidset`` is the support set as an ``int`` whose bit *t* is set
    when input transaction *t* holds every item, so ``support`` is its
    popcount. It is output only: equality and ``repr`` ignore it.
    """

    items: FrozenSet[T]
    support: int
    tidset: int = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.items)


class _Vocabulary(Generic[T]):
    """Bidirectional mapping item value <-> dense int id, frequency-ordered.

    Id 0 is the globally most frequent item. Counting and encoding look
    each item up once: an item's hash may run Python code (an ``Enum``
    field), and the miner meets every item of every transaction.
    """

    def __init__(self, transactions: Sequence[AbstractSet[T]], minsup: int) -> None:
        support = Counter(chain.from_iterable(transactions))
        frequent = [
            (value, count) for value, count in support.items() if count >= minsup
        ]
        # Descending support; ties broken by repr for determinism.
        frequent.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        self.value_of: List[T] = [value for value, _ in frequent]
        self.id_of: Dict[T, int] = {
            value: index for index, value in enumerate(self.value_of)
        }

    def encode(self, transaction: AbstractSet[T]) -> List[int]:
        ids = map(self.id_of.get, transaction)
        return sorted([item_id for item_id in ids if item_id is not None])

    def decode(self, ids: Iterable[int]) -> FrozenSet[T]:
        return frozenset(self.value_of[item_id] for item_id in ids)


def _columns(encoded: Sequence[List[int]], width: int) -> List[Column]:
    """The root database: a column for each item id ``0..width-1``."""
    rows = [bytearray((len(encoded) + 7) // 8) for _ in range(width)]
    for tid, ids in enumerate(encoded):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for item in ids:
            rows[item][byte] |= bit
    tidsets = [int.from_bytes(row, "little") for row in rows]
    return [(item, _popcount(tids), tids) for item, tids in enumerate(tidsets)]


def _encode(
    transactions: Sequence[AbstractSet[T]], minsup: int
) -> Tuple[List[Column], "_Vocabulary[T]", List[List[int]]]:
    """The vocabulary, the encoded transactions and their root columns."""
    vocabulary = _Vocabulary(transactions, minsup)
    encoded = [vocabulary.encode(transaction) for transaction in transactions]
    return _columns(encoded, len(vocabulary.value_of)), vocabulary, encoded


def _prefix_nodes(encoded: Sequence[List[int]]) -> int:
    """Distinct non-empty prefixes of ``encoded``: its FP-tree's node count.

    In sorted order a row's longest common prefix with any earlier row
    is the one it shares with the row just before it, and each item
    past that prefix is a node no earlier row made.
    """
    nodes = 0
    previous: List[int] = []
    for row in sorted(encoded):
        shared = 0
        for mine, theirs in zip(row, previous):
            if mine != theirs:
                break
            shared += 1
        nodes += len(row) - shared
        previous = row
    return nodes


@ordered_output
def _project(columns: Sequence[Column], index: int, minsup: int) -> List[Column]:
    """The conditional database of ``columns[index]``'s item.

    The columns before ``index`` (smaller ids) intersected with its
    tidset, those still frequent kept, ascending id order preserved: the
    items and supports of the conditional FP-tree of its prefix paths.
    """
    tids = columns[index][2]
    projected: List[Column] = []
    for item, _support, item_tids in columns[:index]:
        joint = tids & item_tids
        support = _popcount(joint)
        if support >= minsup:
            projected.append((item, support, joint))
    return projected


def _is_single_path(columns: Sequence[Column]) -> bool:
    """Whether the FP-tree of ``columns`` is one chain.

    Every transaction is then a prefix of the ascending item list: each
    item's tidset lies inside the tidset of the item before it.
    """
    for (_, outer_support, outer), (_, inner_support, inner) in zip(
        columns, columns[1:]
    ):
        if inner_support > outer_support or inner & outer != inner:
            return False
    return True


def _validate(transactions: Sequence[AbstractSet[T]], minsup: int) -> None:
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
    materialized = [frozenset(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    columns, vocabulary, _encoded = _encode(materialized, minsup)
    results: List[Itemset[T]] = []
    for ids, support, tids in _fp_growth(columns, [], minsup):
        results.append(Itemset(vocabulary.decode(ids), support, tids))
    return results


def _fp_growth(
    columns: Sequence[Column],
    suffix: List[int],
    minsup: int,
) -> Iterator[Tuple[List[int], int, int]]:
    # Process items least-frequent first (highest id first).
    for index in range(len(columns) - 1, -1, -1):
        item, support, tids = columns[index]
        itemset = suffix + [item]
        yield itemset, support, tids
        conditional = _project(columns, index, minsup)
        if conditional:
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
    conditional databases :func:`_fpmax` projected and recursed into
    (an FP-tree miner's conditional trees) and the projections whose
    head was already subsumed, so the branch ended there.
    """

    def __init__(self) -> None:
        #: ``(item ids, support, tidset)`` per MFI, in discovery order.
        self.itemsets: List[Tuple[FrozenSet[int], int, int]] = []
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

    def add(self, candidate: FrozenSet[int], support: int, tids: int) -> None:
        bit = 1 << len(self.itemsets)
        self.itemsets.append((candidate, support, tids))
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
    support of the maximal set itself. An optional tracer times the
    tidset build vs. the FPMax recursion, gauges the size the FP-tree
    of the encoded transactions would have — Fig. 12's dominant cost,
    broken down — and counts the conditional databases recursed into
    against the heads pruned before recursing
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
    materialized = [frozenset(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    tracer.count("fpgrowth.transactions", len(materialized))
    with tracer.span("fpgrowth.build_tree", minsup=minsup):
        columns, vocabulary, encoded = _encode(materialized, minsup)
    if tracer.enabled:
        tracer.gauge("fpgrowth.tree_nodes", _prefix_nodes(encoded))
    tracer.gauge("fpgrowth.vocabulary", len(vocabulary.value_of))
    store = _MFIStore()
    with tracer.span("fpgrowth.fpmax", minsup=minsup):
        _fpmax(columns, [], minsup, store, budget)
    if budget is not None and budget.degraded:
        tracer.count("fpgrowth.budget_exhausted", 1)
    tracer.count("fpgrowth.trees_built", store.trees_built)
    tracer.count("fpgrowth.heads_pruned", store.heads_pruned)
    tracer.count("fpgrowth.mfis", len(store.itemsets))
    return [
        Itemset(vocabulary.decode(ids), support, tids)
        for ids, support, tids in store.itemsets
    ]


@hot_path
def _fpmax(
    columns: Sequence[Column],
    suffix: List[int],
    minsup: int,
    store: _MFIStore,
    budget: Optional[BudgetMeter] = None,
) -> None:
    """FPMax recursion: add the MFIs of ``columns`` under ``suffix``."""
    if not columns:
        return
    if budget is not None:
        if budget.exhausted():
            return
        budget.charge()
    if _is_single_path(columns):
        # The chain's tidsets nest, so the last one is the support set
        # of the whole candidate.
        candidate = frozenset(suffix).union(item for item, _, _ in columns)
        if not store.is_subsumed(candidate):
            _, support, tids = columns[-1]
            store.add(candidate, support, tids)
        return
    # Least-frequent items first so long candidates are found early and
    # subsume the rest.
    for index in range(len(columns) - 1, -1, -1):
        item, support, tids = columns[index]
        new_suffix = suffix + [item]
        conditional = _project(columns, index, minsup)
        if not conditional:
            candidate = frozenset(new_suffix)
            if not store.is_subsumed(candidate):
                store.add(candidate, support, tids)
            continue
        # MFI-tree pruning: if the suffix plus *everything* that could
        # still be added is already covered, the subtree is fruitless.
        head = {item for item, _, _ in conditional}
        head.update(new_suffix)
        if store.is_subsumed(head):
            store.heads_pruned += 1
            continue
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
