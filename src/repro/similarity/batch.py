"""Vectorized batch forms of the item-set similarity kernels.

Each kernel here computes, for a *list* of record pairs at once, the
same float the scalar reference in :mod:`repro.similarity.items`
computes per pair — **bit for bit**. The scalar functions remain the
reference implementations (and the property suite in
``tests/test_batch_kernels.py`` pins the equivalence); these batch
forms exist so a chunk of thousands of pairs costs a handful of numpy
passes instead of thousands of frozenset walks.

Bit-identity arguments, per kernel:

* :func:`jaccard_items_batch` — ``len(a & b) / len(a | b)`` is a single
  correctly-rounded division of two small exact integers; popcounts of
  packed bitsets produce the same integers, and numpy's ``int64``
  division through float64 is the same IEEE operation.
* :func:`weighted_jaccard_items_batch` — the scalar uses ``math.fsum``,
  which returns the correctly rounded *exact* sum. With every weight
  rewritten as an exact integer over a common power-of-two denominator
  ``D`` (:class:`~repro.similarity.interning.ScaledWeights`), the exact
  mass is an integer ``N`` and Python's ``N / D`` is the same correctly
  rounded value. A nonzero exact mass is at least ``1 / D`` in
  magnitude, which never underflows to ``0.0``, so the ``== 0`` branch
  agrees with ``fsum`` exactly as well.
* :func:`soft_jaccard_items_batch` — the greedy Eq.-1 assignment only
  contributes when *both* sides keep unshared items of a common type;
  the per-type popcounts detect exactly those pairs. All remaining
  pairs reduce to the (weighted) set-overlap arithmetic above. The
  greedy pairs replay the scalar's claim loop on interned ids:

  - *Order.* The scalar sorts each side's unshared items by ``repr``
    and claims in that order, first best wins. The corpus ranks every
    vocabulary id by ``repr`` once, on first use
    (:attr:`~repro.similarity.interning.InternedCorpus.repr_rank`);
    distinct items have distinct reprs, so an integer sort by rank is
    the same total order. Each record's ids are sorted by rank once per
    call, not once per pair.
  - *Masses.* The scalar's starting intersection mass and its union
    are ``len`` counts (unweighted) or ``fsum`` of item weights. Here
    they are the popcounts, or the exact integer masses ``N`` over the
    common denominator ``D``; Python's ``N / D`` is the correctly
    rounded exact sum, which is what ``fsum`` returns.
  - *Item similarity.* :func:`~repro.similarity.items
    .expert_item_similarity` is pure, so it is memoised per ``(small
    id, large id)`` within a call, argument order kept; each distinct
    name pair costs one Jaro–Winkler.
  - *Accumulation.* Claims keep the scalar's ``score > best`` tie-break
    (the earliest of equal scores wins, and a zero never claims),
    remove the claimed id from its type's candidate list without
    reordering it, and add ``best * weight`` to the running float mass
    in the small side's canonical order, then divide by the union once
    — the same float operations in the same order.

  Only a non-finite weight, which has no exact integer form, sends
  pairs to the scalar :func:`~repro.similarity.items.soft_jaccard_items`.

Every kernel is ``@batch_kernel``: the reprolint perf pass (RL300)
neither analyzes the body nor traverses into it from hot callers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import batch_kernel, pure
from repro.records.itembag import ItemType
from repro.similarity.interning import (
    TYPE_ORDER,
    InternedCorpus,
    Pair,
    ScaledWeights,
)
from repro.similarity.items import (
    GeoLookup,
    expert_item_similarity,
    soft_jaccard_items,
    weighted_jaccard_items,
)

__all__ = [
    "jaccard_items_batch",
    "weighted_jaccard_items_batch",
    "soft_jaccard_items_batch",
]

#: Float division by the common denominator is a pure exponent shift
#: (hence rounding-preserving) only while every nonzero ``mass / D``
#: stays in the normal float range. ``|mass| >= 1``, so ``D <= 2**1022``
#: guarantees it; larger denominators (subnormal weights) take the
#: exact Python-int division path instead.
_FLOAT_EXACT_DEN = 1 << 1022


#: Byte budget of one ``uint64[rows, width]`` temporary of the
#: set-overlap kernels. They walk ``pairs`` in row slices of this size,
#: so their transient memory stays flat however many pairs one call
#: gets; every score is a pure per-pair function, so slicing changes no
#: bit.
SLICE_BYTES = 1 << 20


def _popcount_rows(bits2d: np.ndarray) -> np.ndarray:
    return np.bitwise_count(bits2d).sum(axis=1, dtype=np.int64)


def _row_slices(corpus: InternedCorpus, n_pairs: int) -> List[slice]:
    """Consecutive slices of ``range(n_pairs)`` within :data:`SLICE_BYTES`.

    The widest temporary is the word-segment popcount table
    (:meth:`InternedCorpus.seg_counts_of`): each type's id range adds at
    most one segment to the ``n_words`` bitset words.
    """
    width = corpus.bits.shape[1] + len(TYPE_ORDER)
    rows = max(1, SLICE_BYTES // (width * corpus.bits.itemsize))
    return [
        slice(start, min(start + rows, n_pairs))
        for start in range(0, n_pairs, rows)
    ]


@batch_kernel
@pure
def jaccard_items_batch(
    corpus: InternedCorpus, pairs: Sequence[Pair]
) -> List[float]:
    """Plain Jaccard for every pair; ≡ :func:`jaccard_items` per pair."""
    if not pairs:
        return []
    all_a, all_b = corpus.pair_rows(pairs)
    result: List[float] = []
    for rows in _row_slices(corpus, len(pairs)):
        a_rows, b_rows = all_a[rows], all_b[rows]
        inter = _popcount_rows(corpus.bits[a_rows] & corpus.bits[b_rows])
        union = corpus.sizes[a_rows] + corpus.sizes[b_rows] - inter
        # union == 0 iff both bags are empty, which the scalar defines
        # as 1.0; the maximum() only guards the division there.
        out = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        result.extend(out.tolist())
    return result


@batch_kernel
@pure
def weighted_jaccard_items_batch(
    corpus: InternedCorpus,
    pairs: Sequence[Pair],
    weights: Mapping[ItemType, float],
    default_weight: float = 1.0,
) -> List[float]:
    """Type-weighted Jaccard; ≡ :func:`weighted_jaccard_items` per pair."""
    if not pairs:
        return []
    scaled = corpus.scaled_weights(weights, default_weight)
    if scaled is None:
        # A non-finite weight defeats exact integer scaling: defer to
        # the scalar reference, which is the semantics by definition.
        bags = corpus.bags
        return [
            weighted_jaccard_items(bags[a], bags[b], weights, default_weight)
            for a, b in pairs
        ]
    all_a, all_b = corpus.pair_rows(pairs)
    out: List[float] = []
    for rows in _row_slices(corpus, len(pairs)):
        out.extend(_weighted_slice(corpus, all_a[rows], all_b[rows], scaled))
    return out


def _weighted_slice(
    corpus: InternedCorpus,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    scaled: ScaledWeights,
) -> List[float]:
    """:func:`weighted_jaccard_items_batch` over one row slice."""
    and_bits = corpus.bits[a_rows] & corpus.bits[b_rows]
    if (
        scaled.vec64 is not None
        and scaled.record_masses is not None
        and scaled.seg_vec64 is not None
        and scaled.denominator <= _FLOAT_EXACT_DEN
    ):
        inter_arr = corpus.seg_counts_of(and_bits) @ scaled.seg_vec64
        union_arr = (
            scaled.record_masses[a_rows]
            + scaled.record_masses[b_rows]
            - inter_arr
        )
        return _mass_ratio(inter_arr, union_arr, scaled.denominator)
    inter_tc = corpus.type_counts_of(and_bits)
    union_tc = (
        corpus.type_counts[a_rows] + corpus.type_counts[b_rows] - inter_tc
    )
    inter_mass, union_mass = _masses(scaled, inter_tc, union_tc)
    both_empty = (
        (corpus.sizes[a_rows] + corpus.sizes[b_rows]) == 0
    ).tolist()
    denominator = scaled.denominator
    out: List[float] = []
    for index in range(len(a_rows)):
        if both_empty[index]:
            out.append(1.0)
            continue
        union_n = union_mass[index]
        if union_n == 0:
            # Exactly the scalar's ``union_mass == 0`` branch: a zero
            # integer mass is the only way fsum returns 0.0.
            out.append(1.0)
            continue
        out.append((inter_mass[index] / denominator) / (union_n / denominator))
    return out


@batch_kernel
@pure
def soft_jaccard_items_batch(
    corpus: InternedCorpus,
    pairs: Sequence[Pair],
    geo_lookup: Optional[GeoLookup] = None,
    weights: Optional[Mapping[ItemType, float]] = None,
) -> List[float]:
    """Eq.-1 soft Jaccard; ≡ :func:`soft_jaccard_items` per pair.

    The greedy partial-match assignment engages only when both records
    keep unshared items of a common type; those pairs run the scalar's
    greedy claim loop on interned ids (:class:`_SoftGreedy`). A
    non-finite weight defers every pair to the scalar reference.
    """
    if not pairs:
        return []
    scaled = None
    if weights is not None:
        scaled = corpus.scaled_weights(weights, 1.0)
        if scaled is None:
            bags = corpus.bags
            return [
                soft_jaccard_items(bags[a], bags[b], geo_lookup, weights)
                for a, b in pairs
            ]
    a_rows, b_rows = corpus.pair_rows(pairs)
    inter_tc = corpus.type_counts_of(corpus.bits[a_rows] & corpus.bits[b_rows])
    type_counts_a = corpus.type_counts[a_rows]
    type_counts_b = corpus.type_counts[b_rows]
    greedy_list: List[bool] = (
        ((type_counts_a - inter_tc) > 0) & ((type_counts_b - inter_tc) > 0)
    ).any(axis=1).tolist()
    # The scalar's small/large split: ``a`` is small on equal sizes.
    a_small: List[bool] = (
        corpus.sizes[a_rows] <= corpus.sizes[b_rows]
    ).tolist()
    # Exact integer masses over ``denominator``: item counts unweighted.
    if scaled is None:
        inter = inter_tc.sum(axis=1)
        inter_mass: List[int] = inter.tolist()
        union_mass: List[int] = (
            corpus.sizes[a_rows] + corpus.sizes[b_rows] - inter
        ).tolist()
        denominator = 1
    else:
        union_tc = type_counts_a + type_counts_b - inter_tc
        inter_mass, union_mass = _masses(scaled, inter_tc, union_tc)
        denominator = scaled.denominator
    greedy = _SoftGreedy(corpus, geo_lookup, weights)
    out: List[float] = []
    for index, (rid_a, rid_b) in enumerate(pairs):
        union_n = union_mass[index]
        if union_n == 0:
            # Both bags empty, or a zero weight mass: the scalar's 1.0.
            out.append(1.0)
            continue
        mass = inter_mass[index] / denominator
        if greedy_list[index]:
            small, large = (
                (rid_a, rid_b) if a_small[index] else (rid_b, rid_a)
            )
            mass = greedy.score(small, large, mass)
        out.append(mass / (union_n / denominator))
    return out


#: One record's greedy inputs: its ids in canonical order, its id set,
#: and its ids per type index in canonical order.
_GreedyRecord = Tuple[List[int], FrozenSet[int], Dict[int, List[int]]]


class _SoftGreedy:
    """The Eq.-1 greedy claim loop of :func:`soft_jaccard_items`, on ids.

    Per record, built once per kernel call: its vocabulary ids sorted by
    :attr:`InternedCorpus.repr_rank` (the scalar's ``sorted(key=repr)``
    order), its id set and its ids per type. Per ``(id, id)``: one
    memoised :func:`expert_item_similarity`.
    """

    __slots__ = (
        "_corpus", "_geo", "_weight", "_type_of", "_records", "_memo",
    )

    def __init__(
        self,
        corpus: InternedCorpus,
        geo_lookup: Optional[GeoLookup],
        weights: Optional[Mapping[ItemType, float]],
    ) -> None:
        self._corpus = corpus
        self._geo = geo_lookup
        # Item weight per type index, as the scalar's ``item_weight``.
        self._weight: List[float] = [
            1.0 if weights is None else weights.get(item_type, 1.0)
            for item_type in TYPE_ORDER
        ]
        type_of = [0] * len(corpus.vocab)
        for type_index, (lo, hi) in enumerate(corpus.type_ranges):
            type_of[lo:hi] = [type_index] * (hi - lo)
        self._type_of = type_of
        self._records: Dict[int, _GreedyRecord] = {}
        self._memo: Dict[Tuple[int, int], float] = {}

    def _record(self, rid: int) -> _GreedyRecord:
        entry = self._records.get(rid)
        if entry is None:
            corpus = self._corpus
            id_of = corpus.id_of
            ranked = sorted(
                (id_of[item] for item in corpus.bags[rid]),
                key=corpus.repr_rank.__getitem__,
            )
            type_of = self._type_of
            by_type: Dict[int, List[int]] = {}
            for item_id in ranked:
                by_type.setdefault(type_of[item_id], []).append(item_id)
            entry = (ranked, frozenset(ranked), by_type)
            self._records[rid] = entry
        return entry

    def score(self, small: int, large: int, inter_mass: float) -> float:
        """``inter_mass`` plus the weighted greedy claims of ``small``.

        Claims run over ``small``'s unshared items in canonical order;
        each takes the first best-scoring (``score > best``) unclaimed
        unshared item of its type in ``large``, in canonical order, and
        adds ``best * weight`` to the mass in that same order.
        """
        small_ids, small_set, _ = self._record(small)
        _, large_set, large_by_type = self._record(large)
        # Per type: the large side's unshared, unclaimed ids, in order.
        pools: Dict[int, List[int]] = {}
        vocab = self._corpus.vocab
        type_of = self._type_of
        memo = self._memo
        geo = self._geo
        weight = self._weight
        for item_id in small_ids:
            if item_id in large_set:
                continue
            type_index = type_of[item_id]
            pool = pools.get(type_index)
            if pool is None:
                pool = pools[type_index] = [
                    other_id
                    for other_id in large_by_type.get(type_index, ())
                    if other_id not in small_set
                ]
            if not pool:
                continue
            best_score = 0.0
            best_index = -1
            for index, other_id in enumerate(pool):
                key = (item_id, other_id)
                score = memo.get(key)
                if score is None:
                    score = memo[key] = expert_item_similarity(
                        vocab[item_id], vocab[other_id], geo
                    )
                if score > best_score:
                    best_score = score
                    best_index = index
            if best_index >= 0:
                # Dropping the claimed id keeps the pool's order, as the
                # scalar's claimed flags do.
                del pool[best_index]
                inter_mass += best_score * weight[type_index]
        return inter_mass


def _mass_ratio(
    inter_arr: np.ndarray, union_arr: np.ndarray, denominator: int
) -> List[float]:
    """``round(Ni/D) / round(Nu/D)`` vectorized, bit-equal to fsum.

    ``int64 → float64`` conversion is correctly rounded, and dividing
    by the exact power-of-two ``D`` only shifts the exponent, so
    ``float64(N) / D == round(N / D)`` for every nonzero mass in the
    normal range (guaranteed by the ``_FLOAT_EXACT_DEN`` gate). A zero
    integer mass is exactly the scalar's ``fsum == 0`` branch.
    """
    den = float(denominator)
    inter_f = inter_arr.astype(np.float64) / den
    union_f = union_arr.astype(np.float64) / den
    safe = np.where(union_arr != 0, union_f, 1.0)
    out = np.where(union_arr == 0, 1.0, inter_f / safe)
    result: List[float] = out.tolist()
    return result


def _masses(
    scaled: ScaledWeights,
    inter_tc: np.ndarray,
    union_tc: np.ndarray,
) -> "tuple[List[int], List[int]]":
    """Exact integer masses of per-type counts under scaled weights.

    The ``int64`` matmul is used only under the corpus's proven
    overflow bound; otherwise the fallback runs exact Python-int
    arithmetic. ``tolist()`` converts to Python ints *before* any
    division — ``np.int64`` division routes through float64.
    """
    if scaled.vec64 is not None:
        inter_mass: List[int] = (inter_tc @ scaled.vec64).tolist()
        union_mass: List[int] = (union_tc @ scaled.vec64).tolist()
        return inter_mass, union_mass
    ints = scaled.ints
    inter_mass = [
        sum(count * weight for count, weight in zip(row, ints) if count)
        for row in inter_tc.tolist()
    ]
    union_mass = [
        sum(count * weight for count, weight in zip(row, ints) if count)
        for row in union_tc.tolist()
    ]
    return inter_mass, union_mass
