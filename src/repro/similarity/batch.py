"""Vectorized batch forms of the item-set similarity kernels.

Each kernel here computes, for a *list* of record pairs at once, the
same float the scalar reference in :mod:`repro.similarity.items`
computes per pair — **bit for bit**. The scalar functions are the
references (the property suite in ``tests/test_batch_kernels.py`` and
the golden kernel vectors pin the equivalence); no kernel calls them.
These batch forms exist so a chunk of thousands of pairs costs a
handful of numpy passes instead of thousands of frozenset walks.

Two kernels cover Table 9's three conditions, and both take their
set-overlap arithmetic from one exact-mass helper (:func:`_exact_masses`):

* :func:`weighted_jaccard_items_batch` — the scalar uses ``math.fsum``,
  which returns the correctly rounded *exact* sum. With every weight
  rewritten as an exact integer over a common power-of-two denominator
  ``D`` (:class:`~repro.similarity.interning.ScaledWeights`), the exact
  mass is an integer ``N`` and ``N / D`` rounded once is the same
  value. A nonzero exact mass is at least ``1 / D`` in magnitude, which
  never underflows to ``0.0``, so the ``== 0`` branch agrees with
  ``fsum`` exactly as well. Plain Jaccard (the uniform scorer) is this
  kernel under unit weights: ``D`` is 1, the masses are the popcounts
  ``len(a & b)`` and ``len(a | b)``, and their ratio is the scalar's
  one correctly rounded division.
* :func:`soft_jaccard_items_batch` — the greedy Eq.-1 assignment only
  contributes when *both* sides keep unshared items of a common type;
  the per-type popcounts detect exactly those pairs. Every other pair
  reads the shared exact-mass ratio. Unweighted soft Jaccard is soft
  Jaccard under unit weights: the scalar's ``len`` counts and its
  ``fsum`` of ones are the same floats. The greedy pairs replay the
  scalar's claim loop on interned ids:

  - *Order.* The scalar sorts each side's unshared items by ``repr``
    and claims in that order, first best wins. The corpus ranks every
    vocabulary id by ``repr`` once, on first use
    (:attr:`~repro.similarity.interning.InternedCorpus.repr_rank`);
    distinct items have distinct reprs, so an integer sort by rank is
    the same total order. Each record's ids are sorted by rank once per
    call, not once per pair.
  - *Masses.* The scalar's starting intersection mass and its union
    are ``fsum`` of item weights (``len`` counts when unweighted). Here
    they are the exact integer masses ``N`` over the common denominator
    ``D``, rounded once, which is what ``fsum`` returns.
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

A non-finite weight has no exact integer form. It raises ``ValueError``
where weights enter (:class:`~repro.blocking.scoring.BlockScorer`, and
:meth:`~repro.similarity.interning.InternedCorpus.scaled_weights` for a
direct kernel call).

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
from repro.similarity.items import GeoLookup, expert_item_similarity

__all__ = [
    "weighted_jaccard_items_batch",
    "soft_jaccard_items_batch",
]


#: Byte budget of one ``uint64[rows, width]`` temporary of the
#: kernels. They walk ``pairs`` in row slices of this size, so their
#: transient memory stays flat however many pairs one call gets; every
#: score is a pure per-pair function, so slicing changes no bit.
SLICE_BYTES = 1 << 20


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
def weighted_jaccard_items_batch(
    corpus: InternedCorpus,
    pairs: Sequence[Pair],
    weights: Mapping[ItemType, float],
    default_weight: float = 1.0,
) -> List[float]:
    """Type-weighted Jaccard; ≡ :func:`weighted_jaccard_items` per pair.

    Unit weights (``{}`` with the default weight 1.0) give plain
    Jaccard, ≡ :func:`jaccard_items` per pair.
    """
    scaled = corpus.scaled_weights(weights, default_weight)
    if not pairs:
        return []
    all_a, all_b = corpus.pair_rows(pairs)
    out: List[float] = []
    for rows in _row_slices(corpus, len(pairs)):
        a_rows, b_rows = all_a[rows], all_b[rows]
        and_bits = corpus.bits[a_rows] & corpus.bits[b_rows]
        inter, union = _exact_masses(corpus, a_rows, b_rows, and_bits, scaled)
        out.extend(_ratios(inter, union).tolist())
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

    ``weights`` of ``None`` means unit weights, as in the scalar. The
    greedy partial-match assignment engages only when both records keep
    unshared items of a common type; those pairs run the scalar's
    greedy claim loop on interned ids (:class:`_SoftGreedy`).
    """
    item_weights: Mapping[ItemType, float] = weights or {}
    scaled = corpus.scaled_weights(item_weights)
    if not pairs:
        return []
    greedy = _SoftGreedy(corpus, geo_lookup, item_weights)
    all_a, all_b = corpus.pair_rows(pairs)
    out: List[float] = []
    for rows in _row_slices(corpus, len(pairs)):
        out.extend(
            _soft_slice(corpus, all_a[rows], all_b[rows], scaled, greedy)
        )
    return out


def _soft_slice(
    corpus: InternedCorpus,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    scaled: ScaledWeights,
    greedy: "_SoftGreedy",
) -> List[float]:
    """:func:`soft_jaccard_items_batch` over one row slice."""
    and_bits = corpus.bits[a_rows] & corpus.bits[b_rows]
    inter, union = _exact_masses(corpus, a_rows, b_rows, and_bits, scaled)
    out: List[float] = _ratios(inter, union).tolist()
    inter_tc = corpus.type_counts_of(and_bits)
    # A zero union mass is the scalar's 1.0, returned before its claims.
    takes_greedy = (
        ((corpus.type_counts[a_rows] - inter_tc) > 0)
        & ((corpus.type_counts[b_rows] - inter_tc) > 0)
    ).any(axis=1) & (union != 0)
    index = np.flatnonzero(takes_greedy)
    # The scalar's small/large split: ``a`` is small on equal sizes.
    a_small = (corpus.sizes[a_rows] <= corpus.sizes[b_rows])[index]
    small = np.where(a_small, a_rows[index], b_rows[index]).tolist()
    large = np.where(a_small, b_rows[index], a_rows[index]).tolist()
    for position, small_row, large_row, inter_mass, union_mass in zip(
        index.tolist(),
        small,
        large,
        inter[index].tolist(),
        union[index].tolist(),
    ):
        out[position] = (
            greedy.score(small_row, large_row, inter_mass) / union_mass
        )
    return out


def _exact_masses(
    corpus: InternedCorpus,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    and_bits: np.ndarray,
    scaled: ScaledWeights,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair's intersection and union mass, as ``float64``.

    Each is the exact integer mass ``N`` over the common denominator
    ``D``, rounded once, which is what the scalar's ``fsum`` returns.
    On the ``int64`` route the conversion of ``N`` is correctly rounded
    and dividing by the power of two ``D <= 2**1022`` only shifts the
    exponent. Otherwise ``N`` is a Python int and ``N / D`` is Python's
    correctly rounded true division. A nonzero ``N`` never rounds to
    ``0.0``, so a zero mass is exactly the scalar's ``fsum == 0``.
    """
    seg_weights = scaled.seg_weights
    inter = (
        corpus.seg_counts_of(and_bits).astype(seg_weights.dtype) @ seg_weights
    )
    union = (
        scaled.record_masses[a_rows] + scaled.record_masses[b_rows] - inter
    )
    if scaled.exact64:
        den = float(scaled.denominator)
        return inter.astype(np.float64) / den, union.astype(np.float64) / den
    denominator = scaled.denominator
    return (
        (inter / denominator).astype(np.float64),
        (union / denominator).astype(np.float64),
    )


def _ratios(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union`` per pair; the scalar's 1.0 on a zero union.

    A zero union mass means both bags are empty or their weights cancel.
    Weights that cancel to a tiny union can overflow the ratio to
    ``inf``, as the scalar's float division does.
    """
    zero = union == 0
    with np.errstate(over="ignore"):
        out: np.ndarray = np.where(
            zero, 1.0, inter / np.where(zero, 1.0, union)
        )
    return out


#: One record's greedy inputs: its ids in canonical order, its id set,
#: and its ids per type index in canonical order.
_GreedyRecord = Tuple[List[int], FrozenSet[int], Dict[int, List[int]]]


class _SoftGreedy:
    """The Eq.-1 greedy claim loop of :func:`soft_jaccard_items`, on ids.

    Per corpus row, built once per kernel call from the row's bitset:
    its vocabulary ids sorted by :attr:`InternedCorpus.repr_rank` (the
    scalar's ``sorted(key=repr)`` order), its id set and its ids per
    type. Per ``(id, id)``: one memoised :func:`expert_item_similarity`.
    """

    __slots__ = (
        "_corpus", "_geo", "_weight", "_type_of", "_records", "_memo",
    )

    def __init__(
        self,
        corpus: InternedCorpus,
        geo_lookup: Optional[GeoLookup],
        weights: Mapping[ItemType, float],
    ) -> None:
        self._corpus = corpus
        self._geo = geo_lookup
        # Item weight per type index, as the scalar's ``item_weight``.
        self._weight: List[float] = [
            weights.get(item_type, 1.0) for item_type in TYPE_ORDER
        ]
        type_of = [0] * len(corpus.vocab)
        for type_index, (lo, hi) in enumerate(corpus.type_ranges):
            type_of[lo:hi] = [type_index] * (hi - lo)
        self._type_of = type_of
        self._records: Dict[int, _GreedyRecord] = {}
        self._memo: Dict[Tuple[int, int], float] = {}

    def _record(self, row: int) -> _GreedyRecord:
        entry = self._records.get(row)
        if entry is None:
            corpus = self._corpus
            ranked = sorted(
                corpus.row_item_ids(row).tolist(),
                key=corpus.repr_rank.__getitem__,
            )
            type_of = self._type_of
            by_type: Dict[int, List[int]] = {}
            for item_id in ranked:
                by_type.setdefault(type_of[item_id], []).append(item_id)
            entry = (ranked, frozenset(ranked), by_type)
            self._records[row] = entry
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
