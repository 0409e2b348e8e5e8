"""Interned integer encoding of record item bags for batch kernels.

The scalar similarity functions in :mod:`repro.similarity.items` work
on ``FrozenSet[Item]`` — per pair, per call. At corpus scale that is
the RL300-flagged hot chain: every pair rebuilds set intersections of
tuples of strings. :class:`InternedCorpus` removes the string work
once and for all:

* the corpus vocabulary is sorted canonically by ``(item type, value)``
  and interned to dense integer ids, so every :class:`ItemType` owns a
  contiguous id range;
* each record's bag becomes a packed ``uint64`` bitset row, so pair
  intersection/union sizes are ``AND``/``popcount`` over a handful of
  machine words (``numpy.bitwise_count``), and *per-type* counts are
  popcounts over the type's word range with boundary masks;
* weighted masses are computed in **exact integer arithmetic**: every
  float weight is a dyadic rational (``float.as_integer_ratio`` always
  yields a power-of-two denominator), so all weights share a common
  denominator ``D`` and the weighted mass of any item multiset is an
  integer ``N`` with exact value ``N / D``. ``math.fsum`` — what the
  scalar reference uses — returns the correctly rounded exact sum, and
  Python's int/int true division is also correctly rounded, so
  ``N / D == math.fsum(weights)`` **bit for bit**. This is the identity
  that lets the batch kernels in :mod:`repro.similarity.batch` promise
  byte-identical ranked output (docs/PARALLELISM.md, "Batch kernels").
  Unit weights give ``D = 1`` and masses that are plain popcounts: that
  is how unweighted Jaccard is scored.

Integer overflow is handled, not assumed away: the ``int64`` matmul
route is used only when the largest conceivable scaled mass is
provably below ``2**62`` and dividing by ``D`` is an exponent shift;
otherwise the masses are exact Python ints (``object`` arrays), whose
``int / int`` division is correctly rounded at any magnitude. A
non-finite weight has no exact integer form: it raises ``ValueError``
when the weight table is scaled, so no kernel ever needs the scalar
functions. The corpus keeps only integer data and its vocabulary, no
``Item`` bags: the soft-Jaccard greedy step decodes a record's ids
from its bitset row (:meth:`InternedCorpus.row_item_ids`).

The corpus is read-only after construction, picklable, and fork-safe —
the shared-state registry (:mod:`repro.parallel.shared`) publishes it
once per run and pool workers score pairs against the copy they adopted
at start (the parent's own pages under fork), without any per-chunk
corpus pickling.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from repro.contracts import deterministic
from repro.records.itembag import Item, ItemType

__all__ = ["InternedCorpus", "ScaledWeights", "TYPE_ORDER"]

Pair = Tuple[int, int]

#: Canonical item-type order: enum definition order, which is fixed at
#: import time and independent of hash seeds.
TYPE_ORDER: Tuple[ItemType, ...] = tuple(ItemType)

_TYPE_INDEX: Dict[ItemType, int] = {t: i for i, t in enumerate(TYPE_ORDER)}

_WORD_BITS = 64
_ALL_ONES = (1 << _WORD_BITS) - 1

#: ``int64`` matmul is used only when the largest possible scaled mass
#: is provably below this bound (2**62 leaves a 2x safety margin).
_INT64_SAFE_BOUND = 1 << 62

#: Float division by the common denominator is a pure exponent shift
#: (hence rounding-preserving) only while every nonzero ``mass / D``
#: stays in the normal float range. ``|mass| >= 1``, so ``D <= 2**1022``
#: guarantees it; larger denominators (subnormal weights) take the
#: exact Python-int route instead.
_FLOAT_EXACT_DEN = 1 << 1022


class ScaledWeights:
    """An item-type weight table as exact integers over one denominator.

    Bound to the corpus that built it. ``seg_weights[s]`` is the weight
    of word segment ``s``'s item type times ``denominator`` (see
    :meth:`InternedCorpus.seg_counts_of`), and ``record_masses[r]`` is
    the scaled mass of row ``r``'s whole bag, so a pair's union mass is
    ``mass_a + mass_b - inter``. Both arrays are ``int64`` when
    ``exact64`` holds (every mass provably fits and ``denominator <=
    2**1022``); otherwise they are ``object`` arrays of Python ints.
    """

    __slots__ = ("denominator", "seg_weights", "record_masses", "exact64")

    def __init__(
        self,
        denominator: int,
        seg_weights: np.ndarray,
        record_masses: np.ndarray,
        exact64: bool,
    ) -> None:
        self.denominator = denominator
        self.seg_weights = seg_weights
        self.record_masses = record_masses
        self.exact64 = exact64


def _scale_weights(values: Sequence[float]) -> Tuple[int, Tuple[int, ...]]:
    """Rewrite float weights as integers over a common denominator.

    ``values`` holds one weight per type, in :data:`TYPE_ORDER` order.
    Returns ``(denominator, ints)`` with ``values[i] == ints[i] /
    denominator`` exactly; a non-finite weight raises ``ValueError``.
    """
    ratios: List[Tuple[int, int]] = []
    for item_type, value in zip(TYPE_ORDER, values):
        try:
            ratios.append(float(value).as_integer_ratio())
        except (OverflowError, ValueError):  # inf / nan
            raise ValueError(
                f"item weight for {item_type.name} must be finite, "
                f"got {value!r}"
            ) from None
    # as_integer_ratio denominators are always powers of two, so their
    # least common multiple is simply the largest one.
    denominator = 1
    for _num, den in ratios:
        if den > denominator:
            denominator = den
    ints = tuple(num * (denominator // den) for num, den in ratios)
    return denominator, ints


class InternedCorpus:
    """Item bags interned to dense ids and packed bitset rows.

    Construction is deterministic: record rows follow sorted record id
    order and vocabulary ids follow ``(type, value)`` order, so the
    arrays — and everything computed from them — are independent of
    set/dict iteration order and hash seeds.
    """

    def __init__(self, item_bags: Mapping[int, FrozenSet[Item]]) -> None:
        rids = sorted(item_bags)
        self.rids: Tuple[int, ...] = tuple(rids)
        self.row_of: Dict[int, int] = {rid: row for row, rid in enumerate(rids)}

        vocab = sorted(
            {item for bag in item_bags.values() for item in bag},
            key=lambda item: (_TYPE_INDEX[item.type], item.value),
        )
        self.vocab: Tuple[Item, ...] = tuple(vocab)
        id_of = {item: i for i, item in enumerate(vocab)}

        n_records = len(rids)
        n_items = len(vocab)
        n_words = max(1, (n_items + _WORD_BITS - 1) // _WORD_BITS)
        bits = np.zeros((n_records, n_words), dtype=np.uint64)
        for row, rid in enumerate(rids):
            bag = item_bags[rid]
            if not bag:
                continue
            ids = np.fromiter(
                (id_of[item] for item in bag), dtype=np.uint64, count=len(bag)
            )
            np.bitwise_or.at(
                bits[row],
                ids >> np.uint64(6),
                np.uint64(1) << (ids & np.uint64(63)),
            )
        self.bits: np.ndarray = bits

        # [lo, hi) vocabulary-id range per type, in TYPE_ORDER order.
        ranges: List[Tuple[int, int]] = []
        cursor = 0
        for type_index in range(len(TYPE_ORDER)):
            lo = cursor
            while cursor < n_items and _TYPE_INDEX[vocab[cursor].type] == type_index:
                cursor += 1
            ranges.append((lo, cursor))
        self.type_ranges: Tuple[Tuple[int, int], ...] = tuple(ranges)

        # Word-segment table: the flat list of (word, mask, type) spans
        # covering the vocabulary, so one vectorized popcount over
        # ``(n, S)`` columns replaces a per-type masked loop.
        seg_words: List[int] = []
        seg_masks: List[int] = []
        seg_types: List[int] = []
        for type_index, (lo, hi) in enumerate(ranges):
            if lo == hi:
                continue
            word_lo = lo // _WORD_BITS
            word_hi = (hi - 1) // _WORD_BITS
            for word in range(word_lo, word_hi + 1):
                mask = _ALL_ONES
                if word == word_lo:
                    mask &= (~((1 << (lo % _WORD_BITS)) - 1)) & _ALL_ONES
                if word == word_hi:
                    last_bits = ((hi - 1) % _WORD_BITS) + 1
                    mask &= ((1 << last_bits) - 1) & _ALL_ONES
                seg_words.append(word)
                seg_masks.append(mask)
                seg_types.append(type_index)
        self._seg_words = np.array(seg_words, dtype=np.intp)
        self._seg_masks = np.array(seg_masks, dtype=np.uint64)
        self._seg_types = np.array(seg_types, dtype=np.intp)
        seg_to_type = np.zeros(
            (len(seg_words), len(TYPE_ORDER)), dtype=np.int64
        )
        if seg_words:
            seg_to_type[np.arange(len(seg_words)), self._seg_types] = 1
        self._seg_to_type = seg_to_type

        self.sizes: np.ndarray = np.bitwise_count(bits).sum(
            axis=1, dtype=np.int64
        )
        #: Per-record item count per type, ``int64[n_records, n_types]``.
        self.type_counts: np.ndarray = self.type_counts_of(bits)

        # Overflow bound for scaled-weight masses: a pair's union never
        # holds more items than the two largest bags combined.
        largest = int(self.sizes.max()) if n_records else 0
        self.max_pair_items: int = 2 * largest
        self._weights_cache: Dict[Tuple[float, ...], ScaledWeights] = {}

    @cached_property
    def repr_rank(self) -> Tuple[int, ...]:
        """Position of every vocabulary id in ``repr`` order.

        This is the canonical order the scalar soft Jaccard sorts its
        leftover items into, as an integer sort key. Distinct items
        have distinct reprs, so the order is total. Only the soft
        Jaccard kernel reads it, so it is built on first use.
        """
        vocab = self.vocab
        rank_of = [0] * len(vocab)
        for rank, item_id in enumerate(
            sorted(range(len(vocab)), key=lambda i: repr(vocab[i]))
        ):
            rank_of[item_id] = rank
        return tuple(rank_of)

    # -- row lookups ---------------------------------------------------------

    def row_item_ids(self, row: int) -> np.ndarray:
        """Vocabulary ids of row ``row``'s items, ascending."""
        word_bytes = self.bits[row].astype("<u8", copy=False).view(np.uint8)
        return np.flatnonzero(np.unpackbits(word_bytes, bitorder="little"))

    def pair_rows(self, pairs: Sequence[Pair]) -> Tuple[np.ndarray, np.ndarray]:
        """Row indexes of the left and right record of every pair."""
        row_of = self.row_of
        count = len(pairs)
        a_rows = np.fromiter(
            (row_of[pair[0]] for pair in pairs), dtype=np.intp, count=count
        )
        b_rows = np.fromiter(
            (row_of[pair[1]] for pair in pairs), dtype=np.intp, count=count
        )
        return a_rows, b_rows

    # -- popcount kernels ----------------------------------------------------

    @deterministic
    def seg_counts_of(self, bits2d: np.ndarray) -> np.ndarray:
        """Per-word-segment popcounts: ``int64[len(bits2d), S]``.

        A segment is a (word, mask) span owned by one item type; the
        whole table is evaluated in a single vectorized popcount.
        """
        masked = bits2d[:, self._seg_words] & self._seg_masks
        return np.bitwise_count(masked).astype(np.int64)

    @deterministic
    def type_counts_of(self, bits2d: np.ndarray) -> np.ndarray:
        """Per-type popcounts of packed bitset rows.

        Each type's count is the popcount of its contiguous id range.
        Returns ``int64[len(bits2d), len(TYPE_ORDER)]``.
        """
        return self.seg_counts_of(bits2d) @ self._seg_to_type

    # -- exact weight scaling ------------------------------------------------

    def scaled_weights(
        self,
        weights: Mapping[ItemType, float],
        default_weight: float = 1.0,
    ) -> ScaledWeights:
        """The exact integer form of a weight table (cached).

        A type missing from ``weights`` weighs ``default_weight``. A
        non-finite weight raises ``ValueError``.
        """
        key = (float(default_weight),) + tuple(
            float(weights.get(item_type, default_weight))
            for item_type in TYPE_ORDER
        )
        entry = self._weights_cache.get(key)
        if entry is None:
            denominator, ints = _scale_weights(key[1:])
            max_abs = max((abs(value) for value in ints), default=0)
            exact64 = (
                max_abs * max(1, self.max_pair_items) < _INT64_SAFE_BOUND
                and denominator <= _FLOAT_EXACT_DEN
            )
            dtype = np.int64 if exact64 else object
            vec = np.array(ints, dtype=dtype)
            entry = ScaledWeights(
                denominator,
                vec[self._seg_types],
                self.type_counts.astype(dtype) @ vec,
                exact64,
            )
            self._weights_cache[key] = entry
        return entry
