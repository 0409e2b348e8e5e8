"""Block scoring and the compact-set / sparse-neighborhood machinery.

MFIBlocks constrains blocks to satisfy the *compact set* (CS) and
*sparse neighborhood* (SN) properties of Chaudhuri et al. [7]:

* **CS** — records in a block should be more similar to each other than
  to records outside it. Operationally the block score is an aggregate
  of pairwise record similarity, and low-scoring blocks are pruned by a
  threshold (``minTh``) that rises as SN violations are observed.
* **SN** — each record's candidate neighborhood must stay small. The
  Neighborhood Growth (NG) parameter caps it: a record in one pure block
  of size ``minsup`` has ``minsup - 1`` neighbors, so we allow at most
  ``NG * (minsup - 1)`` distinct neighbors per record (and Algorithm 1
  line 8 separately caps block size at ``minsup * NG``).

Three scoring variants reproduce the Table 9 conditions:

* ``uniform`` — plain Jaccard over item bags (the Base condition);
* ``weighted`` — item-type-weighted Jaccard (Expert Weighting);
* ``expert`` — Eq.-1 soft Jaccard (ExpertSim; *not* set-monotone, which
  the paper identifies as the reason it underperforms).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.contracts import batch_kernel, deterministic, hot_path, pure
from repro.records.itembag import Item, ItemType
from repro.similarity.batch import (
    soft_jaccard_items_batch,
    weighted_jaccard_items_batch,
)
from repro.similarity.interning import InternedCorpus
from repro.similarity.items import (
    GeoLookup,
    jaccard_items,
    soft_jaccard_items,
    weighted_jaccard_items,
)

__all__ = [
    "ScoringMethod",
    "BlockScorer",
    "DEFAULT_EXPERT_WEIGHTS",
    "SparseNeighborhoodFilter",
    "neighborhood_cap",
]


class ScoringMethod(str, enum.Enum):
    """Which record-pair similarity aggregates into the block score."""

    UNIFORM = "uniform"
    WEIGHTED = "weighted"
    EXPERT = "expert"


#: An expert-derived weighting of item types (the "Expert Weighting"
#: condition). Identifying attributes — names, birth year — weigh more
#: than broad categorical ones; the exact values are our re-derivation in
#: the spirit of the paper (the original weights were not published).
DEFAULT_EXPERT_WEIGHTS: Mapping[ItemType, float] = {
    ItemType.FIRST_NAME: 2.0,
    ItemType.LAST_NAME: 2.5,
    ItemType.MAIDEN_NAME: 2.0,
    ItemType.FATHER_NAME: 1.8,
    ItemType.MOTHER_NAME: 1.8,
    ItemType.MOTHER_MAIDEN: 1.8,
    ItemType.SPOUSE_NAME: 1.6,
    ItemType.BIRTH_YEAR: 1.5,
    ItemType.BIRTH_MONTH: 0.8,
    ItemType.BIRTH_DAY: 0.8,
    ItemType.GENDER: 0.3,
    ItemType.PROFESSION: 0.6,
    ItemType.BIRTH_CITY: 1.2,
    ItemType.BIRTH_COUNTY: 0.8,
    ItemType.BIRTH_REGION: 0.5,
    ItemType.BIRTH_COUNTRY: 0.2,
    ItemType.PERM_CITY: 1.2,
    ItemType.PERM_COUNTY: 0.8,
    ItemType.PERM_REGION: 0.5,
    ItemType.PERM_COUNTRY: 0.2,
    ItemType.WAR_CITY: 1.0,
    ItemType.WAR_COUNTY: 0.7,
    ItemType.WAR_REGION: 0.4,
    ItemType.WAR_COUNTRY: 0.2,
    ItemType.DEATH_CITY: 1.0,
    ItemType.DEATH_COUNTY: 0.7,
    ItemType.DEATH_REGION: 0.4,
    ItemType.DEATH_COUNTRY: 0.2,
}

#: Every item type at the default weight 1.0: weighted Jaccard under
#: these weights is plain Jaccard (the Base condition).
_UNIT_WEIGHTS: Mapping[ItemType, float] = MappingProxyType({})


@dataclass
class BlockScorer:
    """Scores blocks as the mean pairwise similarity of member records.

    ``weights`` of ``None`` means uniform item weights; the WEIGHTED
    method falls back to :data:`DEFAULT_EXPERT_WEIGHTS` in that case,
    while the EXPERT (Eq.-1 soft) method composes with whatever weights
    are set — matching Table 9, where the ExpertSim condition runs on
    top of Expert Weighting. A non-finite weight raises ``ValueError``.
    """

    method: ScoringMethod = ScoringMethod.UNIFORM
    weights: Optional[Mapping[ItemType, float]] = None
    geo_lookup: Optional[GeoLookup] = None

    def __post_init__(self) -> None:
        weights = (
            self.weights if self.weights is not None else DEFAULT_EXPERT_WEIGHTS
        )
        for item_type, weight in weights.items():
            if not math.isfinite(weight):
                raise ValueError(
                    f"item weight for {item_type.name} must be finite, "
                    f"got {weight!r}"
                )

    @hot_path
    @pure
    def pair_similarity(self, a: FrozenSet[Item], b: FrozenSet[Item]) -> float:
        """Similarity between two records' item bags under the method."""
        if self.method is ScoringMethod.UNIFORM:
            return jaccard_items(a, b)
        if self.method is ScoringMethod.WEIGHTED:
            weights = self.weights if self.weights is not None else DEFAULT_EXPERT_WEIGHTS
            return weighted_jaccard_items(a, b, weights)
        return soft_jaccard_items(a, b, self.geo_lookup, self.weights)

    @hot_path
    @pure
    def score_block(
        self,
        records: Sequence[int],
        item_bags: Mapping[int, FrozenSet[Item]],
    ) -> float:
        """Mean pairwise similarity over the block's record pairs.

        This aggregate respects the compact-set intuition: a block whose
        members broadly share items scores high; a block glued together
        by one incidental MFI scores low and gets pruned by ``minTh``.
        """
        members = sorted(records)
        if len(members) < 2:
            return 0.0
        total = 0.0
        n_pairs = 0
        for i, rid_a in enumerate(members):
            bag_a = item_bags[rid_a]
            for rid_b in members[i + 1:]:
                total += self.pair_similarity(bag_a, item_bags[rid_b])
                n_pairs += 1
        return total / n_pairs

    @batch_kernel
    @pure
    def pair_similarity_batch(
        self, corpus: InternedCorpus, pairs: Sequence[Tuple[int, int]]
    ) -> List[float]:
        """Batch form of :meth:`pair_similarity` over an interned corpus.

        Returns one float per pair, bit-equal to the scalar method on
        the corresponding item bags (see :mod:`repro.similarity.batch`).
        UNIFORM is the weighted kernel under unit weights.
        """
        if self.method is ScoringMethod.EXPERT:
            return soft_jaccard_items_batch(
                corpus, pairs, self.geo_lookup, self.weights
            )
        if self.method is ScoringMethod.UNIFORM:
            weights = _UNIT_WEIGHTS
        else:
            weights = self.weights if self.weights is not None else DEFAULT_EXPERT_WEIGHTS
        return weighted_jaccard_items_batch(corpus, pairs, weights)

    @batch_kernel
    @pure
    def score_blocks_batch(
        self,
        blocks: Sequence[Sequence[int]],
        corpus: InternedCorpus,
        table: Mapping[Tuple[int, int], float],
    ) -> List[float]:
        """Batch form of :meth:`score_block` for many blocks at once.

        Member-pair similarities are read from ``table`` (pair -> score,
        holding every member pair of every block, each filled by
        :meth:`pair_similarity_batch`). Per-block accumulation replays
        :meth:`score_block`'s pair order and sequential float addition,
        so each returned mean is byte-identical to the scalar aggregate.
        """
        out: List[float] = []
        for members in (sorted(records) for records in blocks):
            if len(members) < 2:
                out.append(0.0)
                continue
            total = 0.0
            n_pairs = 0
            for pair in combinations(members, 2):
                total += table[pair]
                n_pairs += 1
            out.append(total / n_pairs)
        return out


@pure
def neighborhood_cap(ng: float, minsup: int) -> int:
    """Maximum distinct neighbors a record may accumulate (SN bound).

    The cap mirrors the block-size cap of Algorithm 1 line 8
    (``size <= minsup * NG``): a record admitted into one maximal block
    gains ``minsup * NG - 1`` neighbors, so the neighborhood bound is
    ``floor(minsup * NG)`` — any tighter and a single admissible block
    could violate SN by itself. The floor keeps fractional NG meaningful
    (NG=3.5, minsup=4 -> cap 14).
    """
    if ng <= 0:
        raise ValueError(f"NG must be positive, got {ng}")
    if minsup < 2:
        raise ValueError(f"minsup must be >= 2, got {minsup}")
    return max(1, math.floor(ng * minsup))


class SparseNeighborhoodFilter:
    """Implements lines 9-16 of Algorithm 1: the NG constraint on blocks.

    Blocks are admitted in descending score order; admitting a block that
    would push any member record's neighborhood past the NG cap is a
    *violation*. Two enforcement modes are provided:

    * ``"skip"`` (default) — violating blocks are discarded individually;
      lower-scoring non-violating blocks may still be admitted. This
      calibrates to the paper's published Base precision/recall and is
      what the quality experiments use.
    * ``"threshold"`` — the literal reading of Algorithm 1: the first
      violation raises ``minTh`` to the violating block's score, pruning
      it *and every lower-scoring block* of the iteration ("finding the
      minimal block score that will prune those blocks violating the
      sparse-neighborhood condition", lines 9-15). Noticeably more
      aggressive; kept for the NG-enforcement ablation benchmark.

    The filter is stateful across Algorithm 1 iterations: neighborhoods
    accumulated at a higher minsup still count against the cap later.
    """

    MODES = ("skip", "threshold")

    def __init__(self, ng: float, mode: str = "skip") -> None:
        if ng <= 0:
            raise ValueError(f"NG must be positive, got {ng}")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.ng = ng
        self.mode = mode
        self.neighbors: Dict[int, Set[int]] = {}
        self.min_threshold = 0.0

    def _would_violate(self, records: FrozenSet[int], cap: int) -> bool:
        for rid in records:
            current = self.neighbors.get(rid, set())
            added = records - {rid} - current
            if len(current) + len(added) > cap:
                return True
        return False

    def _admit(self, records: FrozenSet[int]) -> None:
        for rid in records:
            bucket = self.neighbors.setdefault(rid, set())
            bucket.update(records - {rid})

    @deterministic
    def filter_blocks(
        self,
        scored_blocks: List[Tuple[FrozenSet[int], FrozenSet[Item], float]],
        minsup: int,
    ) -> List[Tuple[FrozenSet[int], FrozenSet[Item], float]]:
        """Return the admitted blocks of one Algorithm 1 iteration.

        ``scored_blocks`` holds (records, key, score) triples; the result
        preserves only blocks above the (possibly raised) ``minTh`` that
        do not violate the SN cap.
        """
        cap = neighborhood_cap(self.ng, minsup)
        admitted: List[Tuple[FrozenSet[int], FrozenSet[Item], float]] = []
        for records, key, score in sorted(
            scored_blocks, key=lambda entry: (-entry[2], sorted(entry[0]))
        ):
            if score <= self.min_threshold:
                break
            if self._would_violate(records, cap):
                if self.mode == "threshold":
                    # Raise minTh: this block and everything below it is out.
                    self.min_threshold = max(self.min_threshold, score)
                    break
                continue
            self._admit(records)
            admitted.append((records, key, score))
        return admitted
