"""Token- and q-gram-based baselines: StBl, ACl, QGBl, EQGBl (Table 10).

* **StBl** — Standard Blocking (Christen'12): one block per attribute
  value shared by more than one record.
* **ACl** — Attribute Clustering (Papadakis'13): similar attribute
  values (``John``/``Jhon``) are grouped into one key before standard
  blocking.
* **QGBl** — Q-Grams Blocking (Gravano'01): each attribute value is
  replaced by its q-grams, each q-gram is a key.
* **EQGBl** — Extended Q-Grams: keys are concatenations of q-gram
  subsets (all combinations of ``ceil(L * T)`` of the ``L`` grams),
  increasing key discriminativeness.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.blocking.base import Block, BlockingAlgorithm, BlockingResult
from repro.blocking.baselines.common import KeyedBlocking, blocks_from_keys
from repro.records.dataset import Dataset
from repro.records.itembag import Item, ItemType
from repro.similarity.strings import dice_qgrams, qgrams

__all__ = [
    "StandardBlocking",
    "AttributeClustering",
    "QGramsBlocking",
    "ExtendedQGramsBlocking",
]


class StandardBlocking(KeyedBlocking):
    """StBl: one block per (attribute, value) key."""

    name = "StBl"

    def keys_for(self, items: FrozenSet[Item]) -> Iterable[Hashable]:
        return items


class QGramsBlocking(KeyedBlocking):
    """QGBl: one block per (attribute, q-gram of the value)."""

    name = "QGBl"

    def __init__(self, q: int = 3, max_block_size: Optional[int] = None) -> None:
        super().__init__(max_block_size)
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q

    def keys_for(self, items: FrozenSet[Item]) -> Iterable[Hashable]:
        keys = set()
        for item in items:
            for gram in qgrams(item.value.lower(), self.q, pad=False):
                keys.add((item.type.prefix, gram))
        return keys


class ExtendedQGramsBlocking(KeyedBlocking):
    """EQGBl: keys concatenate combinations of ceil(L*T) q-grams.

    ``threshold`` is the survey's T parameter (default 0.95); a
    combination cap keeps pathological long values tractable.
    """

    name = "EQGBl"

    def __init__(
        self,
        q: int = 3,
        threshold: float = 0.95,
        max_combinations: int = 32,
        max_block_size: Optional[int] = None,
    ) -> None:
        super().__init__(max_block_size)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.q = q
        self.threshold = threshold
        self.max_combinations = max_combinations

    def keys_for(self, items: FrozenSet[Item]) -> Iterable[Hashable]:
        keys = set()
        for item in items:
            grams = sorted(qgrams(item.value.lower(), self.q, pad=False))
            if not grams:
                continue
            take = max(1, int(-(-len(grams) * self.threshold // 1)))  # ceil
            n_combos = 1
            for i in range(take):
                n_combos = n_combos * (len(grams) - i) // (i + 1)
            if n_combos > self.max_combinations:
                keys.add((item.type.prefix, "".join(grams)))
                continue
            for combo in combinations(grams, take):
                keys.add((item.type.prefix, "".join(combo)))
        return keys


class AttributeClustering(BlockingAlgorithm):
    """ACl: cluster similar values per attribute, then standard-block.

    Values of the same item type whose q-gram Dice similarity reaches
    ``threshold`` share a key. Clustering is greedy: each value joins the
    first existing cluster whose representative it matches.
    """

    name = "ACl"

    def __init__(
        self,
        threshold: float = 0.8,
        q: int = 2,
        max_block_size: Optional[int] = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.q = q
        self.max_block_size = max_block_size

    def run(self, dataset: Dataset) -> BlockingResult:
        cluster_of = self._cluster_values(dataset)
        record_keys: Dict[int, FrozenSet[Hashable]] = {}
        for rid, items in dataset.item_bags.items():
            keys = set()
            for item in items:
                keys.add((item.type.prefix, cluster_of[(item.type, item.value)]))
            record_keys[rid] = frozenset(keys)
        result = BlockingResult()
        for members in blocks_from_keys(
            record_keys, max_block_size=self.max_block_size
        ):
            result.add_block(Block(records=members))
        return result

    def _cluster_values(
        self, dataset: Dataset
    ) -> Dict[Tuple[ItemType, str], int]:
        """Greedy per-type clustering of attribute values."""
        by_type: Dict[ItemType, Set[str]] = {}
        for bag in dataset.item_bags.values():
            for item in bag:
                by_type.setdefault(item.type, set()).add(item.value)
        cluster_of: Dict[Tuple[ItemType, str], int] = {}
        next_cluster = 0
        for item_type in sorted(by_type, key=lambda t: t.prefix):
            representatives: List[Tuple[str, int]] = []
            for value in sorted(by_type[item_type]):
                assigned = None
                for representative, cluster_id in representatives:
                    if dice_qgrams(
                        value.lower(), representative.lower(), self.q
                    ) >= self.threshold:
                        assigned = cluster_id
                        break
                if assigned is None:
                    assigned = next_cluster
                    next_cluster += 1
                    representatives.append((value, assigned))
                cluster_of[(item_type, value)] = assigned
        return cluster_of
