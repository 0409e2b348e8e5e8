"""Frequent-itemset mining substrate: FP-Growth, FPMax, pruning."""

from __future__ import annotations

from repro.mining.fpgrowth import (
    Itemset,
    frequent_itemsets,
    maximal_frequent_itemsets,
    maximal_via_filter,
)
from repro.mining.pruning import DEFAULT_PRUNE_FRACTION, prune_frequent_items

__all__ = [
    "Itemset",
    "frequent_itemsets",
    "maximal_frequent_itemsets",
    "maximal_via_filter",
    "DEFAULT_PRUNE_FRACTION",
    "prune_frequent_items",
]
