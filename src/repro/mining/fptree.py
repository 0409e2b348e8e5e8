"""FP-tree data structure (Han et al.), the substrate of FP-Growth/FPMax.

The tree stores transactions as prefix-shared paths of items ordered by
descending global frequency. Items are integer ids — callers map their
item vocabulary to dense ints first (see :mod:`repro.mining.fpgrowth`).

A header table links all nodes of each item so conditional pattern bases
can be collected by walking node-links, exactly as in the original
algorithm (and Borgelt's implementation the paper uses).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["FPNode", "FPTree"]


class FPNode:
    """One node of an FP-tree: an item, a count, and tree links."""

    __slots__ = ("item", "count", "parent", "children", "next_link")

    def __init__(self, item: int, parent: Optional["FPNode"]) -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: Dict[int, "FPNode"] = {}
        self.next_link: Optional["FPNode"] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FPNode(item={self.item}, count={self.count})"


class FPTree:
    """An FP-tree with a header table of per-item node chains."""

    def __init__(self) -> None:
        self.root = FPNode(item=-1, parent=None)
        #: item -> (first node of chain, total support in this tree)
        self.header: Dict[int, FPNode] = {}
        self.item_support: Dict[int, int] = {}

    def insert(self, items: Sequence[int], count: int = 1) -> None:
        """Insert one (ordered) transaction with multiplicity ``count``."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, node)
                node.children[item] = child
                # Prepend to the item's node-link chain.
                child.next_link = self.header.get(item)
                self.header[item] = child
            child.count += count
            node = child
        # Track per-item support for quick header queries.
        for item in items:
            self.item_support[item] = self.item_support.get(item, 0) + count

    def is_empty(self) -> bool:
        return not self.root.children

    def node_count(self) -> int:
        """Number of item nodes (root excluded) — the obs tree-size gauge.

        FP-tree size is the memory/time driver of Fig. 12; observability
        reads it once per built tree rather than instrumenting every
        ``insert`` on the hot path.
        """
        total = 0
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children.values())
        return total

    def items(self) -> List[int]:
        """Items present in the tree."""
        return list(self.header)

    def nodes_of(self, item: int) -> Iterable[FPNode]:
        """Iterate the node-link chain of one item."""
        node = self.header.get(item)
        while node is not None:
            yield node
            node = node.next_link

    def support_of(self, item: int) -> int:
        """Total support of one item within this (conditional) tree."""
        return self.item_support.get(item, 0)

    def prefix_paths(self, item: int) -> List[Tuple[List[int], int]]:
        """Conditional pattern base of ``item``: (path items, count) pairs.

        Each path lists the ancestors of one ``item`` node from nearest to
        root (excluding the item itself), with the node's count.
        """
        paths: List[Tuple[List[int], int]] = []
        for node in self.nodes_of(item):
            path: List[int] = []
            parent = node.parent
            while parent is not None and parent.item != -1:
                path.append(parent.item)
                parent = parent.parent
            if path or node.count:
                paths.append((path, node.count))
        return paths

    def single_path(self) -> Optional[List[Tuple[int, int]]]:
        """If the tree is a single chain, return its (item, count) list.

        FPMax short-circuits single-path trees: the whole path (plus the
        current suffix) is one maximal candidate.
        """
        path: List[Tuple[int, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            (node,) = node.children.values()
            path.append((node.item, node.count))
        return path

    @staticmethod
    def frequent_in_base(
        paths: Sequence[Tuple[List[int], int]], minsup: int
    ) -> Set[int]:
        """Items whose support within a pattern base meets ``minsup``.

        Exactly the items of the conditional tree
        :meth:`from_conditional` would build from ``paths``, so FPMax
        can test the tree's head for subsumption before building it.
        """
        support: Dict[int, int] = {}
        for path, count in paths:
            for item in path:
                if item in support:
                    support[item] += count
                else:
                    support[item] = count
        return {item for item, total in support.items() if total >= minsup}

    @classmethod
    def from_conditional(
        cls,
        paths: Sequence[Tuple[List[int], int]],
        minsup: int,
        keep: Optional[AbstractSet[int]] = None,
    ) -> "FPTree":
        """Build a conditional FP-tree from a pattern base.

        Items failing ``minsup`` within the base are dropped; surviving
        items keep the *global* frequency order (item ids are ranks,
        lower id = more frequent) so the tree stays canonical.
        ``keep`` passes in :meth:`frequent_in_base` of ``paths`` when
        the caller has already counted it.
        """
        if keep is None:
            keep = cls.frequent_in_base(paths, minsup)
        tree = cls()
        for path, count in paths:
            filtered = [item for item in path if item in keep]
            filtered.sort()
            if filtered:
                tree.insert(filtered, count)
        return tree
