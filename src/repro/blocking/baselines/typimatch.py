"""TYPiMatch baseline (Ma & Tran, WSDM'13) — Table 10's last row.

TYPiMatch learns entity *types* from a token co-occurrence graph: tokens
that frequently co-occur form maximal cliques, each clique defines a
type, records are assigned to the types whose tokens they contain, and
each type's (large) block is decomposed by standard blocking within it.

This implementation follows that outline: the co-occurrence graph keeps
an edge between two tokens when their conditional co-occurrence ratio
reaches ``epsilon``; ``networkx`` enumerates maximal cliques (bounded
for tractability); standard blocking then runs inside each type's
record set.

The clique search runs over int token ids in sorted token order:
``find_cliques`` walks sets of nodes, and sets of strings iterate in
hash-seed order, so string nodes would make the cliques the
``max_cliques`` cut keeps, and the block order, depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx

from repro.blocking.base import Block, BlockingAlgorithm, BlockingResult
from repro.blocking.baselines.common import blocks_from_keys
from repro.records.dataset import Dataset

__all__ = ["TYPiMatch"]


class TYPiMatch(BlockingAlgorithm):
    """Type-specific blocking via token co-occurrence cliques."""

    name = "TYPiMatch"

    def __init__(
        self,
        epsilon: float = 0.35,
        min_token_support: int = 2,
        max_cliques: int = 200,
        max_block_size: Optional[int] = None,
    ) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon = epsilon
        self.min_token_support = min_token_support
        self.max_cliques = max_cliques
        self.max_block_size = max_block_size

    def run(self, dataset: Dataset) -> BlockingResult:
        tokens_of: Dict[int, FrozenSet[str]] = {
            rid: frozenset(item.value.lower() for item in items)
            for rid, items in dataset.item_bags.items()
        }
        graph, token_list = self._cooccurrence_graph(tokens_of)
        types = self._types(graph, token_list)

        result = BlockingResult()
        seen: Set[FrozenSet[int]] = set()
        for type_tokens in types:
            members = [
                rid
                for rid, tokens in tokens_of.items()
                if len(tokens & type_tokens) >= 2
            ]
            if len(members) < 2:
                continue
            # Decompose each type's record set by standard blocking.
            record_keys = {
                rid: frozenset(dataset.item_bags[rid]) for rid in members
            }
            for block_members in blocks_from_keys(
                record_keys, max_block_size=self.max_block_size
            ):
                if block_members in seen:
                    continue
                seen.add(block_members)
                result.add_block(Block(records=block_members))
        return result

    def _cooccurrence_graph(
        self, tokens_of: Dict[int, FrozenSet[str]]
    ) -> "Tuple[nx.Graph, List[str]]":
        """The token graph over int ids, and the tokens by id (sorted)."""
        support: Dict[str, int] = {}
        co_count: Dict[Tuple[str, str], int] = {}
        for tokens in tokens_of.values():
            ordered = sorted(tokens)
            for token in ordered:
                support[token] = support.get(token, 0) + 1
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    co_count[(a, b)] = co_count.get((a, b), 0) + 1

        token_list = sorted(support)
        token_id = {token: i for i, token in enumerate(token_list)}
        graph = nx.Graph()
        for (a, b), count in co_count.items():
            if support[a] < self.min_token_support:
                continue
            if support[b] < self.min_token_support:
                continue
            ratio = count / min(support[a], support[b])
            if ratio >= self.epsilon:
                graph.add_edge(token_id[a], token_id[b])
        return graph, token_list

    def _types(
        self, graph: "nx.Graph", token_list: List[str]
    ) -> List[FrozenSet[str]]:
        types: List[FrozenSet[str]] = []
        for clique in nx.find_cliques(graph):
            if len(clique) < 2:
                continue
            types.append(frozenset(token_list[i] for i in clique))
            if len(types) >= self.max_cliques:
                break
        return types
