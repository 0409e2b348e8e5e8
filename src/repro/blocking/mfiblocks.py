"""The MFIBlocks blocking algorithm (Algorithm 1 of the paper).

MFIBlocks turns blocking into soft clustering: record item-bags are mined
for Maximal Frequent Itemsets, each MFI's support set becomes a candidate
block, and blocks are filtered by size (``minsup * NG``), by the
compact-set score threshold ``minTh``, and by the sparse-neighborhood
(NG) constraint. The loop starts at ``MaxMinSup`` and decreases
``minsup`` each iteration, mining only records not yet covered by an
admitted candidate pair, until everything is covered or ``minsup`` falls
below 2.

Key properties the paper highlights (Section 4.1):

* no manual blocking-key design — any item combination supported by the
  data can key a block ("lets the data talk");
* soft clusters — the same record may appear in several blocks under
  different keys, which is what uncertain ER needs;
* tunable granularity — looser CS/SN settings broaden entities from a
  person to a family (see :mod:`repro.core.granularity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.blocking.base import (
    Block,
    BlockingAlgorithm,
    BlockingResult,
    Pair,
    pairs_of_block,
)
from repro.blocking.scoring import BlockScorer, SparseNeighborhoodFilter
from repro.contracts import ordered_output, pure
from repro.mining.fpgrowth import maximal_frequent_itemsets
from repro.mining.pruning import prune_frequent_items
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import MIN_DISPATCH_PAIRS, Executor
from repro.parallel.merge import max_merge_into
from repro.parallel.shared import SharedStateHandle, publish_shared_state
from repro.parallel.work import score_pair_chunk
from repro.records.dataset import Dataset
from repro.records.itembag import Item
from repro.resilience.budgets import BudgetMeter, StageBudget
from repro.similarity.interning import InternedCorpus

__all__ = ["MFIBlocksConfig", "MFIBlocks"]


def _pair_count(
    blocks: List[Tuple[FrozenSet[int], FrozenSet[Item], float]]
) -> int:
    """Candidate pairs implied by a list of (records, key, score) blocks."""
    return sum(len(records) * (len(records) - 1) // 2 for records, _, _ in blocks)


@pure
def _records_of(tidset: int, uncovered: List[int]) -> FrozenSet[int]:
    """FindSupport (Algorithm 1, line 7): the records an MFI's tidset holds.

    The miner returns each MFI's support set as a tidset over the mined
    transactions, and transaction *t* is the item bag of ``uncovered[t]``.
    """
    records: List[int] = []
    while tidset:
        lowest = tidset & -tidset
        records.append(uncovered[lowest.bit_length() - 1])
        tidset ^= lowest
    return frozenset(records)


@dataclass
class MFIBlocksConfig:
    """Tuning knobs of Algorithm 1 (Section 6.5's configurable options).

    ``max_minsup``
        Starting (maximal) ``minsup``; the loop then runs with
        ``minsup = max_minsup, max_minsup - 1, ..., 2``. Table 9 fixes 5.
    ``ng``
        Neighborhood Growth: caps block size at ``minsup * ng`` and each
        record's neighborhood at ``ng * (minsup - 1)``. Figures 15-16
        sweep 1.5-5.
    ``scoring``
        Block scoring method: uniform Jaccard (Base), expert-weighted
        Jaccard (Expert Weighting), or Eq.-1 soft Jaccard (ExpertSim).
    ``prune_fraction``
        Fraction of most-frequent items removed before mining (Section
        6.3 uses 0.03%); ``None`` disables pruning.
    ``min_block_size``
        Supports below this are never blocks (2 = candidate pairs exist).
    ``sn_mode``
        Sparse-neighborhood enforcement: ``"skip"`` (default, calibrated
        to the paper's published quality) or ``"threshold"`` (the literal
        Algorithm 1 minTh semantics; see
        :class:`~repro.blocking.scoring.SparseNeighborhoodFilter`).
    ``budget``
        Optional :class:`~repro.resilience.budgets.StageBudget` bounding
        the work: each ``minsup`` level charges one unit, and the FPMax
        recursion charges per node expansion against the same meter. An
        exhausted budget stops the descent and returns the best-so-far
        blocking with ``degraded=True`` (anytime semantics).
    """

    max_minsup: int = 5
    ng: float = 3.0
    scoring: BlockScorer = field(default_factory=BlockScorer)
    prune_fraction: Optional[float] = None
    min_block_size: int = 2
    sn_mode: str = "skip"
    budget: Optional[StageBudget] = None

    def __post_init__(self) -> None:
        if self.max_minsup < 2:
            raise ValueError(f"max_minsup must be >= 2, got {self.max_minsup}")
        if self.ng <= 0:
            raise ValueError(f"NG must be positive, got {self.ng}")
        if self.min_block_size < 2:
            raise ValueError(
                f"min_block_size must be >= 2, got {self.min_block_size}"
            )


class MFIBlocks(BlockingAlgorithm):
    """Algorithm 1: iterative MFI mining with CS/SN block filtering."""

    name = "MFIBlocks"

    def __init__(
        self,
        config: Optional[MFIBlocksConfig] = None,
        tracer: Optional[Tracer] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.config = config or MFIBlocksConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Like the tracer, the executor is execution machinery, not
        # configuration: it never enters config echoes or checkpoint
        # fingerprints, so any worker count can resume any checkpoint.
        self.executor = executor

    @property
    def _parallel(self) -> bool:
        return self.executor is not None and self.executor.parallel

    @ordered_output
    def run(self, dataset: Dataset) -> BlockingResult:
        config = self.config
        tracer = self.tracer
        with tracer.span("mfiblocks.run"):
            item_bags: Dict[int, FrozenSet[Item]] = dict(dataset.item_bags)
            tracer.count("mfiblocks.records", len(item_bags))
            if config.prune_fraction is not None:
                item_bags, _ = prune_frequent_items(
                    item_bags, config.prune_fraction, tracer=tracer
                )

            covered: Set[int] = set()
            sn_filter = SparseNeighborhoodFilter(config.ng, mode=config.sn_mode)
            result = BlockingResult()
            meter = BudgetMeter(config.budget)

            # One interned corpus serves every minsup level: block and
            # pair scoring run through the batch kernels against it
            # (bit-identical to the scalar scorer, see
            # repro/similarity/batch.py). A parallel run publishes it
            # once here — outside the descent loop — so the warm
            # pool stays valid across iterations.
            with tracer.span("mfiblocks.intern"):
                corpus = InternedCorpus(item_bags)
            handle: Optional[SharedStateHandle] = None
            if self._parallel:
                handle = publish_shared_state(
                    scorer=config.scoring, corpus=corpus
                )
            # The run-wide pair -> score table: every kernel is pure per
            # pair and item bags do not change across levels, so each
            # distinct pair is scored once and then serves every block
            # mean and pair score that needs it.
            table: Dict[Pair, float] = {}
            try:
                for minsup in range(config.max_minsup, 1, -1):
                    uncovered = [
                        rid for rid in item_bags if rid not in covered
                    ]
                    if not uncovered:
                        break
                    if meter.exhausted():
                        break
                    meter.charge()
                    with tracer.span("mfiblocks.minsup", minsup=minsup):
                        admitted = self._one_iteration(
                            uncovered, item_bags, corpus, minsup, sn_filter,
                            meter, table, handle,
                        )
                        for records, key, score in admitted:
                            result.blocks.append(Block(records, key, score))
                            covered.update(records)
                        self._score_pairs(admitted, table, result)
                    tracer.count("mfiblocks.blocks_admitted", len(admitted))
                    if meter.degraded:
                        # Mining was cut short: the admitted blocks are
                        # valid but coverage stops here.
                        break
            finally:
                if handle is not None:
                    handle.close()
            if meter.degraded:
                result.degraded = True
                tracer.count("mfiblocks.budget_exhausted", 1)
            tracer.count("mfiblocks.candidate_pairs", len(result.pair_scores))
        return result

    # -- internals -----------------------------------------------------------

    @ordered_output
    def _one_iteration(
        self,
        uncovered: List[int],
        item_bags: Dict[int, FrozenSet[Item]],
        corpus: InternedCorpus,
        minsup: int,
        sn_filter: SparseNeighborhoodFilter,
        meter: BudgetMeter,
        table: Dict[Pair, float],
        handle: Optional[SharedStateHandle],
    ) -> List[Tuple[FrozenSet[int], FrozenSet[Item], float]]:
        """Mine, support, size-filter, score, and SN-filter one minsup level.

        ``table`` is the run's pair -> score table; the level's new
        candidate-block pairs are scored into it before the block means
        are read from it.
        """
        config = self.config
        tracer = self.tracer
        transactions = [item_bags[rid] for rid in uncovered]
        with tracer.span("mfiblocks.mine", minsup=minsup):
            mfis = maximal_frequent_itemsets(
                transactions, minsup, tracer=tracer, budget=meter
            )
        tracer.count("mfiblocks.mfis_mined", len(mfis))
        if not mfis:
            return []

        # Support finding and block scoring used to share one span;
        # they are separated so ``mfiblocks.score`` measures exactly
        # the pair-table fill plus the block means read from it (the
        # batch-throughput lane of benchmarks/bench_parallel.py is
        # mfiblocks.pairs_scored / this span's seconds).
        with tracer.span("mfiblocks.support", minsup=minsup):
            max_size = int(minsup * config.ng)
            candidates: List[Tuple[FrozenSet[int], FrozenSet[Item]]] = []
            seen_tidsets: Set[int] = set()
            rejected_size = 0
            for mfi in mfis:
                if not config.min_block_size <= mfi.support <= max_size:
                    rejected_size += 1
                    continue
                if mfi.tidset in seen_tidsets:
                    continue  # distinct MFIs can share a support set
                seen_tidsets.add(mfi.tidset)
                candidates.append((_records_of(mfi.tidset, uncovered), mfi.items))
        with tracer.span("mfiblocks.score", minsup=minsup):
            blocks = [sorted(support) for support, _key in candidates]
            self._fill_table(blocks, corpus, table, handle)
            scores = config.scoring.score_blocks_batch(blocks, corpus, table)
            scored = [
                (support, key, score)
                for (support, key), score in zip(candidates, scores)
            ]
        tracer.count("mfiblocks.blocks_rejected_size", rejected_size)
        with tracer.span("mfiblocks.sn_filter", minsup=minsup):
            admitted = sn_filter.filter_blocks(scored, minsup)
        tracer.count(
            "mfiblocks.blocks_rejected_cs_sn", len(scored) - len(admitted)
        )
        tracer.count("mfiblocks.pairs_pre_cs_sn", _pair_count(scored))
        tracer.count("mfiblocks.pairs_post_cs_sn", _pair_count(admitted))
        return admitted

    @staticmethod
    def _unique_pairs(
        admitted: List[Tuple[FrozenSet[int], FrozenSet[Item], float]],
    ) -> List[Tuple[int, int]]:
        """The sorted, de-duplicated candidate pairs of admitted blocks."""
        return sorted(
            {
                pair
                for records, _key, _score in admitted
                for pair in pairs_of_block(records)
            }
        )

    def _fill_table(
        self,
        blocks: List[List[int]],
        corpus: InternedCorpus,
        table: Dict[Pair, float],
        handle: Optional[SharedStateHandle],
    ) -> None:
        """Score the blocks' member pairs that ``table`` lacks, once each.

        The new pairs are scored by one batch kernel call, bit-identical
        per pair to ``pair_similarity``. A parallel run
        (``handle`` published) dispatches chunks of ``(handle.ref,
        pairs)`` to :func:`score_pair_chunk` unless the list is below
        :data:`MIN_DISPATCH_PAIRS`, in which case the same kernels run
        inline. Each pair's score is a pure function of the pair, so
        the table — and the ranked output downstream — is byte-identical
        across routes, worker counts and chunk orders
        (docs/PARALLELISM.md).
        """
        # First-seen order over the (deterministically ordered) blocks:
        # a pair's score does not depend on its position in the call.
        pairs = list(
            dict.fromkeys(
                pair
                for members in blocks
                for pair in combinations(members, 2)
                if pair not in table
            )
        )
        occurrences = sum(len(m) * (len(m) - 1) // 2 for m in blocks)
        self.tracer.count("mfiblocks.pairs_scored", len(pairs))
        self.tracer.count("mfiblocks.pairs_reused", occurrences - len(pairs))
        if not pairs:
            return
        executor = self.executor
        if (
            handle is None
            or executor is None
            or len(pairs) < MIN_DISPATCH_PAIRS
        ):
            scores = self.config.scoring.pair_similarity_batch(corpus, pairs)
            table.update(zip(pairs, scores))
            return
        chunk_results = executor.map_chunks(
            score_pair_chunk,
            [(handle.ref, chunk) for chunk in executor.plan_chunks(pairs)],
            tracer=self.tracer,
            label="mfiblocks.score_pairs",
            shared=handle,
        )
        for chunk_result in chunk_results:
            # The chunks' keys are disjoint and new: the max-merge is a
            # plain insert, in whatever order the chunks arrive.
            max_merge_into(table, chunk_result)

    def _score_pairs(
        self,
        admitted: List[Tuple[FrozenSet[int], FrozenSet[Item], float]],
        table: Dict[Pair, float],
        result: BlockingResult,
    ) -> None:
        """Record pair-level similarity for ranked resolution.

        Each admitted block contributes its member pairs; the pair
        score is the *record-pair* similarity under the configured
        scorer (not the block mean), maximized across blocks — the
        similarity value the uncertain-ER output associates with each
        match. Every admitted pair is a member pair of a scored block,
        so its score is read from ``table``; no kernel runs here.
        """
        pairs = self._unique_pairs(admitted)
        self.tracer.count("mfiblocks.pairs_reused", len(pairs))
        max_merge_into(result.pair_scores, [(pair, table[pair]) for pair in pairs])
