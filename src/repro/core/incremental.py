"""Incremental resolution: absorbing newly arriving reports.

Yad Vashem keeps receiving Pages of Testimony (Section 2 counts 30,000 a
year through the 1990s), so a deployed system cannot re-block 6.5M
records per arrival. :class:`IncrementalResolver` runs the full pipeline
once, then handles new reports with an index-driven candidate search
that mirrors MFIBlocks' semantics without re-mining:

* candidate records are those sharing at least ``min_shared_items``
  items with the new report (the minsup=2 analogue of an MFI key);
* the neighborhood is capped at ``ng * max_minsup`` like the SN
  constraint;
* pair similarity comes from the same block scorer, and the trained
  ADTree (when present) re-ranks and filters exactly as in the batch
  pipeline, scoring every surviving candidate of a batch in one call.

The resulting evidence is merged into the live resolution, so certainty
queries immediately see the new record.

Streaming ingestion goes through :meth:`IncrementalResolver.add_records`
— the batched, durable write path (``docs/RESILIENCE.md``):

* **atomic-at-the-batch**: validation (duplicate ids, per the
  :class:`~repro.resilience.quarantine.QuarantinePolicy`) and scoring
  finish before the first store mutation, so a raise anywhere leaves
  the resolver untouched and the batch retryable;
* **dirty-block scoring**: only the inverted-index postings for the
  batch's own item signatures are consulted — candidate retrieval cost
  scales with the items the batch dirties, never with corpus size (the
  append-only, signature-keyed ingest shape of "Scalable ER Using
  Probabilistic Signatures", PAPERS.md);
* **durability** (optional): with a
  :class:`~repro.resilience.wal.WriteAheadLog` attached, every batch is
  logged begin → apply → commit (one fsync, on the commit);
  :meth:`IncrementalResolver.recover` replays the committed prefix to a
  byte-identical resolution and reports what a crash dropped.

Batching is semantics-free by construction: records inside a batch are
scored in input order against the store *plus* the earlier records of
the same batch (a staged overlay), so ``add_records(batch)`` produces
exactly the state of the equivalent sequence of :meth:`add_record`
calls — the property the chaos scenarios pin, and the one that lets
recovery replay the whole committed log as a single batch. Each record's
item bag is derived once, when it is staged; the classifier's feature
extraction reads the staged and stored bags instead of re-deriving them.
"""

from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.classify.training import PairClassifier
from repro.core.config import PipelineConfig
from repro.core.pipeline import UncertainERPipeline
from repro.core.resolution import PairEvidence, ResolutionResult
from repro.records.dataset import Dataset, record_from_dict, record_to_dict
from repro.records.itembag import Item, record_to_items
from repro.records.schema import VictimRecord
from repro.resilience.checkpoints import chain_fingerprint
from repro.resilience.quarantine import Quarantine, QuarantinePolicy
from repro.resilience.wal import WriteAheadLog
from repro.similarity.features import (
    extract_features,  # noqa: F401 - the e2e probes patch it by this name
)

__all__ = ["BatchResult", "IncrementalResolver", "RecoveryReport"]

Pair = Tuple[int, int]


@dataclass(frozen=True)
class BatchResult:
    """What one :meth:`IncrementalResolver.add_records` call did."""

    #: WAL batch id (also assigned without a WAL, for symmetry).
    batch_id: int
    #: ``book_id`` of every record committed, in input order.
    added: Tuple[int, ...]
    #: Rows shunted to quarantine instead of committed.
    quarantined: int
    #: Evidence rows the batch produced (before max-merge dedup).
    produced: Tuple[PairEvidence, ...]
    #: Distinct item signatures the batch dirtied (its invalidation set).
    dirty_items: int
    #: Candidate records pulled from the dirty postings and scored.
    candidates_scored: int


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`IncrementalResolver.recover` replayed and dropped."""

    batches_replayed: int
    records_replayed: int
    #: Batch ids whose ``begin`` was logged but whose ``commit`` never
    #: landed — the in-flight work a crash legitimately loses.
    dropped_batches: Tuple[int, ...]
    dropped_records: int
    #: Bytes physically truncated from the log (torn tail + uncommitted).
    torn_tail_bytes: int


class IncrementalResolver:
    """Maintains a live resolution as new reports arrive."""

    def __init__(
        self,
        dataset: Dataset,
        config: Optional[PipelineConfig] = None,
        classifier: Optional[PairClassifier] = None,
        min_shared_items: int = 2,
        min_pair_similarity: float = 0.12,
        wal: Optional[WriteAheadLog] = None,
        _allow_wal_history: bool = False,
    ) -> None:
        if min_shared_items < 1:
            raise ValueError(
                f"min_shared_items must be >= 1, got {min_shared_items}"
            )
        if not 0.0 <= min_pair_similarity <= 1.0:
            raise ValueError(
                f"min_pair_similarity must be in [0, 1], got {min_pair_similarity}"
            )
        self.config = config or PipelineConfig()
        self.classifier = classifier
        self.min_shared_items = min_shared_items
        #: Pair-similarity floor standing in for the block-score (CS)
        #: pruning a full MFIBlocks run would apply.
        self.min_pair_similarity = min_pair_similarity
        self._scorer = self.config.scorer()

        self._records: Dict[int, VictimRecord] = {
            record.book_id: record for record in dataset
        }
        self._item_bags: Dict[int, FrozenSet[Item]] = dict(dataset.item_bags)
        self._index: Dict[Item, Set[int]] = {}
        for rid, items in self._item_bags.items():
            for item in items:
                self._index.setdefault(item, set()).add(rid)

        pipeline = UncertainERPipeline(self.config)
        if self.config.classify and classifier is None:
            raise ValueError(
                "classify=True requires a pre-trained classifier for "
                "incremental operation"
            )
        initial = pipeline.run(dataset, classifier=classifier)
        self._evidence: Dict[Pair, PairEvidence] = {
            evidence.pair: evidence for evidence in initial
        }

        self.wal = wal
        self._replayed_batches = 0
        if wal is not None:
            wal.ensure_base(self._base_fingerprint(dataset))
            if wal.committed_batches() and not _allow_wal_history:
                raise ValueError(
                    "WAL already holds committed batches; use "
                    "IncrementalResolver.recover() to replay them"
                )
            self._next_batch_id = wal.next_batch_id
        else:
            self._next_batch_id = 0

    # -- public API ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, book_id: int) -> bool:
        return book_id in self._records

    def resolution(self) -> ResolutionResult:
        """The live resolution over all records seen so far."""
        return ResolutionResult(
            self._evidence.values(), n_records=len(self._records)
        )

    def add_record(self, record: VictimRecord) -> List[PairEvidence]:
        """Absorb one new report; returns the evidence it produced.

        Failed adds are atomic. The method is structured
        validate-then-commit: every raise (duplicate ``book_id``,
        unfitted classifier, scoring failure) happens before the first
        store mutation, so after an exception the resolver is exactly
        as it was — record count, item index, and live evidence all
        unchanged — and the same record can be retried once the cause
        is fixed. A single add is just a batch of one, so a WAL-backed
        resolver logs it durably like any other batch.
        """
        result = self.add_records([record])
        return list(result.produced)

    def add_records(
        self,
        records: Sequence[VictimRecord],
        policy: QuarantinePolicy = QuarantinePolicy.FAIL_FAST,
        quarantine: Optional[Quarantine] = None,
        source: str = "<batch>",
    ) -> BatchResult:
        """Absorb a batch of reports atomically; the streaming write path.

        Validation happens first: a record whose ``book_id`` already
        exists (in the store or earlier in the batch) is rejected. Under
        ``FAIL_FAST`` that raises before any mutation; under
        ``QUARANTINE`` (and ``REPAIR``, which degrades to it — parsed
        records have no per-cell repair story, mirroring
        :meth:`Dataset.from_json`) the row lands in ``quarantine`` and
        the rest of the batch proceeds.

        With a WAL attached, the surviving rows are logged (``begin``)
        before the in-memory apply and marked durable (``commit``)
        after it; a crash between the two drops the whole batch on
        recovery — atomic-at-the-batch, never a torn half-batch.
        """
        if (
            self.config.classify
            and self.classifier is not None
            and self.classifier.model is None
        ):
            raise RuntimeError("classifier is not fitted")
        quarantine = quarantine if quarantine is not None else Quarantine()
        accepted: List[VictimRecord] = []
        staged_ids: Set[int] = set()
        quarantined = 0
        for ordinal, record in enumerate(records, start=1):
            if record.book_id in self._records or record.book_id in staged_ids:
                if policy is QuarantinePolicy.FAIL_FAST:
                    raise ValueError(f"duplicate book_id: {record.book_id}")
                quarantine.record(
                    source,
                    ordinal,
                    "book_id",
                    f"duplicate book_id: {record.book_id}",
                    record_to_dict(record),
                )
                quarantined += 1
                continue
            staged_ids.add(record.book_id)
            accepted.append(record)

        if not accepted:
            return BatchResult(
                batch_id=self._next_batch_id,
                added=(),
                quarantined=quarantined,
                produced=(),
                dirty_items=0,
                candidates_scored=0,
            )

        batch_id = self._next_batch_id
        if self.wal is not None:
            self.wal.append_begin(
                batch_id, [record_to_dict(record) for record in accepted]
            )
        result = self._apply_batch(batch_id, accepted, quarantined)
        if self.wal is not None:
            self.wal.append_commit(batch_id)
        self._next_batch_id = batch_id + 1
        return result

    @classmethod
    def recover(
        cls,
        wal_dir: Union[str, Path],
        dataset: Dataset,
        config: Optional[PipelineConfig] = None,
        classifier: Optional[PairClassifier] = None,
        min_shared_items: int = 2,
        min_pair_similarity: float = 0.12,
        fsync: bool = True,
    ) -> Tuple["IncrementalResolver", RecoveryReport]:
        """Rebuild a WAL-backed resolver to its last committed state.

        ``dataset`` must be the same base snapshot the log was bound to
        (the meta fingerprint chains its content hash with the config
        echo — PR 4's checkpoint identity rule); a mismatch raises
        :class:`~repro.resilience.wal.WalError` instead of replaying
        into the wrong corpus. Opening the log truncates torn tails and
        uncommitted begins. The surviving committed batches are then
        replayed as one batch of all their records, in log order,
        through the scoring path that produced them: one
        :meth:`_apply_batch`, so one feature extraction and one
        classifier call cover the whole log. Batching is
        semantics-free, so the recovered ranked output is
        byte-identical to the uninterrupted run's. The report says what
        was dropped — a recovery that loses work must never look like
        one that didn't.
        """
        wal = WriteAheadLog(wal_dir, fsync=fsync)
        resolver = cls(
            dataset,
            config,
            classifier,
            min_shared_items=min_shared_items,
            min_pair_similarity=min_pair_similarity,
            wal=wal,
            _allow_wal_history=True,
        )
        committed = wal.committed_batches()
        records = [
            record_from_dict(dict(entry))
            for batch in committed
            for entry in batch.records
        ]
        if records:
            resolver._apply_batch(committed[-1].batch_id, records)
        resolver._next_batch_id = wal.next_batch_id
        resolver._replayed_batches = len(committed)
        report = RecoveryReport(
            batches_replayed=resolver._replayed_batches,
            records_replayed=len(records),
            dropped_batches=tuple(wal.recovery.uncommitted_batches),
            dropped_records=wal.recovery.uncommitted_records,
            torn_tail_bytes=wal.recovery.torn_tail_bytes,
        )
        return resolver, report

    def wal_counters(self) -> Dict[str, int]:
        """The run report's ``resilience.wal`` block (``{}`` without a WAL)."""
        if self.wal is None:
            return {}
        counters = self.wal.counters()
        counters["replayed"] = self._replayed_batches
        return counters

    # -- batch machinery ---------------------------------------------------------

    def _apply_batch(
        self,
        batch_id: int,
        accepted: Sequence[VictimRecord],
        quarantined: int = 0,
    ) -> BatchResult:
        """Score then commit ``accepted`` (already validated) as one unit.

        Scoring is read-only against the store; records see earlier
        batch members through a staged overlay, which keeps the result
        identical to sequential single adds. The classifier then scores
        every surviving candidate of the batch in one call. Only after
        that does the commit loop mutate the resolver, so a scoring
        failure anywhere aborts the batch with the store untouched —
        the in-memory half of atomic-at-the-batch. Recovery replays the
        whole committed log through it as one batch, hence no WAL
        writes here.
        """
        staged_records: Dict[int, VictimRecord] = {}
        staged_bags: Dict[int, FrozenSet[Item]] = {}
        staged_index: Dict[Item, Set[int]] = {}
        scored: List[Tuple[Pair, PairEvidence]] = []
        dirty: Set[Item] = set()
        candidates_scored = 0
        for record in accepted:
            items = record_to_items(record)
            dirty |= items
            candidates = self._candidates(items, staged_index)
            candidates_scored += len(candidates)
            scored.extend(
                self._score_candidates(
                    record, items, candidates, staged_records, staged_bags
                )
            )
            staged_records[record.book_id] = record
            staged_bags[record.book_id] = items
            for item in items:
                staged_index.setdefault(item, set()).add(record.book_id)
        produced_all = self._classify(
            scored,
            ChainMap(staged_records, self._records),
            ChainMap(staged_bags, self._item_bags),
        )

        for record in accepted:
            rid = record.book_id
            self._records[rid] = record
            self._item_bags[rid] = staged_bags[rid]
            for item in staged_bags[rid]:
                self._index.setdefault(item, set()).add(rid)
        for evidence in produced_all:
            current = self._evidence.get(evidence.pair)
            if current is None or evidence.ranking_key > current.ranking_key:
                self._evidence[evidence.pair] = evidence
        return BatchResult(
            batch_id=batch_id,
            added=tuple(record.book_id for record in accepted),
            quarantined=quarantined,
            produced=tuple(produced_all),
            dirty_items=len(dirty),
            candidates_scored=candidates_scored,
        )

    def _base_fingerprint(self, dataset: Dataset) -> str:
        """Identity of the base snapshot a WAL binds to (PR 4 chain)."""
        return chain_fingerprint(
            None,
            "wal-base",
            {
                "corpus": dataset.content_fingerprint(),
                "config": self.config.to_echo(),
                "min_shared_items": self.min_shared_items,
                "min_pair_similarity": self.min_pair_similarity,
            },
        )

    def _score_candidates(
        self,
        record: VictimRecord,
        items: FrozenSet[Item],
        candidates: Iterable[int],
        staged_records: Optional[Mapping[int, VictimRecord]] = None,
        staged_bags: Optional[Mapping[int, FrozenSet[Item]]] = None,
    ) -> List[Tuple[Pair, PairEvidence]]:
        """Evidence the new record produces against store + staged overlay.

        Each row that clears the similarity floor comes with its
        ``(candidate, new record)`` id pair, the order the classifier
        reads the two records in. Read-only with respect to the resolver
        state: the atomicity of :meth:`add_record` / :meth:`add_records`
        depends on it.
        """
        produced: List[Tuple[Pair, PairEvidence]] = []
        for rid in candidates:
            other = self._records.get(rid)
            if other is None and staged_records is not None:
                other = staged_records[rid]
            assert other is not None  # candidates come from the indexes
            other_bag = self._item_bags.get(rid)
            if other_bag is None and staged_bags is not None:
                other_bag = staged_bags[rid]
            assert other_bag is not None
            if (
                self.config.same_source_discard
                and other.source.key == record.source.key
            ):
                continue
            pair = (min(rid, record.book_id), max(rid, record.book_id))
            similarity = self._scorer.pair_similarity(items, other_bag)
            if similarity < self.min_pair_similarity:
                continue
            evidence = PairEvidence(
                pair=pair,
                similarity=similarity,
                same_source=(other.source.key == record.source.key),
            )
            produced.append(((rid, record.book_id), evidence))
        return produced

    def _classify(
        self,
        scored: Sequence[Tuple[Pair, PairEvidence]],
        records: Mapping[int, VictimRecord],
        item_bags: Mapping[int, FrozenSet[Item]],
    ) -> List[PairEvidence]:
        """Attach ADTree confidences and drop rows at or under the threshold.

        Without a classifier the rows pass through unchanged. Otherwise
        one batch call scores them all, in order, with ``records`` and
        ``item_bags`` resolving both the store and the staged batch, so
        no record's item bag is derived a second time.
        """
        if self.classifier is None or not self.config.classify:
            return [evidence for _pair, evidence in scored]
        confidences = self.classifier.confidences(
            [pair for pair, _evidence in scored], records, item_bags
        )
        threshold = self.config.classifier_threshold
        return [
            replace(evidence, confidence=confidence)
            for (_pair, evidence), confidence in zip(scored, confidences)
            if confidence > threshold
        ]

    # -- internals ---------------------------------------------------------------

    def _candidates(
        self,
        items: FrozenSet[Item],
        staged_index: Optional[Mapping[Item, Set[int]]] = None,
    ) -> List[int]:
        """Records sharing enough items, capped like the SN constraint.

        Only the postings for ``items`` — the blocks this record
        dirties — are read; the rest of the index is never touched.
        """
        shared: Dict[int, int] = {}
        for item in items:
            for rid in self._index.get(item, ()):
                shared[rid] = shared.get(rid, 0) + 1
            if staged_index is not None:
                for rid in staged_index.get(item, ()):
                    shared[rid] = shared.get(rid, 0) + 1
        eligible = [
            (count, rid)
            for rid, count in shared.items()
            if count >= self.min_shared_items
        ]
        eligible.sort(key=lambda entry: (-entry[0], entry[1]))
        cap = max(1, math.floor(self.config.ng * self.config.max_minsup))
        return [rid for _count, rid in eligible[:cap]]
