"""Ranked resolution: the uncertain-ER output model (Section 3.2).

"The output of the uncertain ER process is a ranked list of results,
associating a similarity value for each match, rather than a binary
match/non-match decision." Entities are disambiguated only at query
time: a Web user hunting for relatives lowers the certainty threshold to
see more candidates; an app reporting victim counts raises it for a
single deterministic answer.

:class:`ResolutionResult` holds the evidence per candidate pair —
blocking similarity, optional ADTree confidence, same-source flag — and
answers certainty-threshold queries, producing crisp pair sets or entity
clusters (connected components) on demand.
"""

from __future__ import annotations

import csv
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.evaluation.goldstandard import GoldStandard
from repro.evaluation.metrics import PairQuality
from repro.obs.report import RunReport

__all__ = ["PairEvidence", "ResolutionResult", "connected_components"]

Pair = Tuple[int, int]

#: ``slots=True`` where the interpreter has it (3.10+): a resolution
#: holds one evidence object per candidate pair, and a slotted instance
#: carries no per-instance ``__dict__``.
_SLOTTED: Dict[str, bool] = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTTED)
class PairEvidence:
    """Everything the pipeline learned about one candidate pair."""

    pair: Pair
    similarity: float
    confidence: Optional[float] = None
    same_source: bool = False

    @property
    def ranking_key(self) -> float:
        """Confidence when a classifier ran, blocking similarity otherwise."""
        return self.confidence if self.confidence is not None else self.similarity


def connected_components(
    pairs: Iterable[Pair], seeds: Optional[Iterable[int]] = None
) -> List[FrozenSet[int]]:
    """Group record ids into clusters via union-find over match pairs.

    ``seeds`` optionally adds singleton records so unmatched records
    still appear as single-record entities.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        for node in (a, b):
            parent.setdefault(node, node)
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)

    for a, b in pairs:
        union(a, b)
    if seeds is not None:
        for rid in seeds:
            parent.setdefault(rid, rid)

    groups: Dict[int, Set[int]] = {}
    for node in parent:
        groups.setdefault(find(node), set()).add(node)
    return sorted(
        (frozenset(group) for group in groups.values()),
        key=lambda group: (min(group), len(group)),
    )


class ResolutionResult:
    """The ranked, queryable outcome of an uncertain-ER run.

    The evidence is held as columns in first-seen pair order — pair
    ends, similarity, confidence, same-source flag — plus the rows in
    pair order for lookups, and a :class:`PairEvidence` is built when
    one is read. A row costs five list slots and one index entry (48
    bytes), where a held ``PairEvidence``, its pair tuple and a dict
    slot cost about 150: callers keep many resolutions alive at once
    (every repetition of a benchmark run, every batch of an ingest).
    """

    def __init__(
        self,
        evidence: Iterable[PairEvidence],
        n_records: int = 0,
        report: Optional[RunReport] = None,
        degraded: bool = False,
    ) -> None:
        # A repeated pair keeps its first position and its last value.
        latest: Dict[Pair, PairEvidence] = {}
        for entry in evidence:
            a, b = entry.pair
            if a >= b:
                raise ValueError(f"pair not canonicalized: {entry.pair}")
            latest[entry.pair] = entry
        entries = list(latest.values())
        self._a: List[int] = [entry.pair[0] for entry in entries]
        self._b: List[int] = [entry.pair[1] for entry in entries]
        self._similarity: List[float] = [entry.similarity for entry in entries]
        self._confidence: List[Optional[float]] = [
            entry.confidence for entry in entries
        ]
        self._same_source: List[bool] = [entry.same_source for entry in entries]
        pairs = list(latest)
        self._by_pair = array(
            "q", sorted(range(len(pairs)), key=lambda row: pairs[row])
        )
        self.n_records = n_records
        #: The instrumentation account of the run that produced this
        #: resolution (None with the default no-op tracer). Deliberately
        #: not serialized by :meth:`to_json` — resolution artifacts stay
        #: byte-identical with tracing on or off.
        self.report = report
        #: True when an exhausted stage budget cut the run short: the
        #: ranking is valid but best-so-far, not complete. Serialized —
        #: a degraded artifact must never pass for a full one.
        self.degraded = degraded

    def _evidence_at(self, row: int) -> PairEvidence:
        return PairEvidence(
            (self._a[row], self._b[row]),
            self._similarity[row],
            self._confidence[row],
            self._same_source[row],
        )

    def _row_of(self, pair: Pair) -> int:
        """The row holding ``pair`` (binary search), or -1."""
        by_pair, col_a, col_b = self._by_pair, self._a, self._b
        low, high = 0, len(by_pair)
        while low < high:
            middle = (low + high) // 2
            row = by_pair[middle]
            if (col_a[row], col_b[row]) < pair:
                low = middle + 1
            else:
                high = middle
        if low < len(by_pair):
            row = by_pair[low]
            if (col_a[row], col_b[row]) == pair:
                return row
        return -1

    # -- container ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._a)

    def __contains__(self, pair: Pair) -> bool:
        return self._row_of(pair) >= 0

    def __getitem__(self, pair: Pair) -> PairEvidence:
        row = self._row_of(pair)
        if row < 0:
            raise KeyError(pair)
        return self._evidence_at(row)

    def __iter__(self) -> Iterator[PairEvidence]:
        return map(self._evidence_at, range(len(self._a)))

    @property
    def pairs(self) -> FrozenSet[Pair]:
        return frozenset(zip(self._a, self._b))

    # -- ranked / certainty queries --------------------------------------------------

    def _ranked_rows(self) -> Tuple[List[int], List[float]]:
        """Rows by descending ranking key, then pair; and each row's key."""
        keys = [
            similarity if confidence is None else confidence
            for similarity, confidence in zip(self._similarity, self._confidence)
        ]
        # A stable sort of the pair-ordered rows leaves equal keys in pair order.
        rows = sorted(self._by_pair, key=lambda row: -keys[row])
        return rows, keys

    def ranked(self) -> List[PairEvidence]:
        """All evidence sorted by descending ranking key."""
        rows, _keys = self._ranked_rows()
        return list(map(self._evidence_at, rows))

    def top(self, k: int) -> List[PairEvidence]:
        """The ``k`` highest-ranked pairs."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        rows, _keys = self._ranked_rows()
        return list(map(self._evidence_at, rows[:k]))

    def resolve(self, certainty: float = 0.0) -> List[Pair]:
        """Certainty-threshold query: pairs ranking strictly above it.

        This is the tunable Web-query knob of Section 4.2 — lowering
        ``certainty`` returns a larger, less certain response.
        """
        rows, keys = self._ranked_rows()
        col_a, col_b = self._a, self._b
        return [(col_a[row], col_b[row]) for row in rows if keys[row] > certainty]

    def entities(
        self, certainty: float = 0.0, include_singletons: bool = False
    ) -> List[FrozenSet[int]]:
        """Entity clusters at a certainty level (connected components).

        With ``include_singletons`` every known record appears, matching
        the model's requirement that clusters cover all of T.
        """
        seeds: Optional[Set[int]] = None
        if include_singletons:
            seeds = set(self._a)
            seeds.update(self._b)
        return connected_components(self.resolve(certainty), seeds=seeds)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self, gold: GoldStandard, certainty: float = 0.0
    ) -> PairQuality:
        """Pair quality of the crisp resolution at a certainty level."""
        return gold.evaluate(self.resolve(certainty))

    def sweep(
        self, gold: GoldStandard, thresholds: Iterable[float]
    ) -> List[Tuple[float, PairQuality]]:
        """Quality across certainty levels — the accuracy/size tradeoff."""
        return [
            (threshold, self.evaluate(gold, threshold))
            for threshold in thresholds
        ]

    # -- persistence ------------------------------------------------------------

    def to_csv(self, path: Union[str, Path], certainty: float = 0.0) -> int:
        """Write the ranked pairs above ``certainty`` as CSV; returns rows.

        This is *the* ranked artifact of the system — the format the
        CLI emits, the determinism suite compares byte-for-byte, and
        the chaos harness diffs after a resume.
        """
        written = 0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["book_id_a", "book_id_b", "similarity", "confidence"]
            )
            rows, keys = self._ranked_rows()
            for row in rows:
                if keys[row] <= certainty:
                    continue
                confidence = self._confidence[row]
                writer.writerow([
                    self._a[row], self._b[row],
                    f"{self._similarity[row]:.4f}",
                    "" if confidence is None else f"{confidence:.4f}",
                ])
                written += 1
        return written

    def to_json(self, path: Union[str, Path]) -> None:
        """Persist the resolution (the probabilistic DB of Figure 4)."""
        payload = {
            "n_records": self.n_records,
            "degraded": self.degraded,
            "evidence": [
                {
                    "pair": list(evidence.pair),
                    "similarity": evidence.similarity,
                    "confidence": evidence.confidence,
                    "same_source": evidence.same_source,
                }
                for evidence in self.ranked()
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=1))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ResolutionResult":
        """Load a resolution previously written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        evidence = [
            PairEvidence(
                pair=tuple(entry["pair"]),
                similarity=entry["similarity"],
                confidence=entry.get("confidence"),
                same_source=entry.get("same_source", False),
            )
            for entry in payload["evidence"]
        ]
        return cls(
            evidence,
            n_records=payload.get("n_records", 0),
            degraded=payload.get("degraded", False),
        )
