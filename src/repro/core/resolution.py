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
    """The ranked, queryable outcome of an uncertain-ER run."""

    def __init__(
        self,
        evidence: Iterable[PairEvidence],
        n_records: int = 0,
        report: Optional[RunReport] = None,
        degraded: bool = False,
    ) -> None:
        self._evidence: Dict[Pair, PairEvidence] = {}
        for entry in evidence:
            a, b = entry.pair
            if a >= b:
                raise ValueError(f"pair not canonicalized: {entry.pair}")
            self._evidence[entry.pair] = entry
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

    # -- container ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._evidence)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._evidence

    def __getitem__(self, pair: Pair) -> PairEvidence:
        return self._evidence[pair]

    def __iter__(self) -> Iterator[PairEvidence]:
        return iter(self._evidence.values())

    @property
    def pairs(self) -> FrozenSet[Pair]:
        return frozenset(self._evidence)

    # -- ranked / certainty queries --------------------------------------------------

    def ranked(self) -> List[PairEvidence]:
        """All evidence sorted by descending ranking key."""
        return sorted(
            self._evidence.values(), key=lambda e: (-e.ranking_key, e.pair)
        )

    def top(self, k: int) -> List[PairEvidence]:
        """The ``k`` highest-ranked pairs."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self.ranked()[:k]

    def resolve(self, certainty: float = 0.0) -> List[Pair]:
        """Certainty-threshold query: pairs ranking strictly above it.

        This is the tunable Web-query knob of Section 4.2 — lowering
        ``certainty`` returns a larger, less certain response.
        """
        return [
            entry.pair for entry in self.ranked() if entry.ranking_key > certainty
        ]

    def entities(
        self, certainty: float = 0.0, include_singletons: bool = False
    ) -> List[FrozenSet[int]]:
        """Entity clusters at a certainty level (connected components).

        With ``include_singletons`` every known record appears, matching
        the model's requirement that clusters cover all of T.
        """
        seeds: Optional[Set[int]] = None
        if include_singletons:
            seeds = set()
            for a, b in self._evidence:
                seeds.add(a)
                seeds.add(b)
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
            for evidence in self.ranked():
                if evidence.ranking_key <= certainty:
                    continue
                writer.writerow([
                    evidence.pair[0], evidence.pair[1],
                    f"{evidence.similarity:.4f}",
                    "" if evidence.confidence is None
                    else f"{evidence.confidence:.4f}",
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
