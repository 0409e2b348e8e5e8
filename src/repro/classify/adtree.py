"""Alternating Decision Tree model (Freund & Mason, ICML'99).

An ADTree alternates *prediction nodes* (real-valued confidences) and
*splitter nodes* (tests). Classification sums the prediction values along
**every** reachable path — a splitter whose feature is missing is simply
not traversed, which is the graceful missing-value handling the paper
relies on for its schema-diverse data (Section 4.2).

The raw score doubles as a confidence: the paper "disregards the sign
operation and uses the resulting score ... as the basis of a ranked
decision instead of a deterministic classification".

:meth:`ADTreeModel.score_matrix` scores every row of a
:class:`~repro.similarity.features.FeatureMatrix` at once, with the
same additions in the same order as the per-dict :meth:`ADTreeModel.
score`, so each row's float is bit-identical to the dict score; the
dict form stays as its oracle and API edge.

This module is the *model*; learning lives in
:mod:`repro.classify.boosting`.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type, TypeVar, Union

import numpy as np
from numpy.typing import NDArray

from repro.contracts import pure
from repro.similarity.features import (
    CategoricalColumn,
    FeatureMatrix,
    FeatureVector,
    NumericColumn,
)

__all__ = [
    "Condition",
    "NumericCondition",
    "CategoricalCondition",
    "PredictionNode",
    "SplitterNode",
    "ADTreeModel",
]


#: Per-row (outcome, present) masks of a condition over a matrix.
RowOutcomes = Tuple[NDArray[np.bool_], NDArray[np.bool_]]


_C = TypeVar("_C", NumericColumn, CategoricalColumn)


def _column_of(
    matrix: FeatureMatrix, feature: str, kind: Type[_C]
) -> Optional[_C]:
    """The feature's column if it has any present value, else None.

    A column of the other kind with present values is a ``TypeError``:
    conditions test the column kind the learner built them from.
    """
    column = matrix.columns.get(feature)
    if column is None or not column.present.any():
        return None
    if not isinstance(column, kind):
        raise TypeError(
            f"{kind.__name__} expected for feature {feature!r}, "
            f"got {type(column).__name__}"
        )
    return column


class Condition(abc.ABC):
    """A splitter test over one feature.

    ``evaluate`` returns ``True``/``False`` for present values and
    ``None`` when the feature is missing (the splitter is then skipped).
    ``evaluate_matrix`` is the same test over every row of a matrix.
    """

    feature: str

    @abc.abstractmethod
    def evaluate(self, features: FeatureVector) -> Optional[bool]:
        """Outcome of the test, or None if the feature is missing."""

    @abc.abstractmethod
    def evaluate_matrix(self, matrix: FeatureMatrix) -> Optional[RowOutcomes]:
        """``(outcome, present)`` per row; None if the matrix lacks the
        feature. ``outcome`` is meaningful only where ``present``."""

    @abc.abstractmethod
    def describe(self, branch: bool) -> str:
        """Human-readable form of the yes (True) / no (False) branch."""

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Condition":
        kind = payload["kind"]
        if kind == "numeric":
            return NumericCondition(payload["feature"], payload["threshold"])
        if kind == "categorical":
            return CategoricalCondition(payload["feature"], payload["value"])
        raise ValueError(f"unknown condition kind: {kind!r}")


@dataclass(frozen=True)
class NumericCondition(Condition):
    """``feature < threshold`` (yes branch) vs ``feature >= threshold``."""

    feature: str
    threshold: float

    def evaluate(self, features: FeatureVector) -> Optional[bool]:
        value = features.get(self.feature)
        if value is None:
            return None
        return float(value) < self.threshold

    def evaluate_matrix(self, matrix: FeatureMatrix) -> Optional[RowOutcomes]:
        column = _column_of(matrix, self.feature, NumericColumn)
        if column is None:
            return None
        return column.values < self.threshold, column.present

    def describe(self, branch: bool) -> str:
        op = "<" if branch else ">="
        return f"{self.feature} {op} {self.threshold:.3f}"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "numeric", "feature": self.feature,
                "threshold": self.threshold}


@dataclass(frozen=True)
class CategoricalCondition(Condition):
    """``feature = value`` (yes branch) vs ``feature != value``.

    ``value`` is the ``str`` of a feature value, as the learner records
    it, so the test compares ``str(observed)``: a ``bool`` feature
    ``True`` satisfies ``value == "True"``.
    """

    feature: str
    value: str

    def evaluate(self, features: FeatureVector) -> Optional[bool]:
        observed = features.get(self.feature)
        if observed is None:
            return None
        return str(observed) == self.value

    def evaluate_matrix(self, matrix: FeatureMatrix) -> Optional[RowOutcomes]:
        column = _column_of(matrix, self.feature, CategoricalColumn)
        if column is None:
            return None
        return column.codes == column.code(self.value), column.present

    def describe(self, branch: bool) -> str:
        op = "=" if branch else "!="
        return f"{self.feature} {op} {self.value}"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "categorical", "feature": self.feature,
                "value": self.value}


@dataclass
class PredictionNode:
    """A confidence contribution plus any splitters attached below it."""

    value: float
    splitters: List["SplitterNode"] = field(default_factory=list)


@dataclass
class SplitterNode:
    """A test with yes/no prediction children; ``order`` is the boosting
    round that created it (the paper's ``(1)``, ``(2)``, ... labels)."""

    order: int
    condition: Condition
    yes: PredictionNode
    no: PredictionNode


class ADTreeModel:
    """A learned alternating decision tree."""

    def __init__(self, root: PredictionNode) -> None:
        self.root = root

    # -- scoring ----------------------------------------------------------------

    @pure
    def score(self, features: FeatureVector) -> float:
        """Sum of prediction values along all reachable paths.

        Missing features skip their splitter: "the computation considers
        only reachable decision nodes", so accuracy degrades gracefully
        on sparse records.
        """
        return self._score_node(self.root, features)

    def _score_node(self, node: PredictionNode, features: FeatureVector) -> float:
        total = node.value
        for splitter in node.splitters:
            outcome = splitter.condition.evaluate(features)
            if outcome is None:
                continue
            child = splitter.yes if outcome else splitter.no
            total += self._score_node(child, features)
        return total

    @pure
    def score_matrix(self, matrix: FeatureMatrix) -> NDArray[np.float64]:
        """:meth:`score` of every row of ``matrix``, bit for bit.

        Each node adds its reachable children's subtotals in splitter
        order, exactly as :meth:`score` does per dict; rows where a
        splitter's feature is missing keep their running total
        untouched. Overflow gives inf and nan silently, as float
        arithmetic does in :meth:`score`.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._score_node_matrix(self.root, matrix)

    def _score_node_matrix(
        self, node: PredictionNode, matrix: FeatureMatrix
    ) -> NDArray[np.float64]:
        total = np.full(len(matrix), node.value, dtype=np.float64)
        for splitter in node.splitters:
            evaluated = splitter.condition.evaluate_matrix(matrix)
            if evaluated is None:
                continue
            outcome, present = evaluated
            child = np.where(
                outcome,
                self._score_node_matrix(splitter.yes, matrix),
                self._score_node_matrix(splitter.no, matrix),
            )
            total = np.where(present, total + child, total)
        return total

    def classify(self, features: FeatureVector, threshold: float = 0.0) -> bool:
        """Default decision rule: score above ``threshold`` is a match."""
        return self.score(features) > threshold

    # -- introspection ------------------------------------------------------------

    def iter_splitters(self) -> Iterator[SplitterNode]:
        """All splitter nodes, in creation (boosting-round) order."""
        collected: List[SplitterNode] = []

        def walk(node: PredictionNode) -> None:
            for splitter in node.splitters:
                collected.append(splitter)
                walk(splitter.yes)
                walk(splitter.no)

        walk(self.root)
        collected.sort(key=lambda splitter: splitter.order)
        return iter(collected)

    def features_used(self) -> List[str]:
        """Distinct feature names the tree tests, in first-use order.

        The paper reports the learner "choosing only 8-10 features of the
        48 defined".
        """
        seen: List[str] = []
        for splitter in self.iter_splitters():
            name = splitter.condition.feature
            if name not in seen:
                seen.append(name)
        return seen

    def n_splitters(self) -> int:
        return sum(1 for _ in self.iter_splitters())

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        def node_dict(node: PredictionNode) -> Dict[str, Any]:
            return {
                "value": node.value,
                "splitters": [
                    {
                        "order": splitter.order,
                        "condition": splitter.condition.to_dict(),
                        "yes": node_dict(splitter.yes),
                        "no": node_dict(splitter.no),
                    }
                    for splitter in node.splitters
                ],
            }

        return {"root": node_dict(self.root)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ADTreeModel":
        def build(entry: Dict[str, Any]) -> PredictionNode:
            node = PredictionNode(entry["value"])
            for raw in entry.get("splitters", ()):
                node.splitters.append(
                    SplitterNode(
                        order=raw["order"],
                        condition=Condition.from_dict(raw["condition"]),
                        yes=build(raw["yes"]),
                        no=build(raw["no"]),
                    )
                )
            return node

        return cls(build(payload["root"]))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ADTreeModel":
        return cls.from_dict(json.loads(Path(path).read_text()))
