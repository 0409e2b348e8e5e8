"""ADTree learning via boosting (Freund & Mason's Z-criterion).

Each boosting round adds one splitter node: the (precondition, condition)
pair minimizing

    Z = 2 * ( sqrt(W+(c1 & c2) * W-(c1 & c2))
            + sqrt(W+(c1 & !c2) * W-(c1 & !c2)) )
        + W(!c1) + W(c1 & missing)

where ``c1`` ranges over existing prediction-node paths, ``c2`` over base
conditions (numeric thresholds and categorical equality tests), and
weights are the boosting distribution. The two new prediction values are
smoothed log-odds ``0.5 * ln((W+ + 1) / (W- + 1))`` — the same smoothing
Weka's ADTree uses, so prediction values land in the same range as the
paper's Tables 7-8. Instances with the test feature missing stay outside
both branches (they keep skipping the splitter at prediction time too),
which is how the algorithm tolerates the dataset's sparse patterns.

The learner reads a :class:`~repro.similarity.features.FeatureMatrix`
— the batch extractor's output — directly: numeric columns give the
thresholds and their ``value < threshold`` masks, categorical columns
give one ``code == k`` mask per observed level. A sequence of dict
vectors is converted once with ``FeatureMatrix.from_vectors``, so both
inputs fit the same tree.

The split sums are exact: each round quantizes the boosting weights to
a power-of-two fixed-point grid scaled from their ``math.fsum`` total, so
every W+ and W- is a sum of integers below 2**53, which float64 adds
exactly whatever the BLAS kernel, thread count or row order. A round
stacks its preconditions as ``2P`` weight columns and takes every sum
from one GEMM pair: the condition matrix (built once per fit) gives
W(c1 & c2), a per-feature presence matrix W(c1 & present), and
W(c1 & !c2) is their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.classify.adtree import (
    ADTreeModel,
    CategoricalCondition,
    Condition,
    NumericCondition,
    PredictionNode,
    SplitterNode,
)
from repro.contracts import deterministic
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.similarity.features import (
    CategoricalColumn,
    FeatureMatrix,
    FeatureVector,
)

__all__ = ["ADTreeLearner"]


@dataclass
class _CandidateSet:
    """Precomputed base conditions with their evaluation matrices."""

    conditions: List[Condition]
    satisfied: NDArray[np.float64]  # (n_cond, n): test passes
    present: NDArray[np.float64]  # (n_feat, n): feature present
    feature_of: NDArray[np.intp]  # (n_cond,): row of present per condition


class ADTreeLearner:
    """Boosts an alternating decision tree from tagged feature vectors."""

    def __init__(
        self,
        n_rounds: int = 10,
        max_numeric_thresholds: int = 24,
        smoothing: float = 1.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        if max_numeric_thresholds < 1:
            raise ValueError("max_numeric_thresholds must be >= 1")
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        self.n_rounds = n_rounds
        self.max_numeric_thresholds = max_numeric_thresholds
        self.smoothing = smoothing
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- public API ---------------------------------------------------------------

    @deterministic
    def fit(
        self,
        features: Union[FeatureMatrix, Sequence[FeatureVector]],
        labels: Sequence[bool],
    ) -> ADTreeModel:
        """Learn a tree from a feature matrix (or dict vectors) and labels."""
        if len(features) != len(labels):
            raise ValueError(
                f"features ({len(features)}) and labels ({len(labels)}) disagree"
            )
        if not len(features):
            raise ValueError("cannot fit on an empty training set")
        matrix = (
            features
            if isinstance(features, FeatureMatrix)
            else FeatureMatrix.from_vectors(features)
        )

        tracer = self.tracer
        n = len(matrix)
        y = np.where(np.asarray(labels, dtype=bool), 1.0, -1.0)
        with tracer.span("adtree.candidates"):
            candidates = self._build_candidates(matrix)
        tracer.count("adtree.conditions", len(candidates.conditions))

        # Root prediction: smoothed prior log-odds.
        weights = np.ones(n)
        root_value = self._log_odds(
            float(weights[y > 0].sum()), float(weights[y < 0].sum())
        )
        root = PredictionNode(root_value)
        weights *= np.exp(-y * root_value)

        if not candidates.conditions:
            return ADTreeModel(root)

        # Preconditions: (reachability mask, prediction node to attach to).
        preconditions: List[Tuple[NDArray[np.float64], PredictionNode]] = [
            (np.ones(n), root)
        ]

        for round_index in range(1, self.n_rounds + 1):
            with tracer.span("adtree.round"):
                placement = self._best_split(
                    candidates, preconditions, weights, y
                )
            if placement is None:
                break
            tracer.count("adtree.boosting_rounds")
            pre_index, cond_index, value_yes, value_no = placement
            mask, parent = preconditions[pre_index]
            condition = candidates.conditions[cond_index]
            sat = candidates.satisfied[cond_index]
            pres = candidates.present[candidates.feature_of[cond_index]]

            mask_yes = mask * sat
            mask_no = mask * pres * (1.0 - sat)
            splitter = SplitterNode(
                order=round_index,
                condition=condition,
                yes=PredictionNode(value_yes),
                no=PredictionNode(value_no),
            )
            parent.splitters.append(splitter)
            preconditions.append((mask_yes, splitter.yes))
            preconditions.append((mask_no, splitter.no))

            weights *= np.exp(-y * (value_yes * mask_yes + value_no * mask_no))

        return ADTreeModel(root)

    # -- internals ---------------------------------------------------------------

    def _log_odds(self, w_pos: float, w_neg: float) -> float:
        return 0.5 * float(
            np.log((w_pos + self.smoothing) / (w_neg + self.smoothing))
        )

    def _best_split(
        self,
        candidates: _CandidateSet,
        preconditions: List[Tuple[NDArray[np.float64], PredictionNode]],
        weights: NDArray[np.float64],
        y: NDArray[np.float64],
    ) -> Optional[Tuple[int, int, float, float]]:
        """Z-minimizing (precondition, condition) with its branch values."""
        units, shift = _quantize(weights)
        masks = np.array([mask for mask, _node in preconditions])
        n_pre = len(masks)
        # Columns [u+ * mask_p ..., u- * mask_p ...]: integer sums, exact.
        stacked = np.concatenate(
            [masks * (units * (y > 0)), masks * (units * (y < 0))]
        ).T
        yes = candidates.satisfied @ stacked
        reached = (candidates.present @ stacked)[candidates.feature_of]
        wp_yes, wn_yes = np.hsplit(np.ldexp(yes, -shift), 2)
        wp_no, wn_no = np.hsplit(np.ldexp(reached - yes, -shift), 2)
        outside = np.ldexp(
            units.sum() - reached[:, :n_pre] - reached[:, n_pre:], -shift
        )
        z = 2.0 * (np.sqrt(wp_yes * wn_yes) + np.sqrt(wp_no * wn_no)) + outside

        best: Optional[Tuple[float, int, int]] = None
        for pre_index in range(n_pre):
            cond_index = int(np.argmin(z[:, pre_index]))
            z_value = float(z[cond_index, pre_index])
            if best is None or z_value < best[0] - 1e-12:
                best = (z_value, cond_index, pre_index)
        if best is None:
            return None
        _, c, p = best
        value_yes = self._log_odds(float(wp_yes[c, p]), float(wn_yes[c, p]))
        value_no = self._log_odds(float(wp_no[c, p]), float(wn_no[c, p]))
        return p, c, value_yes, value_no

    def _build_candidates(self, matrix: FeatureMatrix) -> _CandidateSet:
        """Enumerate base conditions and evaluate them over the matrix."""
        conditions: List[Condition] = []
        satisfied_rows: List[NDArray[np.bool_]] = []
        present_rows: List[NDArray[np.bool_]] = []
        feature_of: List[int] = []

        for name, column in matrix.columns.items():
            present = column.present
            if not present.any():
                continue
            if isinstance(column, CategoricalColumn):
                for code, label in enumerate(column.labels):
                    conditions.append(CategoricalCondition(name, label))
                    satisfied_rows.append(column.codes == code)
                    feature_of.append(len(present_rows))
            else:
                values = column.values
                for threshold in self._thresholds(values[present]):
                    with np.errstate(invalid="ignore"):
                        passes = (values < threshold) & present
                    conditions.append(NumericCondition(name, float(threshold)))
                    satisfied_rows.append(passes)
                    feature_of.append(len(present_rows))
            present_rows.append(present)

        if not conditions:
            empty = np.zeros((0, len(matrix)), dtype=np.float64)
            return _CandidateSet([], empty, empty, np.zeros(0, dtype=np.intp))
        return _CandidateSet(
            conditions,
            np.array(satisfied_rows, dtype=np.float64),
            np.array(present_rows, dtype=np.float64),
            np.array(feature_of, dtype=np.intp),
        )

    def _thresholds(self, present_values: NDArray[np.float64]) -> List[float]:
        """Candidate thresholds: midpoints of unique values, quantile-capped."""
        unique = np.unique(present_values)
        if unique.size < 2:
            return []
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if midpoints.size <= self.max_numeric_thresholds:
            return [float(m) for m in midpoints]
        quantiles = np.linspace(0, 1, self.max_numeric_thresholds + 2)[1:-1]
        picked = np.quantile(midpoints, quantiles)
        return [float(m) for m in np.unique(picked)]


def _quantize(weights: NDArray[np.float64]) -> Tuple[NDArray[np.float64], int]:
    """Weights as integers on a 2**-shift grid, and ``shift``.

    The units total at most 2**51 + n/2, so every subset sum of them is
    exact in float64; ``np.ldexp(sum, -shift)`` rescales it exactly.
    """
    total = math.fsum(weights.tolist())
    if not math.isfinite(total):
        raise ValueError(f"boosting weights total {total}, not a finite value")
    shift = 51 - math.frexp(total)[1]
    return np.rint(np.ldexp(weights, shift)), shift
