"""Benchmark-side probes: timed spans around each layer's entry points.

The program's own :class:`~repro.obs.tracer.Tracer` is one of the
things the end-to-end benchmark measures, so the per-layer numbers
come from here instead: :func:`installed` patches public entry points
*at the attribute their callers look up* (``repro.blocking.mfiblocks.
maximal_frequent_itemsets``, not ``repro.mining.fpgrowth``'s), records
while a repetition is marked active, and restores every original object
on exit — an identity-exact restore the smoke test checks.

Recording model:

* a **span** is ``(name, start, end, parent, run)`` plus counters its
  probe observed (e.g. transactions in, MFIs out); spans nest by call
  stack and a span's *self time* is its duration minus the time of its
  child spans and rolled-up calls;
* a **rollup** is a per-element entry point (scalar pair similarity,
  scalar feature extraction, ``ADTreeModel.score``, ``os.fsync``)
  folded into a count and total time per (run, name, enclosing span),
  so a 40k-call loop costs 40k timer reads, not 40k span records;
* only the process that created the :class:`Recorder` records. Forked
  pool workers inherit the patched functions but pass straight through
  (pid check); their work shows up as the parent's
  ``parallel.map_chunks`` span.

:func:`layer_metrics` folds one repetition's spans into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import repro.blocking.mfiblocks as mfiblocks
import repro.classify.training as training
import repro.core.incremental as incremental
from repro.blocking.scoring import BlockScorer
from repro.classify.adtree import ADTreeModel
from repro.classify.boosting import ADTreeLearner
from repro.core.pipeline import UncertainERPipeline
from repro.evaluation.goldstandard import GoldStandard
from repro.evaluation.metrics import reduction_ratio
from repro.parallel.executor import MultiprocessExecutor
from repro.records.dataset import Dataset
from repro.resilience.wal import WriteAheadLog

__all__ = [
    "Probe",
    "Recorder",
    "SpanRecord",
    "installed",
    "probe_table",
    "layer_metrics",
]

Observer = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, float]]


@dataclass(frozen=True)
class Probe:
    """One patched entry point: ``owner.attr`` recorded under ``name``.

    ``owner`` is a module or a class; for a class the attribute must be
    defined on the class itself (functions, classmethods and properties
    are wrapped in kind). ``observe(args, kwargs, result)`` returns
    counters to attach to the span or rollup.
    """

    owner: Any
    attr: str
    name: str
    rollup: bool = False
    observe: Optional[Observer] = None


@dataclass
class SpanRecord:
    name: str
    start: float
    run: int
    parent: int
    end: float = 0.0
    child_seconds: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass
class RollupRecord:
    count: int = 0
    seconds: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """In-memory span store for the process that created it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Repetition id while recording; ``None`` between repetitions.
        self.run: Optional[int] = None
        self.spans: List[SpanRecord] = []
        self.rollups: Dict[Tuple[int, str, int], RollupRecord] = {}
        #: Objects observers keep for metrics computed after the run
        #: (e.g. the blocking result, for pair completeness).
        self.kept: Dict[Tuple[int, str], Any] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def recording(self, run: int) -> Iterator[None]:
        """Record every probe call made inside the block as ``run``."""
        self.run = run
        try:
            yield
        finally:
            self.run = None
            self._stack.clear()

    def _open(self, name: str, run: int) -> SpanRecord:
        parent = self._stack[-1] if self._stack else -1
        span = SpanRecord(name=name, start=time.perf_counter(), run=run, parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: SpanRecord) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_seconds += span.seconds

    def _roll(self, name: str, run: int, seconds: float, attrs: Mapping[str, float]) -> None:
        parent = self._stack[-1] if self._stack else -1
        key = (run, name, parent)
        record = self.rollups.get(key)
        if record is None:
            record = self.rollups[key] = RollupRecord()
        record.count += 1
        record.seconds += seconds
        for attr, value in attrs.items():
            record.attrs[attr] = record.attrs.get(attr, 0.0) + value
        if parent >= 0:
            self.spans[parent].child_seconds += seconds

    def to_json(self, origin: float) -> Dict[str, Any]:
        """Spans and rollups with times relative to ``origin``."""
        return {
            "spans": [
                {
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "run": span.run,
                    "self_seconds": span.self_seconds,
                    "attrs": span.attrs,
                }
                for span in self.spans
            ],
            "rollups": [
                {
                    "run": run,
                    "name": name,
                    "parent": parent,
                    "count": record.count,
                    "seconds": record.seconds,
                    "attrs": record.attrs,
                }
                for (run, name, parent), record in sorted(self.rollups.items())
            ],
        }


def _span_wrapper(recorder: Recorder, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        run = recorder.run
        if run is None or os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        span = recorder._open(probe.name, run)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder._close(span)
        if probe.observe is not None:
            span.attrs.update(probe.observe(args, kwargs, result))
        return result

    return traced


def _rollup_wrapper(recorder: Recorder, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
    observe = probe.observe
    no_attrs: Dict[str, float] = {}

    @functools.wraps(fn)
    def rolled(*args: Any, **kwargs: Any) -> Any:
        run = recorder.run
        if run is None or os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
        attrs = observe(args, kwargs, result) if observe is not None else no_attrs
        recorder._roll(probe.name, run, elapsed, attrs)
        return result

    return rolled


def _wrap(recorder: Recorder, probe: Probe, raw: Any) -> Any:
    make = _rollup_wrapper if probe.rollup else _span_wrapper
    if isinstance(raw, classmethod):
        return classmethod(make(recorder, probe, raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(make(recorder, probe, raw.__func__))
    if isinstance(raw, property):
        if raw.fget is None:
            raise TypeError(f"cannot probe write-only property {probe.attr}")
        return property(make(recorder, probe, raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if not callable(raw):
        raise TypeError(f"cannot probe non-callable {probe.owner!r}.{probe.attr}")
    return make(recorder, probe, raw)


def _raw_attribute(owner: Any, attr: str) -> Any:
    """The object stored at ``owner.attr`` (class dicts, not descriptors)."""
    if isinstance(owner, type):
        return vars(owner)[attr]
    return getattr(owner, attr)


@contextlib.contextmanager
def installed(recorder: Recorder, probes: Sequence[Probe]) -> Iterator[List[Tuple[Probe, Any]]]:
    """Patch every probe in; yields ``(probe, original)`` pairs.

    On exit each attribute is set back to the very object it held
    before, even when the block raised.
    """
    originals: List[Tuple[Probe, Any]] = []
    try:
        for probe in probes:
            raw = _raw_attribute(probe.owner, probe.attr)
            setattr(probe.owner, probe.attr, _wrap(recorder, probe, raw))
            originals.append((probe, raw))
        yield originals
    finally:
        for probe, raw in reversed(originals):
            setattr(probe.owner, probe.attr, raw)


# -- the probe table ----------------------------------------------------------


def _block_pairs(blocks: Sequence[Sequence[int]]) -> float:
    return float(sum(len(block) * (len(block) - 1) // 2 for block in blocks))


def probe_table(recorder: Recorder) -> List[Probe]:
    """Every entry point the per-layer metrics are built from."""

    def keep_blocking(args: Tuple[Any, ...], _kwargs: Dict[str, Any], result: Any) -> Dict[str, float]:
        recorder.kept[(recorder.run, "blocking")] = (args[1], result)
        return {
            "candidate_pairs": float(len(result.pair_scores)),
            "blocks": float(len(result.blocks)),
        }

    def dispatch_label(_args: Tuple[Any, ...], kwargs: Dict[str, Any], _result: Any) -> Dict[str, float]:
        label = kwargs.get("label", "")
        return {
            "similarity": float(label == "mfiblocks.score_pairs"),
            "classify": float(label == "classify.score_pairs"),
        }

    return [
        Probe(UncertainERPipeline, "run", "core.pipeline_run"),
        Probe(UncertainERPipeline, "block", "blocking.block", observe=keep_blocking),
        Probe(Dataset, "item_bags", "records.item_bags"),
        Probe(mfiblocks, "prune_frequent_items", "mining.prune"),
        Probe(
            mfiblocks, "maximal_frequent_itemsets", "mining.mfi",
            observe=lambda args, _kw, result: {
                "transactions": float(len(args[0])), "mfis": float(len(result)),
            },
        ),
        Probe(mfiblocks, "InternedCorpus", "similarity.intern"),
        Probe(
            BlockScorer, "score_blocks_batch", "similarity.blocks_batch",
            observe=lambda args, _kw, _result: {"pairs": _block_pairs(args[1])},
        ),
        Probe(
            BlockScorer, "pair_similarity_batch", "similarity.pairs_batch",
            observe=lambda args, _kw, _result: {"pairs": float(len(args[2]))},
        ),
        Probe(BlockScorer, "pair_similarity", "similarity.scalar", rollup=True),
        Probe(
            training.PairClassifier, "fit", "classify.fit",
            observe=lambda args, _kw, _result: {"training_pairs": float(len(args[1]))},
        ),
        Probe(training, "pair_features", "classify.pair_features"),
        Probe(training, "extract_features_batch", "classify.features_batch"),
        Probe(training, "extract_features", "classify.scalar_features", rollup=True),
        Probe(incremental, "extract_features", "classify.scalar_features", rollup=True),
        Probe(ADTreeLearner, "fit", "classify.boost"),
        Probe(
            training.PairClassifier, "rank", "classify.rank",
            observe=lambda _args, _kw, result: {"ranked_pairs": float(len(result))},
        ),
        Probe(
            ADTreeModel, "score", "classify.model_score", rollup=True,
            observe=lambda _args, _kw, result: {"kept": float(result > 0.0)},
        ),
        Probe(MultiprocessExecutor, "map_chunks", "parallel.map_chunks", observe=dispatch_label),
        Probe(incremental.IncrementalResolver, "__init__", "core.base_build"),
        Probe(
            incremental.IncrementalResolver, "add_records", "core.add_records",
            observe=lambda _args, _kw, result: {
                "candidates": float(result.candidates_scored),
                "produced": float(len(result.produced)),
            },
        ),
        Probe(
            incremental.IncrementalResolver, "recover", "core.recover",
            observe=lambda _args, _kw, result: {
                "dropped_batches": float(len(result[1].dropped_batches)),
            },
        ),
        Probe(WriteAheadLog, "append_begin", "resilience.wal_append"),
        Probe(WriteAheadLog, "append_commit", "resilience.wal_append"),
        Probe(os, "fsync", "resilience.fsync", rollup=True),
    ]


# -- per-layer metrics ------------------------------------------------------------


class _RunView:
    """One repetition's spans and rollups with ancestry queries."""

    def __init__(self, recorder: Recorder, run: int) -> None:
        self.spans = recorder.spans
        self.mine = [index for index, span in enumerate(self.spans) if span.run == run]
        self.rollups = {
            (name, parent): record
            for (rollup_run, name, parent), record in recorder.rollups.items()
            if rollup_run == run
        }

    def named(self, name: str) -> List[SpanRecord]:
        return [self.spans[index] for index in self.mine if self.spans[index].name == name]

    def total(self, name: str, attr: Optional[str] = None) -> float:
        """Summed seconds (or ``attr``) of every span called ``name``."""
        if attr is None:
            return sum(span.seconds for span in self.named(name))
        return sum(span.attrs.get(attr, 0.0) for span in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(span.self_seconds for span in self.named(name))

    def _under(self, index: int, member: Callable[[SpanRecord], bool]) -> bool:
        while index >= 0:
            span = self.spans[index]
            if member(span):
                return True
            index = span.parent
        return False

    def covered(
        self,
        member: Callable[[SpanRecord], bool],
        rollup_names: Sequence[str] = (),
    ) -> float:
        """Seconds inside ``member`` spans, nested ones counted once.

        Rolled-up calls named in ``rollup_names`` count too unless they
        ran inside a member span already counted.
        """
        seconds = sum(
            self.spans[index].seconds
            for index in self.mine
            if member(self.spans[index]) and not self._under(self.spans[index].parent, member)
        )
        for (name, parent), record in self.rollups.items():
            if name in rollup_names and not self._under(parent, member):
                seconds += record.seconds
        return seconds

    def rollup(self, name: str) -> RollupRecord:
        merged = RollupRecord()
        for (rollup_name, _parent), record in self.rollups.items():
            if rollup_name == name:
                merged.count += record.count
                merged.seconds += record.seconds
                for attr, value in record.attrs.items():
                    merged.attrs[attr] = merged.attrs.get(attr, 0.0) + value
        return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def _layer(prefix: str, dispatch_attr: str) -> Callable[[SpanRecord], bool]:
    def member(span: SpanRecord) -> bool:
        if span.name.startswith(prefix):
            return True
        return span.name == "parallel.map_chunks" and span.attrs.get(dispatch_attr, 0.0) > 0
    return member


def layer_metrics(
    recorder: Recorder,
    run: int,
    op_seconds: float,
    executor_stats: Mapping[str, int],
) -> Dict[str, float]:
    """Per-layer metrics of repetition ``run`` whose timed part took ``op_seconds``."""
    view = _RunView(recorder, run)
    metrics: Dict[str, float] = {}

    mining_s = view.covered(lambda span: span.name.startswith("mining."))
    metrics.update({
        "mining.s": mining_s,
        "mining.share": _ratio(mining_s, op_seconds),
        "mining.calls": float(len(view.named("mining.mfi"))),
        "mining.transactions": view.total("mining.mfi", "transactions"),
        "mining.mfis": view.total("mining.mfi", "mfis"),
    })

    candidates = view.total("blocking.block", "candidate_pairs")
    block_pairs = view.total("similarity.blocks_batch", "pairs")
    completeness = quality = reduction = 0.0
    kept = recorder.kept.pop((run, "blocking"), None)
    if kept is not None:
        dataset, result = kept
        pair_quality = GoldStandard.from_dataset(dataset).evaluate(result.candidate_pairs)
        completeness = pair_quality.recall
        quality = pair_quality.precision
        reduction = reduction_ratio(len(result.pair_scores), len(dataset))
    metrics.update({
        "blocking.self_s": view.self_total("blocking.block"),
        "blocking.candidate_pairs": candidates,
        "blocking.block_pairs_scored": block_pairs,
        "blocking.block_yield": _ratio(view.total("blocking.block", "blocks"), metrics["mining.mfis"]),
        "blocking.pair_yield": _ratio(candidates, block_pairs),
        "blocking.pair_quality": quality,
        "blocking.pair_completeness": completeness,
        "blocking.reduction_ratio": reduction,
    })

    metrics["records.item_bags_s"] = view.total("records.item_bags")

    scalar = view.rollup("similarity.scalar")
    batch_s = view.covered(lambda span: span.name in ("similarity.blocks_batch", "similarity.pairs_batch"))
    batch_pairs = view.total("similarity.pairs_batch", "pairs")
    similarity_s = view.covered(_layer("similarity.", "similarity"), ("similarity.scalar",))
    metrics.update({
        "similarity.intern_s": view.total("similarity.intern"),
        "similarity.batch_s": batch_s,
        "similarity.batch_pairs": batch_pairs,
        "similarity.batch_pairs_per_s": _ratio(batch_pairs, batch_s),
        "similarity.scalar_calls": float(scalar.count),
        "similarity.scalar_s": scalar.seconds,
        "similarity.share": _ratio(similarity_s, op_seconds),
    })

    features = view.rollup("classify.scalar_features")
    scores = view.rollup("classify.model_score")
    classify_s = view.covered(
        _layer("classify.", "classify"),
        ("classify.scalar_features", "classify.model_score"),
    )
    metrics.update({
        "classify.fit_s": view.total("classify.fit"),
        "classify.features_s": view.total("classify.pair_features"),
        "classify.boost_s": view.total("classify.boost"),
        "classify.rank_s": view.total("classify.rank"),
        "classify.batch_features_s": view.total("classify.features_batch"),
        "classify.training_pairs": view.total("classify.fit", "training_pairs"),
        "classify.ranked_pairs": view.total("classify.rank", "ranked_pairs"),
        "classify.keep_ratio": _ratio(scores.attrs.get("kept", 0.0), float(scores.count)),
        "classify.scalar_features_calls": float(features.count),
        "classify.scalar_features_s": features.seconds,
        "classify.model_score_calls": float(scores.count),
        "classify.model_score_s": scores.seconds,
        "classify.share": _ratio(classify_s, op_seconds),
    })

    metrics["parallel.dispatch_s"] = view.covered(lambda span: span.name == "parallel.map_chunks")
    for stat in (
        "map_calls", "chunks", "inline_chunks", "worker_retries", "chunks_timed_out",
        "shared_dispatches", "bytes_not_pickled", "pools_created",
    ):
        metrics[f"parallel.{stat}"] = float(executor_stats.get(stat, 0))

    scored = view.total("core.add_records", "candidates")
    metrics.update({
        "core.pipeline_self_s": view.self_total("core.pipeline_run"),
        "core.base_build_s": view.total("core.base_build"),
        "core.ingest_self_s": view.self_total("core.add_records"),
        "core.candidates_scored": scored,
        "core.evidence_yield": _ratio(view.total("core.add_records", "produced"), scored),
    })

    fsync = view.rollup("resilience.fsync")
    recover_s = view.total("core.recover")
    metrics.update({
        "resilience.wal_appends": float(len(view.named("resilience.wal_append"))),
        "resilience.wal_append_s": view.total("resilience.wal_append"),
        "resilience.fsyncs": float(fsync.count),
        "resilience.fsync_s": fsync.seconds,
        "resilience.recover_s": recover_s,
        # Inside the timed part the only base build is the one recover()
        # does before replaying the log.
        "resilience.recover_replay_s": recover_s - metrics["core.base_build_s"] if recover_s else 0.0,
        "resilience.recover_dropped_batches": view.total("core.recover", "dropped_batches"),
    })
    return metrics
