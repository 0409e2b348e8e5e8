"""Unit tests for the shared worker state layer.

``repro.parallel.shared`` publishes heavy read-only objects (the
scorer and interned corpus) once per run; the work function resolves
the handle's ``ref`` — a token into the registry each pool worker
adopts at start — instead of unpickling a corpus per chunk. These tests
pin the lifecycle (publish / resolve / close / generation), that
publication never copies or rebinds the published objects, the work
function's parity with the per-pair scalar oracle, a real spawn pool,
and the executor's warm-pool behavior around generation changes.
"""

from __future__ import annotations

import multiprocessing
import sys

import pytest

import repro.parallel.executor as executor_module
import repro.parallel.shared as shared_module
from repro.blocking.scoring import BlockScorer, ScoringMethod
from repro.core import PipelineConfig, UncertainERPipeline
from repro.parallel.executor import MultiprocessExecutor, SerialExecutor
from repro.parallel.shared import (
    publish_shared_state,
    shared_generation,
    shared_state,
    worker_context,
)
from repro.parallel.work import score_pair_chunk
from repro.similarity.interning import InternedCorpus


@pytest.fixture()
def bags(small_corpus):
    dataset, _persons = small_corpus
    return dict(dataset.item_bags)


@pytest.fixture()
def pairs(bags):
    rids = sorted(bags)[:30]
    return [(rids[i], rids[i + 1]) for i in range(len(rids) - 1)]


class TestLifecycle:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="pools fork on Linux"
    )
    def test_fork_platform_supports_shared_state(self):
        # On the Linux CI/dev platforms pools fork, so the parity tests
        # exercise workers that inherit the registry without pickling.
        assert worker_context().get_start_method() == "fork"

    @pytest.mark.parametrize(
        "default, pool_method",
        [("fork", "fork"), ("forkserver", "fork"), ("spawn", "spawn")],
    )
    def test_pools_fork_wherever_the_default_is_fork_based(
        self, monkeypatch, default, pool_method
    ):
        # Python 3.14 moved the Linux default to forkserver; pools still
        # fork there, so the registry route does not depend on the
        # interpreter version.
        monkeypatch.setattr(
            shared_module.multiprocessing,
            "get_start_method",
            lambda allow_none=False: default,
        )
        assert shared_module.worker_context().get_start_method() == (
            pool_method
        )

    def test_publish_resolve_close(self, bags):
        corpus = InternedCorpus(bags)
        scorer = BlockScorer(method=ScoringMethod.WEIGHTED)
        handle = publish_shared_state(scorer=scorer, corpus=corpus)
        try:
            state = shared_state(handle.ref)
            assert state["scorer"] is scorer
            assert state["corpus"] is corpus
        finally:
            handle.close()
        with pytest.raises(RuntimeError, match="not published"):
            shared_state(handle.ref)

    def test_generation_bumps_on_publish_and_close(self, bags):
        before = shared_generation()
        handle = publish_shared_state(corpus=InternedCorpus(bags))
        after_publish = shared_generation()
        handle.close()
        after_close = shared_generation()
        assert after_publish == before + 1
        assert after_close == after_publish + 1

    def test_close_is_idempotent(self, bags):
        handle = publish_shared_state(corpus=InternedCorpus(bags))
        handle.close()
        generation = shared_generation()
        handle.close()
        assert shared_generation() == generation
        assert handle.closed

    def test_context_manager_closes(self, bags):
        with publish_shared_state(corpus=InternedCorpus(bags)) as handle:
            assert not handle.closed
            assert shared_state(handle.ref)
        assert handle.closed

    def test_corpus_survives_handle_close(self, bags, pairs):
        corpus = InternedCorpus(bags)
        scorer = BlockScorer(method=ScoringMethod.UNIFORM)
        expected = scorer.pair_similarity_batch(corpus, pairs)
        with publish_shared_state(corpus=corpus):
            pass
        assert scorer.pair_similarity_batch(corpus, pairs) == expected

    def test_publication_keeps_the_corpus_arrays(self, bags):
        # Publishing registers the corpus as it is: its arrays are
        # never rehomed, during publication or after close.
        corpus = InternedCorpus(bags)
        arrays = (corpus.bits, corpus.sizes, corpus.type_counts)
        with publish_shared_state(corpus=corpus) as handle:
            assert shared_state(handle.ref)["corpus"] is corpus
        assert corpus.bits is arrays[0]
        assert corpus.sizes is arrays[1]
        assert corpus.type_counts is arrays[2]


class TestSharedWorkFunctions:
    def test_score_chunk_parity(self, bags, pairs):
        corpus = InternedCorpus(bags)
        scorer = BlockScorer(method=ScoringMethod.WEIGHTED)
        with publish_shared_state(scorer=scorer, corpus=corpus) as handle:
            chunk = score_pair_chunk((handle.ref, pairs))
        oracle = [
            ((a, b), scorer.pair_similarity(bags[a], bags[b]))
            for a, b in pairs
        ]
        assert chunk == oracle

    def test_stale_token_raises(self, bags, pairs):
        handle = publish_shared_state(
            scorer=BlockScorer(), corpus=InternedCorpus(bags)
        )
        handle.close()
        with pytest.raises(RuntimeError, match="stale generation"):
            score_pair_chunk((handle.ref, pairs))


class _RecordingExecutor(MultiprocessExecutor):
    """A real pool that notes each dispatch's work function + payloads."""

    def __init__(self, workers):
        super().__init__(workers)
        self.dispatched = []

    def map_chunks(self, func, payloads, **kwargs):
        self.dispatched.append((func, list(payloads)))
        return super().map_chunks(func, payloads, **kwargs)


class TestSpawnPool:
    """A real spawn pool: workers adopt the registry pickled at start."""

    def test_ranked_csv_matches_serial(self, monkeypatch, tmp_path):
        from repro.datagen import build_corpus

        monkeypatch.setattr(
            executor_module,
            "worker_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        dataset, _persons = build_corpus(
            n_persons=120, communities=("italy",), seed=23
        )
        pool = _RecordingExecutor(2)
        outputs = {}
        for name, executor in (("serial", SerialExecutor()), ("pool", pool)):
            pipeline = UncertainERPipeline(
                PipelineConfig(max_minsup=4, ng=3.0, expert_weighting=True),
                executor=executor,
            )
            out = tmp_path / f"{name}.csv"
            pipeline.run(dataset).to_csv(out)
            outputs[name] = out.read_bytes()
            executor.close()
        assert outputs["pool"] == outputs["serial"]
        # Scoring really dispatched, with only the token in every payload.
        scoring = [
            payloads
            for func, payloads in pool.dispatched
            if func is score_pair_chunk
        ]
        assert scoring
        for payloads in scoring:
            assert all(isinstance(ref, str) for ref, _pairs in payloads)
        assert pool.stats.worker_chunks > 0
        assert pool.stats.worker_retries == 0


class TestWarmPool:
    def work(self, executor, bags, pairs, handle):
        return executor.map_chunks(
            score_pair_chunk,
            [
                (handle.ref, chunk)
                for chunk in executor.plan_chunks(pairs)
            ],
            shared=handle,
        )

    def test_pool_kept_warm_across_dispatches(self, bags, pairs):
        corpus = InternedCorpus(bags)
        executor = MultiprocessExecutor(workers=2)
        try:
            with publish_shared_state(
                scorer=BlockScorer(), corpus=corpus
            ) as handle:
                first = self.work(executor, bags, pairs, handle)
                second = self.work(executor, bags, pairs, handle)
            assert first == second
            assert executor.stats.pools_created == 1
            assert executor.stats.shared_dispatches == 2
        finally:
            executor.close()

    def test_generation_change_rebuilds_pool(self, bags, pairs):
        executor = MultiprocessExecutor(workers=2)
        try:
            with publish_shared_state(
                scorer=BlockScorer(), corpus=InternedCorpus(bags)
            ) as first:
                self.work(executor, bags, pairs, first)
            # The close above bumped the generation: a pool forked
            # before the next publish could never resolve its token.
            with publish_shared_state(
                scorer=BlockScorer(), corpus=InternedCorpus(bags)
            ) as second:
                self.work(executor, bags, pairs, second)
            assert executor.stats.pools_created == 2
        finally:
            executor.close()

    def test_executor_close_is_idempotent(self):
        executor = MultiprocessExecutor(workers=2)
        executor.close()
        executor.close()

    def test_stats_echo_includes_shared_counters(self):
        executor = MultiprocessExecutor(workers=2)
        try:
            echo = executor.stats.to_echo()
            for key in (
                "shared_dispatches",
                "pools_created",
            ):
                assert key in echo
        finally:
            executor.close()
