"""Tests for the MFIBlocks algorithm (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.blocking import MFIBlocks, MFIBlocksConfig
from repro.blocking.scoring import BlockScorer, ScoringMethod
from repro.records.dataset import Dataset
from tests.conftest import make_record


def duplicate_heavy_dataset():
    """Five exact-duplicate pairs plus five singletons, distinct names."""
    records = []
    book_id = 1
    names = [("Guido", "Foa"), ("Massimo", "Levi"), ("Donato", "Segre"),
             ("Alberto", "Treves"), ("Bruna", "Artom")]
    for person_id, (first, last) in enumerate(names, start=1):
        for _ in range(2):
            records.append(
                make_record(
                    book_id=book_id,
                    first=(first,),
                    last=(last,),
                    birth_year=1900 + person_id,
                    person_id=person_id,
                )
            )
            book_id += 1
    singles = [("Elio", "Bachi"), ("Carla", "Diena"), ("Sergio", "Finzi"),
               ("Noemi", "Jona"), ("Aldo", "Pavia")]
    for person_id, (first, last) in enumerate(singles, start=100):
        records.append(
            make_record(
                book_id=book_id,
                first=(first,),
                last=(last,),
                birth_year=1880 + person_id % 20,
                person_id=person_id,
            )
        )
        book_id += 1
    return Dataset(records)


class TestConfigValidation:
    def test_max_minsup_floor(self):
        with pytest.raises(ValueError):
            MFIBlocksConfig(max_minsup=1)

    def test_ng_positive(self):
        with pytest.raises(ValueError):
            MFIBlocksConfig(ng=0)

    def test_min_block_size(self):
        with pytest.raises(ValueError):
            MFIBlocksConfig(min_block_size=1)

    def test_defaults(self):
        config = MFIBlocksConfig()
        assert config.max_minsup == 5
        assert config.ng == 3.0
        assert config.sn_mode == "skip"


class TestAlgorithm:
    def test_finds_exact_duplicates(self):
        dataset = duplicate_heavy_dataset()
        result = MFIBlocks(MFIBlocksConfig(max_minsup=3, ng=3.0)).run(dataset)
        gold = dataset.true_pairs()
        found = result.candidate_pairs & gold
        assert len(found) == len(gold)  # every duplicate pair recovered

    def test_blocks_respect_size_cap(self):
        dataset = duplicate_heavy_dataset()
        config = MFIBlocksConfig(max_minsup=4, ng=2.0)
        result = MFIBlocks(config).run(dataset)
        for block in result.blocks:
            assert len(block) <= int(config.max_minsup * config.ng)

    def test_blocks_have_keys_and_scores(self):
        dataset = duplicate_heavy_dataset()
        result = MFIBlocks(MFIBlocksConfig(max_minsup=3)).run(dataset)
        assert result.blocks
        for block in result.blocks:
            assert block.key  # MFIBlocks blocks carry their MFI
            assert block.score > 0.0

    def test_pair_scores_in_unit_interval(self):
        dataset = duplicate_heavy_dataset()
        result = MFIBlocks(MFIBlocksConfig(max_minsup=3)).run(dataset)
        for score in result.pair_scores.values():
            assert 0.0 < score <= 1.0

    def test_exact_duplicates_score_one(self):
        dataset = duplicate_heavy_dataset()
        result = MFIBlocks(MFIBlocksConfig(max_minsup=3)).run(dataset)
        gold = dataset.true_pairs()
        for pair in gold:
            assert result.pair_scores[pair] == pytest.approx(1.0)

    def test_empty_dataset(self):
        result = MFIBlocks().run(Dataset([]))
        assert result.blocks == []
        assert result.candidate_pairs == frozenset()

    def test_no_shared_items_no_blocks(self):
        records = [
            make_record(book_id=1, first=("Aaa",), last=("Bbb",), gender=None),
            make_record(book_id=2, first=("Ccc",), last=("Ddd",), gender=None),
        ]
        result = MFIBlocks(MFIBlocksConfig(max_minsup=2)).run(Dataset(records))
        assert result.candidate_pairs == frozenset()

    def test_deterministic(self):
        dataset = duplicate_heavy_dataset()
        result_a = MFIBlocks(MFIBlocksConfig()).run(dataset)
        result_b = MFIBlocks(MFIBlocksConfig()).run(dataset)
        assert result_a.pair_scores == result_b.pair_scores

    def test_prune_fraction_runs(self):
        dataset = duplicate_heavy_dataset()
        result = MFIBlocks(
            MFIBlocksConfig(prune_fraction=0.01)
        ).run(dataset)
        # gender (the most frequent item) was pruned from every bag, so
        # no block should be keyed solely by it.
        for block in result.blocks:
            assert {str(i).split()[0] for i in block.key} != {"G"}

    @pytest.mark.parametrize("prune_fraction", [None, 0.003])
    def test_block_records_are_brute_force_support_of_key(
        self, small_corpus, prune_fraction
    ):
        """FindSupport: a block holds exactly the records, uncovered at
        its level, whose (possibly pruned) bag contains its key."""
        dataset, _persons = small_corpus
        levels = []

        class Spy(MFIBlocks):
            def _one_iteration(self, uncovered, item_bags, *args):
                admitted = super()._one_iteration(uncovered, item_bags, *args)
                levels.append((list(uncovered), item_bags, admitted))
                return admitted

        config = MFIBlocksConfig(max_minsup=4, prune_fraction=prune_fraction)
        result = Spy(config).run(dataset)
        assert sum(len(admitted) for *_, admitted in levels) == len(result.blocks)
        assert any(admitted for *_, admitted in levels)
        for uncovered, item_bags, admitted in levels:
            for records, key, _score in admitted:
                assert records == frozenset(
                    rid for rid in uncovered if key <= item_bags[rid]
                )


class TestNGEffect:
    def test_larger_ng_more_candidates(self, small_corpus):
        dataset, _persons = small_corpus
        tight = MFIBlocks(MFIBlocksConfig(ng=1.5)).run(dataset)
        loose = MFIBlocks(MFIBlocksConfig(ng=4.0)).run(dataset)
        assert loose.comparisons() >= tight.comparisons()

    def test_recall_grows_with_ng(self, small_corpus, small_gold):
        dataset, _persons = small_corpus
        tight = MFIBlocks(MFIBlocksConfig(ng=1.5)).run(dataset)
        loose = MFIBlocks(MFIBlocksConfig(ng=4.5)).run(dataset)
        recall_tight = small_gold.evaluate(tight.candidate_pairs).recall
        recall_loose = small_gold.evaluate(loose.candidate_pairs).recall
        assert recall_loose >= recall_tight

    def test_neighborhoods_bounded(self, small_corpus):
        """SN property: neighborhood sizes stay within the NG cap."""
        dataset, _persons = small_corpus
        config = MFIBlocksConfig(max_minsup=5, ng=2.0)
        result = MFIBlocks(config).run(dataset)
        cap = int(config.ng * config.max_minsup)
        for size in result.neighborhoods().values():
            assert size <= cap


class TestScoringVariants:
    def test_expert_scoring_changes_pair_scores(self):
        dataset = duplicate_heavy_dataset()
        uniform = MFIBlocks(MFIBlocksConfig(max_minsup=3)).run(dataset)
        expert = MFIBlocks(
            MFIBlocksConfig(
                max_minsup=3,
                scoring=BlockScorer(method=ScoringMethod.EXPERT),
            )
        ).run(dataset)
        assert uniform.candidate_pairs  # sanity
        assert expert.candidate_pairs


def _corpus_bags(corpus):
    """Every record's item bag, decoded from the corpus's bitset rows."""
    return {
        rid: frozenset(corpus.vocab[i] for i in corpus.row_item_ids(row))
        for row, rid in enumerate(corpus.rids)
    }


class _ScalarScorer(BlockScorer):
    """The oracle scorer: every batch method replaced by scalar calls."""

    def pair_similarity_batch(self, corpus, pairs):
        bags = _corpus_bags(corpus)
        return [self.pair_similarity(bags[a], bags[b]) for a, b in pairs]

    def score_blocks_batch(self, blocks, corpus, table):
        bags = _corpus_bags(corpus)
        return [self.score_block(records, bags) for records in blocks]


def _scorer(method, cls=BlockScorer):
    from repro.blocking.scoring import DEFAULT_EXPERT_WEIGHTS

    weights = (
        dict(DEFAULT_EXPERT_WEIGHTS) if method is ScoringMethod.EXPERT
        else None
    )
    return cls(method=method, weights=weights)


class TestEachPairScoredOnce:
    """One run-wide pair table: each distinct candidate-block pair is
    scored exactly once, and the result equals a scalar oracle."""

    PERSONS = 120
    NG = 3.5

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.gates import build_dataset

        return build_dataset(self.PERSONS)

    @pytest.fixture(scope="class")
    def oracles(self, dataset):
        return {
            method: MFIBlocks(
                MFIBlocksConfig(ng=self.NG, scoring=_scorer(method, _ScalarScorer))
            ).run(dataset)
            for method in ScoringMethod
        }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", list(ScoringMethod))
    def test_pairs_scored_once_and_result_equals_scalar_oracle(
        self, dataset, oracles, monkeypatch, method, workers
    ):
        from itertools import combinations

        from repro.obs import Tracer
        from repro.parallel import MultiprocessExecutor
        from repro.parallel.work import score_pair_chunk

        scored = []
        block_pairs = set()
        dispatched = []
        dispatching = []
        score_blocks = BlockScorer.score_blocks_batch
        pair_batch = BlockScorer.pair_similarity_batch

        def spy_blocks(self, blocks, corpus, table):
            for members in blocks:
                block_pairs.update(combinations(sorted(members), 2))
            return score_blocks(self, blocks, corpus, table)

        def spy_pairs(self, corpus, pairs):
            if not dispatching:  # an inline-run chunk is counted below
                scored.extend(pairs)
            return pair_batch(self, corpus, pairs)

        monkeypatch.setattr(BlockScorer, "score_blocks_batch", spy_blocks)
        monkeypatch.setattr(BlockScorer, "pair_similarity_batch", spy_pairs)

        executor = MultiprocessExecutor(workers) if workers > 1 else None
        if executor is not None:
            map_chunks = executor.map_chunks

            def spy_map(fn, payloads, **kwargs):
                payloads = list(payloads)
                if fn is score_pair_chunk:
                    dispatched.append(len(payloads))
                    for _ref, pairs in payloads:
                        scored.extend(pairs)
                dispatching.append(fn)
                try:
                    return map_chunks(fn, payloads, **kwargs)
                finally:
                    dispatching.pop()

            monkeypatch.setattr(executor, "map_chunks", spy_map)
        tracer = Tracer()
        try:
            result = MFIBlocks(
                MFIBlocksConfig(ng=self.NG, scoring=_scorer(method)),
                tracer=tracer,
                executor=executor,
            ).run(dataset)
        finally:
            if executor is not None:
                executor.close()

        assert len(scored) == len(set(scored)), "a pair was scored twice"
        assert sorted(scored) == sorted(block_pairs)
        counters = tracer.aggregate.counters
        assert counters["mfiblocks.pairs_scored"] == len(block_pairs)
        assert counters["mfiblocks.pairs_reused"] > 0
        if executor is not None:
            # The fill really went through score_pair_chunk dispatches.
            assert dispatched and max(dispatched) > 1

        oracle = oracles[method]
        assert [(b.records, b.key) for b in result.blocks] == [
            (b.records, b.key) for b in oracle.blocks
        ]
        assert [repr(b.score) for b in result.blocks] == [
            repr(b.score) for b in oracle.blocks
        ]
        assert list(result.pair_scores) == list(oracle.pair_scores)
        assert [repr(s) for s in result.pair_scores.values()] == [
            repr(s) for s in oracle.pair_scores.values()
        ]

    @pytest.mark.parametrize("method", list(ScoringMethod))
    def test_scalar_oracle_is_scalar(self, dataset, oracles, method):
        # The oracle's numbers are the scalar scorer's own: each block
        # score is score_block, each pair score pair_similarity.
        scorer = _scorer(method)
        bags = dataset.item_bags
        oracle = oracles[method]
        for block in oracle.blocks:
            assert repr(block.score) == repr(
                scorer.score_block(block.records, bags)
            )
        for (a, b), score in oracle.pair_scores.items():
            assert repr(score) == repr(scorer.pair_similarity(bags[a], bags[b]))
