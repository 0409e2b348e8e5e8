"""Tests for the incremental resolver."""

from __future__ import annotations

import pytest

from repro.classify import training
from repro.core import incremental
from repro.core.config import PipelineConfig
from repro.core.incremental import IncrementalResolver
from repro.core.pipeline import UncertainERPipeline
from repro.resilience.faults import SimulatedCrash
from repro.resilience.quarantine import Quarantine, QuarantinePolicy
from repro.resilience.wal import WalError, WalFaultPlan, WriteAheadLog
from tests.conftest import make_record


@pytest.fixture()
def resolver(small_corpus):
    dataset, _persons = small_corpus
    config = PipelineConfig(ng=3.0, expert_weighting=True)
    return IncrementalResolver(dataset, config)


class TestConstruction:
    def test_initial_resolution_matches_batch(self, small_corpus):
        dataset, _persons = small_corpus
        config = PipelineConfig(ng=3.0, expert_weighting=True)
        batch = UncertainERPipeline(config).run(dataset)
        incremental = IncrementalResolver(dataset, config)
        assert incremental.resolution().pairs == batch.pairs

    def test_validation(self, small_corpus):
        dataset, _persons = small_corpus
        with pytest.raises(ValueError):
            IncrementalResolver(dataset, min_shared_items=0)
        with pytest.raises(ValueError):
            IncrementalResolver(
                dataset, PipelineConfig(classify=True), classifier=None
            )

    def test_len_counts_records(self, resolver, small_corpus):
        dataset, _persons = small_corpus
        assert len(resolver) == len(dataset)


class TestAddRecord:
    def test_duplicate_book_id_rejected(self, resolver, small_corpus):
        dataset, _persons = small_corpus
        existing = next(iter(dataset))
        with pytest.raises(ValueError):
            resolver.add_record(existing)

    def test_near_duplicate_gets_linked(self, resolver, small_corpus):
        dataset, _persons = small_corpus
        template = max(
            dataset, key=lambda r: len(r.pattern())
        )
        newcomer = make_record(
            book_id=9_999_999,
            source=("testimony", "fresh-sub"),
            first=template.first,
            last=template.last,
            gender=template.gender,
            birth_year=template.birth_year,
            father=template.father,
            mother=template.mother,
            places=dict(template.places),
            person_id=template.person_id,
        )
        produced = resolver.add_record(newcomer)
        pairs = {evidence.pair for evidence in produced}
        expected = (
            min(template.book_id, 9_999_999),
            max(template.book_id, 9_999_999),
        )
        assert expected in pairs
        # and the live resolution sees it immediately
        assert expected in resolver.resolution()

    def test_unrelated_record_produces_little(self, resolver):
        loner = make_record(
            book_id=9_999_998,
            source=("list", "nowhere-1"),
            first=("Zzyzx",),
            last=("Qqqq",),
            gender=None,
        )
        produced = resolver.add_record(loner)
        assert produced == []
        assert len(resolver) > 0

    def test_neighborhood_capped(self, small_corpus):
        dataset, _persons = small_corpus
        config = PipelineConfig(ng=1.0, max_minsup=3, expert_weighting=True)
        resolver = IncrementalResolver(dataset, config)
        template = next(iter(dataset))
        newcomer = make_record(
            book_id=9_999_997,
            source=("testimony", "cap-sub"),
            first=template.first,
            last=template.last,
            gender=template.gender,
        )
        produced = resolver.add_record(newcomer)
        assert len(produced) <= int(config.ng * config.max_minsup)

    def test_same_source_discard_respected(self, small_corpus):
        dataset, _persons = small_corpus
        config = PipelineConfig(
            ng=3.0, expert_weighting=True, same_source_discard=True
        )
        resolver = IncrementalResolver(dataset, config)
        template = next(iter(dataset))
        clone = make_record(
            book_id=9_999_996,
            source=(template.source.kind.value, template.source.identifier),
            first=template.first,
            last=template.last,
            gender=template.gender,
        )
        produced = resolver.add_record(clone)
        assert all(
            evidence.pair != (template.book_id, 9_999_996)
            for evidence in produced
        )

    def test_stream_of_records_improves_recall(self, small_corpus, small_gold):
        """Splitting the corpus and streaming the rest back in recovers
        pairs the initial batch could not know about."""
        dataset, _persons = small_corpus
        ids = sorted(dataset.record_ids)
        head = dataset.subset(ids[: len(ids) // 2])
        tail = [dataset[rid] for rid in ids[len(ids) // 2:]]
        config = PipelineConfig(ng=3.0, expert_weighting=True)
        resolver = IncrementalResolver(head, config)
        before = small_gold.evaluate(resolver.resolution().pairs).recall
        for record in tail:
            resolver.add_record(record)
        after = small_gold.evaluate(resolver.resolution().pairs).recall
        assert after > before


class TestAtomicity:
    """Failed adds must leave the resolver exactly as it was.

    `add_record` is validate-then-commit: a raise mid-add (duplicate
    id, unfitted classifier) must not leak the record, its items, or
    any partial evidence into the store — and the same record must be
    addable again once the cause is fixed.
    """

    def _snapshot(self, resolver):
        return (
            len(resolver),
            dict(resolver._evidence),
            dict(resolver._item_bags),
            {item: frozenset(rids) for item, rids in resolver._index.items()},
        )

    def _classified_resolver(self, small_corpus):
        dataset, _persons = small_corpus
        classifier = _train_classifier(dataset)
        return IncrementalResolver(
            dataset, _CLASSIFIED_CONFIG, classifier=classifier
        )

    def test_unfitted_classifier_leaves_store_untouched(self, small_corpus):
        dataset, _persons = small_corpus
        resolver = self._classified_resolver(small_corpus)
        template = next(iter(dataset))
        newcomer = make_record(
            book_id=9_999_997,
            source=("testimony", "atomicity-sub"),
            first=template.first,
            last=template.last,
            gender=template.gender,
        )
        before = self._snapshot(resolver)
        fitted_model = resolver.classifier.model
        resolver.classifier.model = None  # classifier invalidated
        with pytest.raises(RuntimeError, match="not fitted"):
            resolver.add_record(newcomer)
        assert self._snapshot(resolver) == before
        assert 9_999_997 not in resolver._records

        # Once repaired, the very same record is addable — nothing
        # half-committed blocks the retry.
        resolver.classifier.model = fitted_model
        resolver.add_record(newcomer)
        assert len(resolver) == before[0] + 1
        assert 9_999_997 in resolver._records

    def test_duplicate_add_leaves_store_untouched(self, resolver, small_corpus):
        dataset, _persons = small_corpus
        before = self._snapshot(resolver)
        with pytest.raises(ValueError, match="duplicate"):
            resolver.add_record(next(iter(dataset)))
        assert self._snapshot(resolver) == before


def _split(small_corpus, head_fraction=0.6):
    dataset, _persons = small_corpus
    ids = sorted(dataset.record_ids)
    pivot = int(len(ids) * head_fraction)
    head = dataset.subset(ids[:pivot], name="head")
    tail = [dataset[rid] for rid in ids[pivot:]]
    return head, tail


def _batched(records, size):
    return [records[i:i + size] for i in range(0, len(records), size)]


def _ranked_csv(resolver, path):
    resolver.resolution().to_csv(path)
    return path.read_bytes()


_CONFIG = PipelineConfig(ng=3.0, expert_weighting=True)
_CLASSIFIED_CONFIG = PipelineConfig(ng=3.0, expert_weighting=True, classify=True)


def _train_classifier(dataset):
    """An ADTree fitted on expert tags of the dataset's candidate pairs."""
    from repro.classify.training import PairClassifier
    from repro.datagen import ExpertTagger, simplify_tags

    blocking = UncertainERPipeline(_CLASSIFIED_CONFIG).block(dataset)
    labels = simplify_tags(
        ExpertTagger(dataset, seed=7).tag_pairs(sorted(blocking.candidate_pairs)),
        maybe_as=None,
    )
    return PairClassifier(dataset).fit(labels)


@pytest.fixture(scope="module")
def head_classifier(small_corpus):
    head, _tail = _split(small_corpus)
    return _train_classifier(head)


@pytest.fixture(params=["unclassified", "classified"])
def ingest(request):
    """``(config, resolver kwargs)`` for plain and classified ingestion."""
    if request.param == "unclassified":
        return _CONFIG, {}
    classifier = request.getfixturevalue("head_classifier")
    return _CLASSIFIED_CONFIG, {"classifier": classifier}


class TestBatchIngestion:
    """add_records is the streaming write path: atomic, order-faithful."""

    def test_batch_equals_sequential_adds(self, small_corpus, ingest, tmp_path):
        config, kwargs = ingest
        head, tail = _split(small_corpus)
        sequential = IncrementalResolver(head, config, **kwargs)
        for record in tail:
            sequential.add_record(record)
        batched = IncrementalResolver(head, config, **kwargs)
        for batch in _batched(tail, 7):
            batched.add_records(batch)
        assert _ranked_csv(sequential, tmp_path / "seq.csv") == _ranked_csv(
            batched, tmp_path / "batch.csv"
        )

    def test_confidences_equal_scalar_oracle(self, small_corpus, head_classifier):
        """Each classified row scores ``(candidate, new record)`` exactly as
        the scalar extractor and the model would, one pair at a time."""
        from repro.similarity.features import extract_features

        head, tail = _split(small_corpus)
        resolver = IncrementalResolver(
            head, _CLASSIFIED_CONFIG, classifier=head_classifier
        )
        model = head_classifier.model
        checked = 0
        for batch in _batched(tail, 7):
            position = {record.book_id: i for i, record in enumerate(batch)}
            for evidence in resolver.add_records(batch).produced:
                first, second = evidence.pair
                new, candidate = (
                    (first, second)
                    if position.get(first, -1) > position.get(second, -1)
                    else (second, first)
                )
                vector = extract_features(
                    resolver._records[candidate], resolver._records[new]
                )
                assert evidence.confidence == model.score(vector)
                assert evidence.confidence > _CLASSIFIED_CONFIG.classifier_threshold
                checked += 1
        assert checked > 0

    def test_item_bags_derived_once_per_new_record(
        self, small_corpus, head_classifier, monkeypatch
    ):
        """Classifying a batch reads the resolver's bags, never re-derives them."""
        from repro.records.itembag import record_to_items
        from repro.similarity import features

        head, tail = _split(small_corpus)
        resolver = IncrementalResolver(
            head, _CLASSIFIED_CONFIG, classifier=head_classifier
        )
        derived = []

        def counting(record):
            derived.append(record.book_id)
            return record_to_items(record)

        monkeypatch.setattr(incremental, "record_to_items", counting)
        monkeypatch.setattr(features, "record_to_items", counting)
        batch = tail[:8]
        result = resolver.add_records(batch)
        assert result.candidates_scored > 0
        assert result.produced  # the classifier scored the batch's pairs
        assert sorted(derived) == sorted(record.book_id for record in batch)

    def test_batch_result_fields(self, small_corpus):
        head, tail = _split(small_corpus)
        resolver = IncrementalResolver(head, _CONFIG)
        result = resolver.add_records(tail[:5])
        assert result.batch_id == 0
        assert result.added == tuple(r.book_id for r in tail[:5])
        assert result.quarantined == 0
        assert result.dirty_items > 0
        next_result = resolver.add_records(tail[5:8])
        assert next_result.batch_id == 1

    def test_duplicate_fails_fast_atomically(self, small_corpus):
        head, tail = _split(small_corpus)
        resolver = IncrementalResolver(head, _CONFIG)
        size = len(resolver)
        bad_batch = [tail[0], tail[1], tail[0]]  # intra-batch duplicate
        with pytest.raises(ValueError, match="duplicate"):
            resolver.add_records(bad_batch)
        assert len(resolver) == size
        assert tail[0].book_id not in resolver

    def test_duplicate_quarantined_rest_committed(self, small_corpus):
        head, tail = _split(small_corpus)
        resolver = IncrementalResolver(head, _CONFIG)
        quarantine = Quarantine()
        result = resolver.add_records(
            [tail[0], tail[1], tail[0]],
            policy=QuarantinePolicy.QUARANTINE,
            quarantine=quarantine,
        )
        assert result.added == (tail[0].book_id, tail[1].book_id)
        assert result.quarantined == 1
        assert quarantine.n_quarantined == 1

    def test_empty_batch_consumes_no_batch_id(self, small_corpus):
        head, _tail = _split(small_corpus)
        resolver = IncrementalResolver(head, _CONFIG)
        result = resolver.add_records([])
        assert result.batch_id == 0
        assert result.added == ()
        assert resolver.add_records([]).batch_id == 0


class TestDurability:
    """WAL-backed ingestion: commit is durable, recovery is exact."""

    def test_recover_is_byte_identical(self, small_corpus, ingest, tmp_path):
        config, kwargs = ingest
        head, tail = _split(small_corpus)
        durable = IncrementalResolver(
            head, config, wal=WriteAheadLog(tmp_path / "wal"), **kwargs
        )
        for batch in _batched(tail, 6):
            durable.add_records(batch)
        expected = _ranked_csv(durable, tmp_path / "live.csv")
        durable.wal.close()

        recovered, report = IncrementalResolver.recover(
            tmp_path / "wal", head, config, **kwargs
        )
        assert report.batches_replayed == len(_batched(tail, 6))
        assert report.records_replayed == len(tail)
        assert report.dropped_batches == ()
        assert _ranked_csv(recovered, tmp_path / "rec.csv") == expected
        recovered.wal.close()

    def test_recover_replays_the_log_as_one_batch(
        self, small_corpus, ingest, tmp_path, monkeypatch
    ):
        """A multi-segment log is replayed by one apply and one extraction."""
        config, kwargs = ingest
        head, tail = _split(small_corpus)
        batches = _batched(tail, 4)
        assert len(batches) >= 5
        durable = IncrementalResolver(
            head, config,
            wal=WriteAheadLog(tmp_path / "wal", segment_max_bytes=2048),
            **kwargs,
        )
        for batch in batches:
            durable.add_records(batch)
        expected = _ranked_csv(durable, tmp_path / "live.csv")
        durable.wal.close()
        assert len(list((tmp_path / "wal").glob("wal-*.log"))) >= 2

        extracted = []
        applied = []
        real_apply = IncrementalResolver._apply_batch

        def apply_spy(resolver, batch_id, accepted, quarantined=0):
            before = len(extracted)
            result = real_apply(resolver, batch_id, accepted, quarantined)
            applied.append((len(accepted), len(extracted) - before))
            return result

        real_extract = training.extract_features_batch

        def extract_spy(source, pairs, names=None, item_bags=None):
            extracted.append(len(pairs))
            return real_extract(source, pairs, names=names, item_bags=item_bags)

        monkeypatch.setattr(IncrementalResolver, "_apply_batch", apply_spy)
        monkeypatch.setattr(training, "extract_features_batch", extract_spy)
        recovered, report = IncrementalResolver.recover(
            tmp_path / "wal", head, config, **kwargs
        )
        # One apply over every logged record, and inside it one feature
        # extraction (none without a classifier). The base build before
        # it extracts the base pairs the training rows do not cover.
        assert applied == [(len(tail), 1 if config.classify else 0)]
        assert report.batches_replayed == len(batches)
        assert report.records_replayed == len(tail)
        assert _ranked_csv(recovered, tmp_path / "rec.csv") == expected
        recovered.wal.close()

    def test_crash_mid_batch_drops_only_the_open_batch(
        self, small_corpus, tmp_path
    ):
        head, tail = _split(small_corpus)
        batches = _batched(tail, 6)
        # Append index 2 is batch 1's begin: batch 0 must survive,
        # batch 1 must be reported dropped.
        plan = WalFaultPlan(crash_after_append=2)
        doomed = IncrementalResolver(
            head, _CONFIG, wal=WriteAheadLog(tmp_path / "wal", fault=plan)
        )
        with pytest.raises(SimulatedCrash):
            for batch in batches:
                doomed.add_records(batch)
        doomed.wal.close()

        recovered, report = IncrementalResolver.recover(
            tmp_path / "wal", head, _CONFIG
        )
        assert report.batches_replayed == 1
        assert report.dropped_batches == (1,)
        assert report.dropped_records == len(batches[1])
        assert recovered.wal_counters()["replayed"] == 1
        # The dropped batch is re-ingestable under its old id.
        result = recovered.add_records(batches[1])
        assert result.batch_id == 1
        recovered.wal.close()

    def test_fresh_resolver_refuses_wal_history(self, small_corpus, tmp_path):
        head, tail = _split(small_corpus)
        durable = IncrementalResolver(
            head, _CONFIG, wal=WriteAheadLog(tmp_path / "wal")
        )
        durable.add_records(tail[:4])
        durable.wal.close()
        with pytest.raises(ValueError, match="recover"):
            IncrementalResolver(
                head, _CONFIG, wal=WriteAheadLog(tmp_path / "wal")
            )

    def test_recover_refuses_wrong_base(self, small_corpus, tmp_path):
        dataset, _persons = small_corpus
        head, tail = _split(small_corpus)
        durable = IncrementalResolver(
            head, _CONFIG, wal=WriteAheadLog(tmp_path / "wal")
        )
        durable.add_records(tail[:4])
        durable.wal.close()
        with pytest.raises(WalError, match="fingerprint mismatch"):
            IncrementalResolver.recover(tmp_path / "wal", dataset, _CONFIG)

    def test_wal_counters_without_wal_is_empty(self, resolver):
        assert resolver.wal_counters() == {}
