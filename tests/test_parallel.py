"""Parity harness for the deterministic parallel execution layer.

The parallel layer's contract (docs/PARALLELISM.md) is *determinism by
merge, not by schedule*: ``--workers N`` must produce output
byte-identical to ``--workers 1`` for every N, every chunk size, and
every interleaving the OS scheduler picks — including runs resumed from
checkpoints written under a *different* worker count, runs degraded by
a stage budget, and runs where a worker is killed mid-chunk.

This file pins that contract three ways:

* unit tests for the chunk planner and both executors (submission-order
  collection, inline shortcut, crash retry, stats accounting);
* a serial-vs-parallel parity matrix over corpus sizes x worker counts
  x chunk sizes, comparing the full ranked CSV bytes;
* cross-cutting parity: checkpoint resume across worker counts, budget
  degradation, the run-report ``parallel`` block, and the CLI flags.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core import PipelineConfig, UncertainERPipeline
from repro.core.pipeline import PIPELINE_STAGES
from repro.datagen import ExpertTagger, build_corpus, simplify_tags
from repro.obs import Tracer
from repro.parallel import (
    MultiprocessExecutor,
    SerialExecutor,
    fixed_chunks,
    make_executor,
    partition_evenly,
)
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    StageBudget,
    WorkerCrashPlan,
    WorkerHangPlan,
)

CONFIG = dict(max_minsup=4, ng=3.0, expert_weighting=True)


def _square_chunk(chunk):
    """Module-level (picklable) work function for executor unit tests."""
    return [value * value for value in chunk]


def _sum_chunk(chunk):
    return sum(chunk)


def _resolve_csv(dataset, executor, tmp_path, tag, config=None):
    """Run the full pipeline under ``executor``; return ranked CSV bytes."""
    pipeline = UncertainERPipeline(
        PipelineConfig(**(config or CONFIG)), executor=executor
    )
    out = tmp_path / f"{tag}.csv"
    pipeline.run(dataset).to_csv(out)
    return out.read_bytes()


# -- chunk planning -----------------------------------------------------------


class TestChunking:
    def test_partition_evenly_is_a_balanced_partition(self):
        items = list(range(10))
        chunks = partition_evenly(items, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == items

    def test_partition_evenly_clamps_to_item_count(self):
        assert partition_evenly([1, 2], 8) == [[1], [2]]
        assert partition_evenly([], 4) == []

    def test_fixed_chunks_splits_by_size(self):
        assert fixed_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert fixed_chunks([], 3) == []

    def test_chunking_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            partition_evenly([1], 0)
        with pytest.raises(ValueError):
            fixed_chunks([1], 0)


# -- executors ----------------------------------------------------------------


class TestExecutors:
    def test_make_executor_dispatches_on_worker_count(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        parallel = make_executor(3, chunk_size=5)
        assert isinstance(parallel, MultiprocessExecutor)
        assert parallel.workers == 3
        assert parallel.chunk_size == 5
        assert parallel.parallel
        assert not make_executor(1).parallel

    def test_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(0)
        with pytest.raises(ValueError):
            MultiprocessExecutor(2, chunk_size=0)

    def test_plan_chunks_prefers_fixed_size_when_configured(self):
        items = list(range(9))
        assert SerialExecutor().plan_chunks(items) == [items]
        assert MultiprocessExecutor(2).plan_chunks(items) == [
            items[:5], items[5:]
        ]
        assert MultiprocessExecutor(2, chunk_size=4).plan_chunks(items) == [
            items[:4], items[4:8], items[8:]
        ]

    def test_serial_map_preserves_submission_order_and_counts(self):
        executor = SerialExecutor()
        payloads = [[3, 1], [2], [5, 4]]
        assert executor.map_chunks(_square_chunk, payloads) == [
            [9, 1], [4], [25, 16]
        ]
        assert executor.stats.map_calls == 1
        assert executor.stats.chunks == 3
        assert executor.stats.inline_chunks == 3
        assert executor.stats.worker_chunks == 0

    def test_multiprocess_map_matches_serial(self, closing):
        payloads = [list(range(i, i + 4)) for i in range(0, 24, 4)]
        serial = SerialExecutor().map_chunks(_square_chunk, payloads)
        executor = closing(MultiprocessExecutor(2))
        assert executor.map_chunks(_square_chunk, payloads) == serial
        assert executor.stats.worker_chunks == len(payloads)
        assert executor.stats.worker_retries == 0

    def test_multiprocess_single_chunk_runs_inline(self, closing):
        executor = closing(MultiprocessExecutor(4))
        assert executor.map_chunks(_sum_chunk, [[1, 2, 3]]) == [6]
        assert executor.stats.inline_chunks == 1
        assert executor.stats.worker_chunks == 0

    def test_empty_payload_list_is_a_noop(self, closing):
        executor = closing(MultiprocessExecutor(2))
        assert executor.map_chunks(_sum_chunk, []) == []
        assert executor.stats.map_calls == 1
        assert executor.stats.chunks == 0

    def test_worker_crash_is_retried_deterministically(self, closing):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        expected = SerialExecutor().map_chunks(_square_chunk, payloads)
        plan = WorkerCrashPlan(map_call=0, chunk=0)
        executor = closing(MultiprocessExecutor(2, worker_fault=plan))
        assert executor.map_chunks(_square_chunk, payloads) == expected
        assert plan.fired
        assert executor.stats.kills_armed == 1
        # The killed chunk — plus any siblings lost with the broken
        # pool — is recomputed in-process.
        assert executor.stats.worker_retries >= 1
        assert (
            executor.stats.worker_chunks + executor.stats.worker_retries
            == len(payloads)
        )

    def test_worker_crash_plan_fires_exactly_once(self):
        plan = WorkerCrashPlan(map_call=1, chunk=2)
        assert not plan.should_kill(0, 2)
        assert not plan.should_kill(1, 1)
        assert plan.should_kill(1, 2)
        assert plan.fired
        assert not plan.should_kill(1, 2)
        with pytest.raises(ValueError):
            WorkerCrashPlan(map_call=-1)

    def test_hung_worker_times_out_and_is_retried(self, closing):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        expected = SerialExecutor().map_chunks(_square_chunk, payloads)
        plan = WorkerHangPlan(map_call=0, chunk=1, seconds=30.0)
        executor = closing(MultiprocessExecutor(2, timeout=0.5, worker_hang=plan))
        assert executor.map_chunks(_square_chunk, payloads) == expected
        assert plan.fired
        assert executor.stats.hangs_armed == 1
        assert executor.stats.chunks_timed_out == 1
        assert executor.stats.worker_retries >= 1

    def test_hung_worker_timeout_traced(self, closing):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        expected = SerialExecutor().map_chunks(_square_chunk, payloads)
        plan = WorkerHangPlan(map_call=0, chunk=0, seconds=30.0)
        executor = closing(MultiprocessExecutor(2, timeout=0.5, worker_hang=plan))
        tracer = Tracer()
        assert (
            executor.map_chunks(_square_chunk, payloads, tracer=tracer)
            == expected
        )
        tracer.close()
        counters = tracer.aggregate.counters
        assert counters["parallel.chunks_timed_out"] == 1
        assert counters["parallel.worker_retries"] >= 1
        assert executor.stats.chunks_timed_out == 1

    def test_timeout_without_hang_changes_nothing(self, closing):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        expected = SerialExecutor().map_chunks(_square_chunk, payloads)
        executor = closing(MultiprocessExecutor(2, timeout=60.0))
        assert executor.map_chunks(_square_chunk, payloads) == expected
        assert executor.stats.chunks_timed_out == 0
        assert executor.stats.worker_retries == 0

    @pytest.mark.parametrize("fault", ["none", "crash", "hang"])
    def test_tracing_takes_the_untraced_route(self, fault):
        """Tracer {off, on} x fault: same results, same dispatch stats.

        Faulted dispatches are one chunk, so which chunks a broken pool
        loses is not a scheduling race.
        """
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        if fault != "none":
            payloads = payloads[:1]
        expected = SerialExecutor().map_chunks(_square_chunk, payloads)
        runs = []
        for tracer in (None, Tracer()):
            options = {}
            if fault == "crash":
                options["worker_fault"] = WorkerCrashPlan(map_call=0, chunk=0)
            elif fault == "hang":
                options["timeout"] = 0.5
                options["worker_hang"] = WorkerHangPlan(
                    map_call=0, chunk=0, seconds=30.0
                )
            executor = MultiprocessExecutor(2, **options)
            try:
                results = executor.map_chunks(
                    _square_chunk, payloads, tracer=tracer
                )
            finally:
                executor.close()
            runs.append((results, executor.stats.to_echo()))
            assert bool(executor.profile.dispatches) == (tracer is not None)
        (untraced, untraced_stats), (traced, traced_stats) = runs
        assert untraced == traced == expected
        assert untraced_stats == traced_stats
        if fault != "none":
            assert traced_stats["worker_retries"] == 1

    def test_timeout_and_hang_plan_validation(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(2, timeout=0.0)
        with pytest.raises(ValueError):
            WorkerHangPlan(seconds=0.0)
        with pytest.raises(ValueError):
            WorkerHangPlan(map_call=-1)
        plan = WorkerHangPlan(map_call=0, chunk=1)
        assert not plan.should_hang(0, 0)
        assert plan.should_hang(0, 1)
        assert not plan.should_hang(0, 1)  # fires exactly once


# -- serial-vs-parallel parity matrix -----------------------------------------


class TestResolutionParity:
    """The headline guarantee: ranked output bytes ignore the executor."""

    @pytest.fixture(scope="class")
    def corpora(self):
        return {
            persons: build_corpus(
                n_persons=persons, communities=("italy",), seed=23
            )[0]
            for persons in (24, 48)
        }

    @pytest.fixture(scope="class")
    def serial_csv(self, corpora, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serial")
        return {
            persons: _resolve_csv(
                dataset, SerialExecutor(), tmp, f"serial_{persons}"
            )
            for persons, dataset in corpora.items()
        }

    @pytest.mark.usefixtures("dispatch_small_scoring")
    @pytest.mark.parametrize("persons", [24, 48])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_parallel_bytes_equal_serial(
        self, corpora, serial_csv, tmp_path, persons, workers, chunk_size, closing
    ):
        executor = closing(make_executor(workers, chunk_size=chunk_size))
        parallel = _resolve_csv(
            corpora[persons], executor, tmp_path, "parallel"
        )
        assert parallel == serial_csv[persons]
        # The run really went through the pool, not a serial fallback.
        assert executor.stats.worker_chunks > 0

    @pytest.mark.usefixtures("dispatch_small_scoring")
    def test_classified_run_ranks_serially_under_a_pool(
        self, corpora, tmp_path
    ):
        """Only blocking's pair scoring reaches the pool: a classified
        2-worker run returns the serial CSV, and its traced profile
        lists no dispatch but ``mfiblocks.score_pairs``."""
        dataset = corpora[24]
        config = PipelineConfig(**CONFIG, classify=True)
        blocking = UncertainERPipeline(config).block(dataset)
        labels = simplify_tags(
            ExpertTagger(dataset, seed=9).tag_pairs(
                sorted(blocking.candidate_pairs)
            ),
            maybe_as=False,
        )
        csv, profile = {}, {}
        for workers in (1, 2):
            executor = make_executor(workers)
            tracer = Tracer()
            resolution = UncertainERPipeline(
                config, tracer=tracer, executor=executor
            ).run(dataset, labeled_pairs=labels)
            tracer.close()
            executor.close()
            out = tmp_path / f"w{workers}.csv"
            resolution.to_csv(out)
            csv[workers] = out.read_bytes()
            profile[workers] = resolution.report.parallel_profile
        assert csv[2] == csv[1]
        assert {
            dispatch["label"] for dispatch in profile[2]["dispatches"]
        } == {"mfiblocks.score_pairs"}

    @pytest.mark.usefixtures("dispatch_small_scoring")
    def test_worker_crash_resolution_parity(
        self, corpora, serial_csv, tmp_path, closing
    ):
        plan = WorkerCrashPlan(map_call=1, chunk=0)
        executor = closing(MultiprocessExecutor(2, worker_fault=plan))
        parallel = _resolve_csv(corpora[24], executor, tmp_path, "crashed")
        assert parallel == serial_csv[24]
        assert plan.fired
        assert executor.stats.worker_retries >= 1


# -- checkpoints, budgets, reports, CLI ---------------------------------------


class TestCrossCuttingParity:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(n_persons=40, communities=("italy",), seed=23)[0]

    @pytest.fixture(scope="class")
    def serial_csv(self, corpus, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serial")
        return _resolve_csv(corpus, SerialExecutor(), tmp, "serial")

    @pytest.mark.parametrize(
        "write_workers,resume_workers", [(1, 2), (2, 1), (2, 4)]
    )
    def test_resume_under_different_worker_count(
        self, corpus, serial_csv, tmp_path, write_workers, resume_workers, closing
    ):
        """Fingerprints carry no worker count: checkpoint anywhere,
        resume anywhere, same bytes."""
        store_dir = tmp_path / "checkpoints"
        with pytest.raises(SimulatedCrash):
            UncertainERPipeline(
                PipelineConfig(**CONFIG),
                executor=closing(make_executor(write_workers)),
            ).run(
                corpus,
                checkpoints=CheckpointStore(store_dir),
                faults=FaultInjector(
                    FaultPlan(crash_after_stage=PIPELINE_STAGES[0])
                ),
            )

        store = CheckpointStore(store_dir)
        resumed = UncertainERPipeline(
            PipelineConfig(**CONFIG),
            executor=closing(make_executor(resume_workers)),
        ).run(corpus, checkpoints=store, resume=True)
        assert store.hits == [PIPELINE_STAGES[0]]
        out = tmp_path / "resumed.csv"
        resumed.to_csv(out)
        assert out.read_bytes() == serial_csv

    def test_budgeted_run_degrades_identically_in_parallel(
        self, corpus, tmp_path, closing
    ):
        """A budget defines its cut by serial visit order, so budgeted
        mining stays serial under any executor — and stays degraded."""
        config = dict(CONFIG, blocking_budget=StageBudget(max_iterations=1))
        serial = _resolve_csv(
            corpus, SerialExecutor(), tmp_path, "budget_serial", config=config
        )
        executor = closing(make_executor(2))
        parallel = _resolve_csv(
            corpus, executor, tmp_path, "budget_parallel", config=config
        )
        assert parallel == serial

    @pytest.mark.usefixtures("dispatch_small_scoring")
    def test_report_carries_parallel_block(self, corpus, closing):
        tracer = Tracer()
        executor = closing(make_executor(2))
        resolution = UncertainERPipeline(
            PipelineConfig(**CONFIG), tracer=tracer, executor=executor
        ).run(corpus)
        tracer.close()
        report = resolution.report
        assert report is not None
        assert report.parallel["executor"] == "multiprocess"
        assert report.parallel["workers"] == 2
        assert report.parallel["chunks"] > 0
        assert report.parallel["map_calls"] > 0
        # Round trip: the block survives to_dict/from_dict (schema v1
        # treats it as additive, like `resilience`).
        from repro.obs import RunReport

        assert RunReport.from_dict(report.to_dict()).parallel == (
            report.parallel
        )

    def test_miner_counters_ignore_the_executor(self, corpus, closing):
        """Mining is serial under every executor: a 2-worker traced run
        reports the serial run's FP-growth counters and tree gauge."""
        counters = (
            "fpgrowth.trees_built", "fpgrowth.heads_pruned",
            "fpgrowth.mfis", "fpgrowth.transactions",
        )
        readings = []
        for executor in (SerialExecutor(), closing(make_executor(2))):
            tracer = Tracer()
            report = UncertainERPipeline(
                PipelineConfig(**CONFIG), tracer=tracer, executor=executor
            ).run(corpus).report
            tracer.close()
            readings.append((
                {name: report.counters.get(name) for name in counters},
                report.gauges.get("fpgrowth.tree_nodes"),
            ))
        serial, parallel = readings
        assert None not in serial[0].values() and serial[1] is not None
        assert parallel == serial

    def test_serial_report_echoes_one_worker(self, corpus):
        tracer = Tracer()
        resolution = UncertainERPipeline(
            PipelineConfig(**CONFIG), tracer=tracer
        ).run(corpus)
        tracer.close()
        assert resolution.report is not None
        assert resolution.report.parallel["executor"] == "serial"
        assert resolution.report.parallel["workers"] == 1

    def test_cli_workers_flag_is_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        assert cli_main([
            "generate", "--persons", "40", "--communities", "italy",
            "--seed", "23", "--out", str(corpus),
        ]) == 0
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"ranked_w{workers}.csv"
            report = tmp_path / f"report_w{workers}.json"
            assert cli_main([
                "resolve", str(corpus), "--ng", "3.0", "--max-minsup", "4",
                "--expert-weighting", "--workers", str(workers),
                "--chunk-size", "16",
                "--out", str(out), "--report", str(report),
            ]) == 0
            outputs[workers] = out.read_bytes()
            payload = json.loads(report.read_text())
            assert payload["parallel"]["workers"] == workers
        assert outputs[2] == outputs[1]
