"""Tests for the adversarial-schedule sanitizer (``--schedule``).

Three layers: the :class:`AdversarialScheduleExecutor` itself (hostile
order, submission-order results, seeded determinism), the
``run_schedule_sanitize`` comparison logic through a fake runner, and
one small in-process end-to-end run proving the real pipeline stays
byte-identical under hostile schedules.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.parallel import (
    AdversarialScheduleExecutor,
    SerialExecutor,
)
from repro.sanitize import (
    SCORING_DISPATCH,
    ScheduleConfig,
    ScheduleResult,
    ScheduleRun,
    inprocess_schedule_runner,
    run_schedule_sanitize,
)


def double(chunk):
    return [x * 2 for x in chunk]


class TestAdversarialScheduleExecutor:
    def test_results_in_submission_order(self):
        executor = AdversarialScheduleExecutor(workers=4, schedule_seed=1)
        chunks = [[1], [2], [3], [4], [5], [6], [7], [8]]
        assert executor.map_chunks(double, chunks) == [
            [2], [4], [6], [8], [10], [12], [14], [16]
        ]

    def test_schedule_actually_permutes(self):
        executor = AdversarialScheduleExecutor(workers=4, schedule_seed=1)
        executor.map_chunks(double, [[i] for i in range(16)])
        (order,) = executor.schedule_log
        assert sorted(order) == list(range(16))
        assert order != list(range(16))

    def test_same_seed_same_schedule(self):
        logs = []
        for _ in range(2):
            executor = AdversarialScheduleExecutor(workers=2, schedule_seed=7)
            executor.map_chunks(double, [[i] for i in range(12)])
            executor.map_chunks(double, [[i] for i in range(12)])
            logs.append(executor.schedule_log)
        assert logs[0] == logs[1]

    def test_different_seeds_differ(self):
        orders = []
        for seed in (1, 2):
            executor = AdversarialScheduleExecutor(
                workers=2, schedule_seed=seed
            )
            executor.map_chunks(double, [[i] for i in range(16)])
            orders.append(executor.schedule_log[0])
        assert orders[0] != orders[1]

    def test_dispatches_within_one_run_differ(self):
        executor = AdversarialScheduleExecutor(workers=2, schedule_seed=3)
        executor.map_chunks(double, [[i] for i in range(16)])
        executor.map_chunks(double, [[i] for i in range(16)])
        first, second = executor.schedule_log
        assert first != second

    def test_matches_serial_reference(self):
        chunks = [[i, i + 1] for i in range(0, 20, 2)]
        serial = SerialExecutor().map_chunks(double, chunks)
        hostile = AdversarialScheduleExecutor(
            workers=4, schedule_seed=5
        ).map_chunks(double, chunks)
        assert hostile == serial

    def test_empty_payload(self):
        executor = AdversarialScheduleExecutor(workers=2, schedule_seed=1)
        assert executor.map_chunks(double, []) == []
        assert executor.schedule_log == [[]]

    def test_labels_logged_per_dispatch(self):
        executor = AdversarialScheduleExecutor(workers=2, schedule_seed=1)
        executor.map_chunks(double, [[1], [2]], label="a")
        executor.map_chunks(double, [])
        assert executor.label_log == ["a", "parallel.map"]
        assert len(executor.label_log) == len(executor.schedule_log)

    def test_stats_and_plan(self):
        executor = AdversarialScheduleExecutor(workers=3, schedule_seed=1)
        executor.map_chunks(double, [[1], [2], [3]])
        assert executor.stats.map_calls == 1
        assert executor.stats.chunks == 3
        assert executor.stats.inline_chunks == 3
        assert executor.parallel
        # The chunk plan follows the worker count exactly like the pool.
        assert len(executor.plan_chunks(list(range(9)))) == 3


class TestScheduleConfig:
    def test_defaults_are_valid(self):
        config = ScheduleConfig()
        assert config.schedule_seeds == (1, 2, 3)
        assert config.worker_counts == (1, 2, 4)

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError):
            ScheduleConfig(persons=1)

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError):
            ScheduleConfig(schedule_seeds=())

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            ScheduleConfig(worker_counts=(2, 0))


class TestRunScheduleSanitizeWithFakeRunner:
    def test_identical_outputs_pass(self):
        calls = []

        def runner(seed, workers):
            calls.append((seed, workers))
            return "header\nrow\n"

        config = ScheduleConfig(
            schedule_seeds=(1, 2), worker_counts=(1, 2)
        )
        result = run_schedule_sanitize(config, runner=runner)
        assert result.ok
        assert result.diff is None
        # Baseline first (serial reference), then the full matrix.
        assert calls == [
            (None, 1), (1, 1), (1, 2), (2, 1), (2, 2)
        ]
        assert len(result.runs) == 4

    def test_divergent_cell_detected_with_diff(self):
        def runner(seed, workers):
            if seed == 2 and workers == 4:
                return "header\nother\n"
            return "header\nrow\n"

        config = ScheduleConfig(
            schedule_seeds=(1, 2), worker_counts=(1, 4)
        )
        result = run_schedule_sanitize(config, runner=runner)
        assert not result.ok
        assert result.divergent_cells == [(2, 4)]
        assert result.diff is not None
        assert "schedule_seed=2 workers=4" in result.diff
        assert "+other" in result.diff

    def test_diff_keeps_first_divergence(self):
        def runner(seed, workers):
            if seed is None:
                return "base\n"
            return f"seed{seed}\n"

        config = ScheduleConfig(schedule_seeds=(1, 2), worker_counts=(1,))
        result = run_schedule_sanitize(config, runner=runner)
        assert result.divergent_cells == [(1, 1), (2, 1)]
        assert "+seed1" in result.diff
        assert "+seed2" not in result.diff

    def test_write_diff(self, tmp_path: Path):
        result = ScheduleResult(baseline_output="x\n", diff="the diff")
        result.runs.append(
            ScheduleRun(
                schedule_seed=1, workers=2,
                matches_baseline=False, n_lines=1,
            )
        )
        out = tmp_path / "schedule.diff"
        result.write_diff(out)
        assert out.read_text(encoding="utf-8") == "the diff"


class TestEndToEnd:
    def test_small_resolution_schedule_invariant(self):
        # One hostile seed over two worker counts on the default corpus,
        # the smallest that dispatches pair scoring; the full 3x{1,2,4}
        # matrix runs in CI via `repro sanitize --schedule`.
        config = ScheduleConfig(schedule_seeds=(1,), worker_counts=(1, 2))
        shuffled = set()
        result = run_schedule_sanitize(
            config, runner=inprocess_schedule_runner(config, shuffled)
        )
        assert result.ok, result.diff
        assert result.baseline_output.startswith(
            "book_id_a,book_id_b,similarity\n"
        )
        assert len(result.runs) == 2
        # The scoring max-merge really ran in a hostile order, not just
        # the mining shards.
        assert shuffled == {SCORING_DISPATCH, "fpgrowth.shards"}

    def test_tiny_corpus_never_shuffles_scoring(self):
        config = ScheduleConfig(
            persons=16, schedule_seeds=(1,), worker_counts=(2,)
        )
        shuffled = set()
        assert run_schedule_sanitize(
            config, runner=inprocess_schedule_runner(config, shuffled)
        ).ok
        assert SCORING_DISPATCH not in shuffled

    def test_cli_refuses_a_sweep_that_shuffled_no_scoring(self, capsys):
        from repro.sanitize import main as sanitize_main

        assert sanitize_main(
            [
                "--schedule", "--schedule-seeds", "1",
                "--schedule-workers", "2", "--persons", "16",
            ]
        ) == 2
        assert SCORING_DISPATCH in capsys.readouterr().err


class TestCommandLine:
    def test_bad_schedule_workers_exit_2(self, capsys):
        from repro.sanitize import main as sanitize_main

        assert sanitize_main(
            ["--schedule", "--schedule-workers", "two"]
        ) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_bad_schedule_seeds_exit_2(self, capsys):
        from repro.sanitize import main as sanitize_main

        assert sanitize_main(
            ["--schedule", "--schedule-seeds", "0"]
        ) == 2

    def test_repro_cli_wires_schedule_flags(self, monkeypatch):
        received = {}

        def fake_main(argv):
            received["argv"] = argv
            return 0

        import repro.sanitize

        monkeypatch.setattr(repro.sanitize, "main", fake_main)
        exit_code = cli_main(
            [
                "sanitize", "--schedule", "--schedule-seeds", "2",
                "--schedule-workers", "1,2", "--persons", "24",
            ]
        )
        assert exit_code == 0
        argv = received["argv"]
        assert "--schedule" in argv
        assert argv[argv.index("--schedule-seeds") + 1] == "2"
        assert argv[argv.index("--schedule-workers") + 1] == "1,2"
        assert argv[argv.index("--persons") + 1] == "24"
