"""Tests for the adversarial-schedule sanitizer (``--schedule``).

Three layers: the :class:`AdversarialScheduleExecutor` itself (hostile
order, submission-order results, seeded determinism), how the schedule
gates build their cells (through a fake runner; the compare/diff/exit
loop is the shared harness's, tests/test_gates.py), and one small
in-process end-to-end run proving the real pipeline stays
byte-identical under hostile schedules, with tracing on, and through
the classifier's rank merge.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.gates import GateConfig, run_gate, run_gates
from repro.parallel import (
    AdversarialScheduleExecutor,
    SerialExecutor,
)
from repro.sanitize import (
    SCORING_DISPATCHES,
    Cell,
    build_parser,
    inprocess_runner,
    main as sanitize_main,
    schedule_gates,
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


def schedule_config(args=()):
    from repro.sanitize import _config

    return _config(build_parser().parse_args(["--schedule", *args]))


def run_schedule(config, runner, workdir):
    results = []
    for gate in schedule_gates(config, runner):
        oracle, variants = gate.build(workdir / gate.name)
        results.append(
            run_gate(gate.name, oracle, variants, workdir / gate.name)
        )
    return results


class TestScheduleConfig:
    def test_defaults_are_valid(self):
        config = schedule_config()
        assert config.persons == 120
        assert config.seeds == (1, 2, 3)
        assert config.workers == (1, 2, 4)

    def test_rejects_tiny_corpus(self, capsys):
        assert sanitize_main(["--schedule", "--persons", "1"]) == 2
        assert "persons" in capsys.readouterr().err

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="--schedule-seeds"):
            schedule_config(["--schedule-seeds", "0"])

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError, match="worker counts"):
            schedule_config(["--schedule-workers", "2,0"])


class TestRunScheduleSanitizeWithFakeRunner:
    def test_identical_outputs_pass(self, tmp_path):
        calls = []

        def runner(cell):
            calls.append(cell)
            return "header\nrow\n"

        config = GateConfig(seeds=(1, 2), workers=(1, 2))
        plain, classified = run_schedule(config, runner, tmp_path)
        assert plain.ok and classified.ok
        assert plain.diff is None
        # Serial oracle first, then the seed x workers matrix, then the
        # traced cells; the classified gate's oracle, then one hostile
        # classified cell per seed at the widest worker count.
        assert calls == [
            Cell(), Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(2, 2),
            Cell(None, 1, traced=True), Cell(None, 2, traced=True),
            Cell(classify=True), Cell(1, 2, classify=True),
            Cell(2, 2, classify=True),
        ]
        assert [r.label for r in plain.runs][-2:] == [
            "traced workers=1", "traced workers=2"
        ]
        assert classified.oracle == "classified serial"

    def test_divergent_cell_detected_with_diff(self, tmp_path):
        def runner(cell):
            if cell.seed == 2 and cell.workers == 4:
                return "header\nother\n"
            return "header\nrow\n"

        config = GateConfig(seeds=(1, 2), workers=(1, 4))
        plain, classified = run_schedule(config, runner, tmp_path)
        assert [r.label for r in plain.runs if not r.ok] == [
            "schedule_seed=2 workers=4"
        ]
        assert "--- serial" in plain.diff
        assert "+++ schedule_seed=2 workers=4" in plain.diff
        assert "+other" in plain.diff
        assert [r.label for r in classified.runs if not r.ok] == [
            "classified schedule_seed=2 workers=4"
        ]

    def test_diff_keeps_first_divergence(self, tmp_path):
        def runner(cell):
            return "base\n" if cell.seed is None else f"seed{cell.seed}\n"

        config = GateConfig(seeds=(1, 2), workers=(1,))
        plain, _ = run_schedule(config, runner, tmp_path)
        assert [r.status for r in plain.runs] == [
            "DIVERGED", "DIVERGED", "identical", "identical"
        ]
        assert "+seed1" in plain.diff
        assert "+seed2" not in plain.diff

    def test_write_diff(self, tmp_path):
        def runner(cell):
            return "x\n" if cell.seed is None else "y\n"

        out = tmp_path / "schedule.diff"
        config = GateConfig(seeds=(1,), workers=(2,))
        gates = schedule_gates(config, runner)
        assert run_gates(
            "repro sanitize", gates, artifacts_dir=tmp_path / "artifacts",
            diff_out=out,
        ) == 1
        diff = out.read_text(encoding="utf-8")
        assert "--- serial" in diff
        assert "+++ schedule_seed=1 workers=2" in diff
        assert diff == (
            tmp_path / "artifacts" / "schedule" / "divergence.patch"
        ).read_text(encoding="utf-8")


class TestEndToEnd:
    def test_small_resolution_schedule_invariant(self, tmp_path):
        # One hostile seed over two worker counts on the default corpus,
        # the smallest that dispatches pair scoring; the full 3x{1,2,4}
        # matrix runs in CI via `repro sanitize --schedule`.
        config = GateConfig(persons=120, seeds=(1,), workers=(1, 2))
        shuffled = set()
        plain, classified = run_schedule(
            config, inprocess_runner(config.persons, shuffled), tmp_path
        )
        assert plain.ok, plain.diff
        assert classified.ok, classified.diff
        assert plain.text.startswith(
            "book_id_a,book_id_b,similarity,confidence\n"
        )
        # Two hostile cells and the two traced cells; one classified.
        assert len(plain.runs) == 4
        assert len(classified.runs) == 1
        # Both scoring merges really ran in a hostile order, not just
        # the mining shards.
        assert shuffled == {*SCORING_DISPATCHES, "fpgrowth.shards"}

    def test_tiny_corpus_never_shuffles_scoring(self, tmp_path):
        config = GateConfig(persons=16, seeds=(1,), workers=(2,))
        shuffled = set()
        results = run_schedule(
            config, inprocess_runner(config.persons, shuffled), tmp_path
        )
        assert all(result.ok for result in results)
        assert not shuffled & set(SCORING_DISPATCHES)

    def test_cli_refuses_a_sweep_that_shuffled_no_scoring(self, capsys):
        assert sanitize_main(
            [
                "--schedule", "--schedule-seeds", "1",
                "--schedule-workers", "2", "--persons", "16",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert all(dispatch in err for dispatch in SCORING_DISPATCHES)


class TestCommandLine:
    def test_bad_schedule_workers_exit_2(self, capsys):
        assert sanitize_main(
            ["--schedule", "--schedule-workers", "two"]
        ) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_bad_schedule_seeds_exit_2(self, capsys):
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
        argv = [
            "--schedule", "--schedule-seeds", "2",
            "--schedule-workers", "1,2", "--persons", "24",
        ]
        assert cli_main(["sanitize", *argv]) == 0
        assert received["argv"] == argv
