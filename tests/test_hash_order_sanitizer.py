"""Tests for the hash-seed gate (repro.sanitize, default mode).

The compare/diff/exit loop is the shared harness's (tests/test_gates.py);
these tests cover how the hash-seed entry builds its oracle and
variants, through an injectable runner. One end-to-end test actually
spawns ``python -m repro.sanitize --emit`` children under permuted
PYTHONHASHSEED values and asserts the ranked resolution output is
byte-identical — the dynamic complement of reprolint's static
RL002/RL10x checks.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.gates import GateConfig, GateFailure, run_gate, run_gates
from repro.sanitize import (
    Cell,
    hash_seed_gate,
    main as sanitize_main,
    resolve_cell,
    subprocess_runner,
)

HEADER = "book_id_a,book_id_b,similarity,confidence"


def small_config(**overrides) -> GateConfig:
    defaults = dict(persons=24, seeds=(1, 2))
    defaults.update(overrides)
    return GateConfig(**defaults)


def run_hash_gate(config, runner, workdir):
    gate = hash_seed_gate(config, runner)
    oracle, variants = gate.build(workdir)
    return run_gate(gate.name, oracle, variants, workdir)


def by_seed(outputs):
    return lambda cell: outputs[cell.seed]


class TestSanitizeConfig:
    def test_defaults_are_valid(self, tmp_path):
        oracle, variants = hash_seed_gate(GateConfig()).build(tmp_path)
        assert oracle.label == "PYTHONHASHSEED=0 workers=1"
        assert [v.label for v in variants] == [
            f"PYTHONHASHSEED={seed} workers=1" for seed in (1, 2, 3)
        ]

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError, match="persons"):
            GateConfig(persons=1)

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="seed"):
            GateConfig(seeds=())

    def test_rejects_baseline_among_seeds(self):
        with pytest.raises(ValueError, match="baseline"):
            hash_seed_gate(GateConfig(seeds=(0, 1)))


class TestRunSanitizeWithFakeRunner:
    def test_identical_outputs_pass(self, tmp_path):
        result = run_hash_gate(
            small_config(), lambda cell: "a,b\n1,2\n", tmp_path
        )
        assert result.ok
        assert result.diff is None
        assert [r.status for r in result.runs] == ["identical", "identical"]

    def test_divergent_seed_detected_with_diff(self, tmp_path):
        def runner(cell: Cell) -> str:
            return "header\nrow-1\n" if cell.seed != 2 else "header\nrow-2\n"

        result = run_hash_gate(small_config(), runner, tmp_path)
        assert not result.ok
        assert [r.label for r in result.runs if not r.ok] == [
            "PYTHONHASHSEED=2 workers=1"
        ]
        assert "--- PYTHONHASHSEED=0" in result.diff
        assert "+++ PYTHONHASHSEED=2" in result.diff
        assert "-row-1" in result.diff and "+row-2" in result.diff

    def test_diff_keeps_first_divergence(self, tmp_path):
        outputs = {0: "base\n", 1: "one\n", 2: "two\n"}
        result = run_hash_gate(small_config(), by_seed(outputs), tmp_path)
        assert [r.status for r in result.runs] == ["DIVERGED", "DIVERGED"]
        assert "+one" in result.diff  # first diverging seed wins
        assert "+two" not in result.diff

    def test_runner_called_once_per_seed(self, tmp_path):
        calls = []

        def runner(cell: Cell) -> str:
            calls.append((cell.seed, cell.workers))
            return "same\n"

        config = small_config(seeds=(3, 5, 9), workers=(2,))
        run_hash_gate(config, runner, tmp_path)
        assert calls == [(0, 2), (3, 2), (5, 2), (9, 2)]

    def test_write_diff(self, tmp_path):
        result = run_hash_gate(
            small_config(seeds=(1,)), lambda cell: f"row-{cell.seed}\n",
            tmp_path,
        )
        assert "+row-1" in (tmp_path / "divergence.patch").read_text()
        assert result.diff_path == tmp_path / "divergence.patch"

    def test_write_diff_empty_when_clean(self, tmp_path):
        target = tmp_path / "sanitize.diff"
        gate = hash_seed_gate(small_config(), lambda cell: "ok\n")
        assert run_gates("repro sanitize", [gate], diff_out=target) == 0
        assert target.read_text() == ""

    def test_planted_divergence_exits_1_with_named_diff(self, tmp_path):
        target = tmp_path / "sanitize.diff"
        gate = hash_seed_gate(
            small_config(), by_seed({0: "h\na\n", 1: "h\na\n", 2: "h\nb\n"})
        )
        assert run_gates(
            "repro sanitize", [gate], artifacts_dir=tmp_path / "artifacts",
            diff_out=target,
        ) == 1
        diff = target.read_text()
        assert "--- PYTHONHASHSEED=0 workers=1" in diff
        assert "+++ PYTHONHASHSEED=2 workers=1" in diff


class TestEmitResolution:
    def test_emits_ranked_csv(self):
        output = resolve_cell(24, Cell())
        lines = output.splitlines()
        assert lines[0] == HEADER
        assert len(lines) > 1
        first = lines[1].split(",")
        assert len(first) == 4
        assert len(first[2].split(".")[1]) == 6  # similarity at 6 decimals

    def test_emit_is_stable_in_process(self):
        assert resolve_cell(24, Cell()) == resolve_cell(24, Cell())


class TestEndToEnd:
    def test_subprocess_runs_are_byte_identical(self, tmp_path):
        """The real thing: two children under different hash seeds."""
        config = small_config(seeds=(1,), persons=20)
        result = run_hash_gate(config, subprocess_runner(config), tmp_path)
        assert result.ok, f"hash-order divergence:\n{result.diff}"
        assert result.text.count("\n") > 1

    def test_child_failure_raises_with_stderr(self, tmp_path, monkeypatch):
        fake_python = tmp_path / "python"
        fake_python.write_text("#!/bin/sh\necho 'boom: no corpus' >&2\nexit 3\n")
        fake_python.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(fake_python))
        runner = subprocess_runner(small_config(persons=20))
        with pytest.raises(GateFailure, match="PYTHONHASHSEED=0") as excinfo:
            runner(Cell(0))
        assert "exited 3" in str(excinfo.value)
        assert "boom: no corpus" in str(excinfo.value)


class TestCommandLine:
    def test_bad_seeds_exit_2(self, capsys):
        assert sanitize_main(["--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_emit_mode_prints_csv(self, capsys):
        code = sanitize_main(["--emit", "--persons", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(HEADER + "\n")

    def test_repro_cli_wires_sanitize(self, monkeypatch, tmp_path):
        """`repro sanitize` hands its argv to repro.sanitize.main as is."""
        captured = {}

        def fake_main(argv):
            captured["argv"] = list(argv)
            return 0

        monkeypatch.setattr("repro.sanitize.main", fake_main)
        argv = [
            "--seeds", "2", "--persons", "20", "--workers", "2",
            "--diff-out", str(tmp_path / "d.diff"),
        ]
        assert cli_main(["sanitize", *argv]) == 0
        assert captured["argv"] == argv

    def test_module_entrypoint_exit_codes(self):
        """python -m repro.sanitize returns 2 on bad usage."""
        env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for bad in (["--seeds", "-1"], ["--communities", "bogus"]):
            completed = subprocess.run(
                [sys.executable, "-m", "repro.sanitize", *bad],
                capture_output=True, text=True, env=env,
            )
            assert completed.returncode == 2, completed.stderr
            assert "Traceback" not in completed.stderr
