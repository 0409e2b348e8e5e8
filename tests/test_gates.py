"""Tests for the one differential harness (repro.gates).

Every invariance gate — hash seed, schedule, the chaos scenarios — is
an oracle plus variants over :func:`run_gate` and :func:`run_gates`, so
the compare/diff/report/exit loop is tested here once, with fake
variants. The per-gate test modules cover only how each entry builds
its oracle and variants.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.resolution import PairEvidence, ResolutionResult
from repro.gates import (
    Gate,
    GateConfig,
    GateFailure,
    Variant,
    int_list,
    ranked_text,
    require,
    run_gate,
    run_gates,
)


def const(text, calls=None, label=None):
    def run(workdir: Path):
        if calls is not None:
            calls.append(label)
        return text

    return run


def boom(workdir: Path):
    raise GateFailure("checkpoint was not hit")


class TestGateConfig:
    def test_defaults_are_valid(self):
        config = GateConfig()
        assert config.persons == 40
        assert config.seeds == (1, 2, 3)
        assert config.workers == (1,)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"persons": 1}, "persons"),
            ({"seeds": ()}, "seed"),
            ({"workers": ()}, "worker"),
            ({"workers": (2, 0)}, "worker"),
        ],
    )
    def test_rejects(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            GateConfig(**overrides)

    def test_int_list(self):
        assert int_list("0, 1,2,", "--seed") == (0, 1, 2)
        with pytest.raises(ValueError, match="--seed must be comma"):
            int_list("one", "--seed")


class TestRunGate:
    def test_oracle_first_then_each_variant_once(self, tmp_path):
        calls = []
        oracle = Variant("oracle", const("same\n", calls, "oracle"))
        variants = [
            Variant(label, const("same\n", calls, label))
            for label in ("a", "b", "c")
        ]
        result = run_gate("g", oracle, variants, tmp_path)
        assert calls == ["oracle", "a", "b", "c"]
        assert result.ok
        assert [run.status for run in result.runs] == ["identical"] * 3
        assert result.diff is None
        assert not (tmp_path / "divergence.patch").exists()

    def test_first_divergence_wins_and_names_both_sides(self, tmp_path):
        variants = [
            Variant("same", const("h\nrow\n")),
            Variant("first", const("h\none\n")),
            Variant("second", const("h\ntwo\n")),
        ]
        result = run_gate(
            "g", Variant("oracle", const("h\nrow\n")), variants, tmp_path
        )
        assert not result.ok
        assert [run.status for run in result.runs] == [
            "identical", "DIVERGED", "DIVERGED"
        ]
        assert "--- oracle" in result.diff and "+++ first" in result.diff
        assert "-row" in result.diff and "+one" in result.diff
        assert "two" not in result.diff
        assert result.diff_path == tmp_path / "divergence.patch"
        assert result.diff_path.read_text() == result.diff
        assert (tmp_path / "divergent.txt").read_text() == "h\none\n"

    def test_property_only_variants_hold(self, tmp_path):
        result = run_gate("g", None, [Variant("p", const(None))], tmp_path)
        assert result.ok
        assert result.runs[0].status == "held"

    def test_raising_variant_is_a_failed_row_and_the_sweep_goes_on(
        self, tmp_path
    ):
        variants = [
            Variant("broken", boom),
            Variant("crashed", lambda workdir: 1 / 0),
            Variant("fine", const("x\n")),
        ]
        result = run_gate(
            "g", Variant("oracle", const("x\n")), variants, tmp_path
        )
        assert [(run.label, run.status) for run in result.runs] == [
            ("broken", "FAILED"), ("crashed", "FAILED"), ("fine", "identical")
        ]
        assert result.runs[0].detail == "GateFailure: checkpoint was not hit"
        assert result.runs[1].detail.startswith("ZeroDivisionError")
        log = (tmp_path / "failures.txt").read_text()
        assert log.startswith("broken:\nTraceback")
        assert "crashed:\nTraceback" in log and "1 / 0" in log

    def test_raising_oracle_runs_no_variant(self, tmp_path):
        calls = []
        result = run_gate(
            "g", Variant("oracle", boom),
            [Variant("v", const("x\n", calls, "v"))], tmp_path,
        )
        assert calls == []
        assert [(run.label, run.status) for run in result.runs] == [
            ("oracle", "FAILED")
        ]

    def test_raising_variant_generator_is_a_failed_row(self, tmp_path):
        def variants():
            yield Variant("v", const("x\n"))
            raise OSError("segment vanished")

        result = run_gate(
            "g", Variant("oracle", const("x\n")), variants(), tmp_path
        )
        assert [run.status for run in result.runs] == ["identical", "FAILED"]
        assert "segment vanished" in result.runs[1].detail

    def test_require(self):
        require(True, "unused")
        with pytest.raises(GateFailure, match="fired"):
            require(False, "plan never fired")


class TestRunGates:
    def test_clean_gates_exit_0_and_remove_the_temporary_root(
        self, tmp_path, capsys
    ):
        diff_out = tmp_path / "clean.diff"
        gate = Gate("clean", lambda workdir: (
            Variant("oracle", const("h\nrow\n")),
            [Variant("v", const("h\nrow\n")), Variant("p", const(None))],
        ))
        assert run_gates("prog", [gate], diff_out=diff_out) == 0
        assert diff_out.read_text() == ""
        out = capsys.readouterr().out
        assert "clean: ok — 1 identical to oracle (1 ranked rows), 1 held" in out
        assert "prog: all 1 gates held (2 variants)" in out

    def test_divergence_exits_1_with_diff_and_kept_artifacts(
        self, tmp_path, capsys
    ):
        diff_out = tmp_path / "out.diff"
        artifacts = tmp_path / "artifacts"
        gate = Gate("hash", lambda workdir: (
            Variant("PYTHONHASHSEED=0", const("h\nrow\n")),
            [Variant("PYTHONHASHSEED=1", const("h\nother\n"))],
        ))
        assert run_gates(
            "prog", [gate], artifacts_dir=artifacts, diff_out=diff_out
        ) == 1
        diff = diff_out.read_text()
        assert "--- PYTHONHASHSEED=0" in diff
        assert "+++ PYTHONHASHSEED=1" in diff
        assert (artifacts / "hash" / "divergence.patch").read_text() == diff
        captured = capsys.readouterr()
        assert "PYTHONHASHSEED=1: DIVERGED" in captured.out
        assert f"artifacts kept in {artifacts}" in captured.err

    def test_raising_variant_exits_1_naming_gate_label_and_exception(
        self, capsys
    ):
        gate = Gate("crash-resume-seed0", lambda workdir: (
            Variant("uninterrupted", const("x\n")),
            [Variant("resumed after blocking", boom)],
        ))
        assert run_gates("prog", [gate]) == 1
        captured = capsys.readouterr()
        assert "crash-resume-seed0: FAILED" in captured.out
        assert (
            "resumed after blocking: FAILED — GateFailure: checkpoint was "
            "not hit" in captured.out
        )
        root = Path(captured.err.split("artifacts kept in ")[1].strip())
        assert (root / "crash-resume-seed0").is_dir()
        shutil.rmtree(root)

    def test_broken_entry_is_a_failed_gate(self, tmp_path, capsys):
        def build(workdir):
            raise KeyError("no such stage")

        gates = [Gate("broken", build)]
        assert run_gates("prog", gates, artifacts_dir=tmp_path) == 1
        assert "broken: FAILED — KeyError" in capsys.readouterr().out

    def test_gate_without_variants_is_vacuous(self, capsys):
        gate = Gate("empty", lambda workdir: (
            Variant("oracle", const("x\n")), []
        ))
        assert run_gates("prog", [gate]) == 2
        assert "empty compared nothing" in capsys.readouterr().err

    def test_vacuity_check_exits_2_only_when_everything_held(
        self, tmp_path, capsys
    ):
        def gate(text):
            return Gate("g", lambda workdir: (
                Variant("oracle", const("x\n")), [Variant("v", const(text))]
            ))

        def never_shuffled():
            return "no scoring dispatch ran under a hostile schedule"

        assert run_gates("prog", [gate("x\n")], vacuity=never_shuffled) == 2
        assert "hostile schedule" in capsys.readouterr().err
        assert run_gates(
            "prog", [gate("y\n")], artifacts_dir=tmp_path,
            vacuity=never_shuffled,
        ) == 1


class TestRankedText:
    def test_four_columns_six_decimals_unfiltered(self):
        resolution = ResolutionResult([
            PairEvidence((1, 2), similarity=0.5, confidence=0.75),
            PairEvidence((3, 4), similarity=1 / 3),
            PairEvidence((2, 3), similarity=0.0),
        ])
        assert ranked_text(resolution) == (
            "book_id_a,book_id_b,similarity,confidence\n"
            "1,2,0.500000,0.750000\n"
            "3,4,0.333333,\n"
            "2,3,0.000000,\n"
        )
