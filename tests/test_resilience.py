"""Unit tests for the resilience layer (docs/RESILIENCE.md).

Coverage map: quarantine policies and JSONL round-trip; checkpoint
integrity, fingerprint chaining, and atomic writes; budget meters
(iteration and deadline) and degraded propagation through MFIBlocks,
FP-Growth, and the pipeline; fault primitives; the chaos scenarios
themselves (each invariant exercised once, fast). The end-to-end
kill-and-resume byte-identity lives in ``test_end_to_end_determinism``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.blocking.mfiblocks import MFIBlocks, MFIBlocksConfig
from repro.core import PipelineConfig, UncertainERPipeline
from repro.datagen import build_corpus
from repro.gates import GateConfig, run_gate
from repro.mining.fpgrowth import maximal_frequent_itemsets
from repro.obs import Tracer
from repro.obs.clock import ManualClock
from repro.records.dataset import Dataset
from repro.records.io import read_csv, write_csv
from repro.resilience import (
    BudgetMeter,
    CheckpointMiss,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    GcReport,
    Quarantine,
    QuarantinePolicy,
    SimulatedCrash,
    StageBudget,
    canonical_digest,
    chain_fingerprint,
    chaos,
    corrupt_csv_rows,
    exhausting_budget,
    gc_checkpoints,
    truncate_file,
)
from repro.resilience.chaos import SCENARIOS


@pytest.fixture(scope="module")
def corpus():
    dataset, _ = build_corpus(n_persons=30, communities=("italy",), seed=17)
    return dataset


class TestQuarantine:
    def test_record_and_counts(self):
        quarantine = Quarantine()
        quarantine.record("f.csv", 3, "book_id", "bad int", {"book_id": "x"})
        quarantine.record("f.csv", 7, "gender", "bad enum", {"gender": "?"},
                          repaired=True, repaired_fields=("gender",))
        assert quarantine.n_quarantined == 1
        assert quarantine.n_repaired == 1
        assert quarantine.line_numbers(include_repaired=False) == [3]
        assert quarantine.line_numbers() == [3, 7]

    def test_jsonl_round_trip(self, tmp_path):
        quarantine = Quarantine()
        quarantine.record("f.csv", 3, "book_id", "bad int", {"book_id": "x"})
        path = tmp_path / "quarantine.jsonl"
        quarantine.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["line_number"] == 3
        assert entry["field"] == "book_id"
        assert entry["reason"] == "bad int"
        loaded = Quarantine.from_jsonl(path)
        assert [e.to_dict() for e in loaded.entries] == [entry]


class TestReadCsvPolicies:
    def _write_rows(self, tmp_path, mutate):
        dataset, _ = build_corpus(
            n_persons=8, communities=("italy",), seed=5
        )
        path = tmp_path / "corpus.csv"
        write_csv(dataset, path)
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines) - 1

    def test_fail_fast_reports_line_and_field(self, tmp_path):
        def break_row_3(lines):
            cells = lines[2].split(",")
            cells[0] = "not-an-int"
            lines[2] = ",".join(cells)

        path, _ = self._write_rows(tmp_path, break_row_3)
        with pytest.raises(ValueError) as excinfo:
            read_csv(path)
        message = str(excinfo.value)
        assert f"{path}:3:" in message
        assert "'book_id'" in message

    def test_quarantine_policy_loads_the_rest(self, tmp_path):
        def break_row_3(lines):
            cells = lines[2].split(",")
            cells[0] = "not-an-int"
            lines[2] = ",".join(cells)

        path, n_rows = self._write_rows(tmp_path, break_row_3)
        quarantine = Quarantine()
        dataset = read_csv(
            path, policy=QuarantinePolicy.QUARANTINE, quarantine=quarantine
        )
        assert len(dataset) == n_rows - 1
        assert quarantine.line_numbers() == [3]
        entry = quarantine.entries[0]
        assert entry.field == "book_id"
        assert entry.line_number == 3

    def test_repair_policy_blanks_optional_cell(self, tmp_path):
        def break_birth_year(lines):
            header = lines[0].split(",")
            column = header.index("birth_year")
            cells = lines[2].split(",")
            cells[column] = "not-a-year"
            lines[2] = ",".join(cells)

        path, n_rows = self._write_rows(tmp_path, break_birth_year)
        quarantine = Quarantine()
        dataset = read_csv(
            path, policy=QuarantinePolicy.REPAIR, quarantine=quarantine
        )
        assert len(dataset) == n_rows  # row kept, cell blanked
        assert quarantine.n_repaired == 1
        assert quarantine.n_quarantined == 0
        entry = quarantine.entries[0]
        assert entry.repaired and entry.repaired_fields == ("birth_year",)

    def test_repair_cannot_save_required_column(self, tmp_path):
        def break_book_id(lines):
            cells = lines[2].split(",")
            cells[0] = "not-an-int"
            lines[2] = ",".join(cells)

        path, n_rows = self._write_rows(tmp_path, break_book_id)
        quarantine = Quarantine()
        dataset = read_csv(
            path, policy=QuarantinePolicy.REPAIR, quarantine=quarantine
        )
        assert len(dataset) == n_rows - 1
        assert quarantine.n_quarantined == 1

    def test_duplicate_book_id_quarantined(self, tmp_path):
        def duplicate_row(lines):
            lines[3] = lines[2]

        path, n_rows = self._write_rows(tmp_path, duplicate_row)
        quarantine = Quarantine()
        dataset = read_csv(
            path, policy=QuarantinePolicy.QUARANTINE, quarantine=quarantine
        )
        assert len(dataset) == n_rows - 1
        assert quarantine.entries[0].field == "book_id"
        assert "duplicate" in quarantine.entries[0].reason


class TestDatasetFromJsonPolicies:
    def test_bad_entry_quarantined_with_ordinal(self, tmp_path, corpus):
        path = tmp_path / "corpus.json"
        corpus.to_json(path)
        payload = json.loads(path.read_text())
        payload["records"][1]["book_id"] = "not-an-int-like"
        del payload["records"][1]["source"]
        path.write_text(json.dumps(payload))

        with pytest.raises(ValueError, match="record entry 2"):
            Dataset.from_json(path)

        quarantine = Quarantine()
        dataset = Dataset.from_json(
            path, policy=QuarantinePolicy.QUARANTINE, quarantine=quarantine
        )
        assert len(dataset) == len(corpus) - 1
        assert quarantine.line_numbers() == [2]


class TestCheckpointStore:
    FP = "f" * 64

    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {"pairs": [[1, 2, 0.5]], "degraded": False}
        store.save("blocking", self.FP, payload)
        assert store.load("blocking", self.FP) == payload
        assert store.hits == ["blocking"]
        assert store.misses == []

    def test_missing_and_fingerprint_mismatch_are_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("blocking", self.FP) is None
        store.save("blocking", self.FP, {"x": 1})
        assert store.load("blocking", "0" * 64) is None
        reasons = [miss.reason for miss in store.misses]
        assert reasons == [
            CheckpointMiss.MISSING, CheckpointMiss.FINGERPRINT_MISMATCH,
        ]

    def test_truncated_file_is_a_miss_not_an_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("blocking", self.FP, {"x": 1})
        truncate_file(store.path_for("blocking"))
        assert store.load("blocking", self.FP) is None
        assert store.misses[0].reason == CheckpointMiss.UNREADABLE

    def test_tampered_payload_is_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("blocking", self.FP, {"x": 1})
        document = json.loads(path.read_text())
        document["payload"]["x"] = 2  # payload_sha256 now stale
        path.write_text(json.dumps(document))
        assert store.load("blocking", self.FP) is None
        assert store.misses[0].reason == CheckpointMiss.PAYLOAD_CORRUPT

    def test_schema_version_gates_reads(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("blocking", self.FP, {"x": 1})
        document = json.loads(path.read_text())
        document["schema"] = 99
        path.write_text(json.dumps(document))
        assert store.load("blocking", self.FP) is None
        assert store.misses[0].reason == CheckpointMiss.SCHEMA_MISMATCH

    def test_stage_names_cannot_escape_directory(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("../evil")
        with pytest.raises(ValueError):
            store.path_for("")

    def test_clear_and_stages_on_disk(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("blocking", self.FP, {})
        store.save("evidence", self.FP, {})
        assert store.stages_on_disk() == ["blocking", "evidence"]
        assert store.clear() == 2
        assert store.stages_on_disk() == []

    def test_chain_fingerprint_depends_on_everything(self):
        base = chain_fingerprint(None, "blocking", {"corpus": "a"})
        assert base == chain_fingerprint(None, "blocking", {"corpus": "a"})
        assert base != chain_fingerprint(None, "blocking", {"corpus": "b"})
        assert base != chain_fingerprint(None, "same_source", {"corpus": "a"})
        assert base != chain_fingerprint(base, "blocking", {"corpus": "a"})

    def test_canonical_digest_ignores_key_order(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest(
            {"b": 2, "a": 1}
        )


class TestCheckpointGc:
    @staticmethod
    def _checkpoint(directory, stage, age):
        """Write a fake checkpoint whose mtime is ``age`` seconds ago."""
        path = directory / f"{stage}{CheckpointStore.SUFFIX}"
        path.write_text(json.dumps({"stage": stage}))
        stamp = path.stat().st_mtime - age
        os.utime(path, (stamp, stamp))
        return path

    def test_keeps_n_newest_by_mtime(self, tmp_path):
        for stage, age in (("a", 300), ("b", 200), ("c", 100), ("d", 0)):
            self._checkpoint(tmp_path, stage, age)
        report = gc_checkpoints(tmp_path, keep=2)
        assert report.kept == ("d.ckpt.json", "c.ckpt.json")
        assert report.removed == ("b.ckpt.json", "a.ckpt.json")
        assert report.bytes_reclaimed > 0
        survivors = sorted(p.name for p in tmp_path.iterdir())
        assert survivors == ["c.ckpt.json", "d.ckpt.json"]

    def test_orphan_tmp_files_always_removed(self, tmp_path):
        self._checkpoint(tmp_path, "a", 0)
        orphan = tmp_path / f"b{CheckpointStore.SUFFIX}.tmp"
        orphan.write_text("half-written")
        report = gc_checkpoints(tmp_path, keep=5)
        assert report.removed == ()
        assert report.orphans_removed == ("b.ckpt.json.tmp",)
        assert not orphan.exists()

    def test_dry_run_removes_nothing(self, tmp_path):
        self._checkpoint(tmp_path, "a", 100)
        self._checkpoint(tmp_path, "b", 0)
        (tmp_path / f"c{CheckpointStore.SUFFIX}.tmp").write_text("x")
        report = gc_checkpoints(tmp_path, keep=1, dry_run=True)
        assert report.dry_run
        assert report.removed == ("a.ckpt.json",)
        assert report.orphans_removed == ("c.ckpt.json.tmp",)
        assert len(list(tmp_path.iterdir())) == 3

    def test_keep_zero_clears_everything(self, tmp_path):
        self._checkpoint(tmp_path, "a", 100)
        self._checkpoint(tmp_path, "b", 0)
        report = gc_checkpoints(tmp_path, keep=0)
        assert report.kept == ()
        assert sorted(report.removed) == ["a.ckpt.json", "b.ckpt.json"]
        assert list(tmp_path.iterdir()) == []

    def test_non_checkpoint_files_untouched(self, tmp_path):
        self._checkpoint(tmp_path, "a", 0)
        bystander = tmp_path / "notes.txt"
        bystander.write_text("keep me")
        gc_checkpoints(tmp_path, keep=0)
        assert bystander.exists()

    def test_invalid_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            gc_checkpoints(tmp_path, keep=-1)
        with pytest.raises(FileNotFoundError):
            gc_checkpoints(tmp_path / "absent", keep=1)

    def test_report_echo_shape(self, tmp_path):
        self._checkpoint(tmp_path, "a", 0)
        echo = gc_checkpoints(tmp_path, keep=1).to_echo()
        assert isinstance(echo, dict)
        assert echo["keep"] == 1
        assert echo["kept"] == ["a.ckpt.json"]
        assert echo["removed"] == []
        assert isinstance(gc_checkpoints(tmp_path, keep=1), GcReport)


class TestBudgets:
    def test_budget_requires_a_bound(self):
        with pytest.raises(ValueError):
            StageBudget()
        with pytest.raises(ValueError):
            StageBudget(max_iterations=0)
        with pytest.raises(ValueError):
            StageBudget(deadline_seconds=0.0)

    def test_iteration_budget_latches_degraded(self):
        meter = BudgetMeter(StageBudget(max_iterations=2))
        assert not meter.exhausted()
        meter.charge(2)
        assert meter.exhausted()
        assert meter.degraded
        assert meter.iterations == 2

    def test_unbudgeted_meter_never_exhausts(self):
        meter = BudgetMeter(None)
        meter.charge(10_000)
        assert not meter.exhausted()
        assert not meter.degraded
        assert not meter.enabled

    def test_deadline_budget_uses_injected_clock(self):
        clock = ManualClock()
        meter = BudgetMeter(StageBudget(deadline_seconds=5.0), clock=clock)
        assert not meter.exhausted()  # first check starts the window
        clock.advance(4.0)
        assert not meter.exhausted()
        clock.advance(2.0)
        assert meter.exhausted()
        assert meter.degraded

    def test_fpgrowth_budget_yields_partial_mfis(self):
        transactions = [
            frozenset({"a", "b", "c"}),
            frozenset({"a", "b", "d"}),
            frozenset({"a", "c", "d"}),
            frozenset({"b", "c", "d"}),
        ]
        full = maximal_frequent_itemsets(transactions, minsup=2)
        meter = BudgetMeter(StageBudget(max_iterations=1))
        partial = maximal_frequent_itemsets(
            transactions, minsup=2, budget=meter
        )
        assert meter.degraded
        assert set(partial) <= set(full)
        assert len(partial) < len(full)

    def test_mfiblocks_degraded_flag_set(self, corpus):
        config = MFIBlocksConfig(
            max_minsup=4, ng=3.0, budget=exhausting_budget()
        )
        result = MFIBlocks(config).run(corpus)
        assert result.degraded
        unbudgeted = MFIBlocks(
            MFIBlocksConfig(max_minsup=4, ng=3.0)
        ).run(corpus)
        assert not unbudgeted.degraded
        assert len(result.pair_scores) <= len(unbudgeted.pair_scores)

    def test_degraded_survives_json_round_trip(self, tmp_path, corpus):
        from repro.core.resolution import ResolutionResult

        config = PipelineConfig(
            max_minsup=4, ng=3.0,
            blocking_budget=StageBudget(max_iterations=1),
        )
        resolution = UncertainERPipeline(config).run(corpus)
        assert resolution.degraded
        path = tmp_path / "resolution.json"
        resolution.to_json(path)
        assert json.loads(path.read_text())["degraded"] is True
        assert ResolutionResult.from_json(path).degraded is True

    def test_degraded_propagates_to_resolution_and_report(self, corpus):
        tracer = Tracer()
        config = PipelineConfig(
            max_minsup=4, ng=3.0,
            blocking_budget=StageBudget(max_iterations=1),
        )
        resolution = UncertainERPipeline(config, tracer=tracer).run(corpus)
        tracer.close()
        assert resolution.degraded
        assert resolution.report is not None
        assert resolution.report.resilience["degraded"] is True
        assert resolution.report.counters.get("pipeline.degraded") == 1


class TestFaults:
    def test_corrupt_csv_rows_is_seed_deterministic(self, tmp_path, corpus):
        source = tmp_path / "corpus.csv"
        write_csv(corpus, source)
        lines_a = corrupt_csv_rows(source, tmp_path / "a.csv", 0.1, seed=1)
        lines_b = corrupt_csv_rows(source, tmp_path / "b.csv", 0.1, seed=1)
        lines_c = corrupt_csv_rows(source, tmp_path / "c.csv", 0.1, seed=2)
        assert lines_a == lines_b
        assert lines_a != lines_c
        assert (tmp_path / "a.csv").read_bytes() == (
            tmp_path / "b.csv"
        ).read_bytes()

    def test_corrupt_fraction_zero_keeps_file_intact(self, tmp_path, corpus):
        source = tmp_path / "corpus.csv"
        write_csv(corpus, source)
        assert corrupt_csv_rows(source, tmp_path / "out.csv", 0.0, seed=1) == []

    def test_injector_without_plan_is_a_no_op(self):
        injector = FaultInjector()
        for stage in ("blocking", "evidence"):
            injector.after_stage(stage)
        assert injector.fired == []

    def test_injector_fires_at_named_stage_only(self):
        injector = FaultInjector(FaultPlan(crash_after_stage="classify"))
        injector.after_stage("blocking")
        with pytest.raises(SimulatedCrash) as excinfo:
            injector.after_stage("classify")
        assert excinfo.value.stage == "classify"
        assert injector.fired == ["crash:classify"]


class TestChaosScenarios:
    """Each chaos invariant, exercised once on a small corpus."""

    PERSONS = 20

    def run_scenario(self, name, seed, workdir):
        oracle, variants = SCENARIOS[name](self.PERSONS, seed, workdir)
        return run_gate(name, oracle, variants, workdir)

    @pytest.mark.usefixtures("dispatch_small_scoring")
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_holds(self, tmp_path, name):
        result = self.run_scenario(name, 0, tmp_path)
        assert result.runs
        assert result.ok, [run for run in result.runs if not run.ok]

    @pytest.mark.usefixtures("dispatch_small_scoring")
    def test_worker_crash_scenario_retries_and_matches_serial(self, tmp_path):
        """The seed retargets the kill to a later parallel dispatch and
        the invariant still holds: chunks retried, bytes unchanged."""
        result = self.run_scenario("worker-crash", 1, tmp_path)
        assert result.oracle == "serial"
        assert [(run.label, run.status) for run in result.runs] == [
            ("worker killed at dispatch 1", "identical")
        ]

    def test_worker_crash_without_a_dispatch_fails_by_name(
        self, tmp_path, capsys
    ):
        """At the production dispatch floor this corpus scores every
        pair list inline: the scenario fails naming why, not with a
        ZeroDivisionError."""
        assert chaos.main([
            "--scenario", "worker-crash", "--persons", str(self.PERSONS),
            "--artifacts-dir", str(tmp_path / "artifacts"),
        ]) == 1
        out = capsys.readouterr().out
        assert "worker-crash-seed0: FAILED" in out
        assert (
            f"GateFailure: no parallel dispatch ran at {self.PERSONS} "
            "persons" in out
        )

    def test_run_chaos_keeps_artifacts_dir(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert chaos.main([
            "--seed", "0", "--scenario", "budget", "--persons", "20",
            "--artifacts-dir", str(artifacts),
        ]) == 0
        assert (artifacts / "budget-seed0").is_dir()
        out = capsys.readouterr().out
        assert "budget-seed0: ok" in out

    def test_planted_divergence_fails_with_patch_and_kept_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        """A byte gate whose variant diverges: exit 1, a .patch artifact
        naming the oracle and the variant, the artifacts dir kept."""
        real = chaos.ranked_text
        calls = []

        def planted(resolution):
            calls.append(None)
            text = real(resolution)
            return text + "planted,row,0.0,\n" if len(calls) == 3 else text

        monkeypatch.setattr(chaos, "ranked_text", planted)
        artifacts = tmp_path / "artifacts"
        assert chaos.main([
            "--scenario", "crash-resume", "--persons", "20",
            "--artifacts-dir", str(artifacts),
        ]) == 1
        workdir = artifacts / "crash-resume-seed0"
        patch = (workdir / "divergence.patch").read_text()
        assert "--- uninterrupted" in patch
        assert "+++ resumed after" in patch
        assert "+planted,row,0.0," in patch
        assert (workdir / "divergent.txt").is_file()
        assert list(workdir.glob("checkpoints-*"))
        captured = capsys.readouterr()
        assert "crash-resume-seed0: FAILED" in captured.out
        assert f"artifacts kept in {artifacts}" in captured.err

    def test_chaos_config_validation(self, capsys):
        with pytest.raises(ValueError):
            GateConfig(seeds=())
        assert chaos.main(["--seed", ","]) == 2
        assert "seed" in capsys.readouterr().err
        assert chaos.main(["--persons", "1"]) == 2
        with pytest.raises(SystemExit) as excinfo:
            chaos.main(["--scenario", "nope"])
        assert excinfo.value.code == 2
