"""Tests for the command-line interface."""

from __future__ import annotations

import csv

import pytest

from repro.cli import build_parser, main
from repro.records.dataset import Dataset


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.json"
    code = main([
        "generate", "--persons", "60", "--communities", "italy",
        "--seed", "5", "--out", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_community_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--communities", "narnia", "--out", "x.json"]
            )

    def test_resolve_defaults(self):
        args = build_parser().parse_args(["resolve", "c.json"])
        assert args.ng == 3.5
        assert args.max_minsup == 5
        assert not args.classify


class TestGenerate:
    def test_writes_loadable_corpus(self, corpus_path):
        dataset = Dataset.from_json(corpus_path)
        assert len(dataset) >= 60

    def test_mv_flag(self, tmp_path):
        path = tmp_path / "mv.json"
        main(["generate", "--persons", "50", "--mv-reports", "10",
              "--seed", "3", "--out", str(path)])
        dataset = Dataset.from_json(path)
        mv = [r for r in dataset if r.source.identifier == "MV"]
        assert len(mv) == 10


class TestAnalyze:
    def test_prints_tables(self, corpus_path, capsys):
        assert main(["analyze", str(corpus_path)]) == 0
        output = capsys.readouterr().out
        assert "Data patterns" in output
        assert "Item type prevalence" in output
        assert "Last Name" in output


class TestResolve:
    def test_basic_resolution(self, corpus_path, capsys):
        code = main([
            "resolve", str(corpus_path), "--ng", "3.0",
            "--expert-weighting",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "ranked pairs" in output
        assert "quality vs ground truth" in output

    def test_csv_output(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        main([
            "resolve", str(corpus_path), "--expert-weighting",
            "--out", str(out),
        ])
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["book_id_a", "book_id_b", "similarity",
                           "confidence"]
        assert len(rows) > 1
        # pairs canonicalized
        for a, b, _sim, _conf in rows[1:]:
            assert int(a) < int(b)

    def test_classify_path(self, corpus_path, capsys):
        code = main([
            "resolve", str(corpus_path), "--expert-weighting",
            "--classify", "--certainty", "0.0",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "trained on" in output


class TestNarratives:
    def test_prints_stories(self, corpus_path, capsys):
        assert main(["narratives", str(corpus_path), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "confidence" in output or "no multi-report" in output


class TestExperiment:
    def test_condition_grid_without_classifier(self, corpus_path, capsys):
        code = main([
            "experiment", str(corpus_path), "--ng", "3.0",
            "--no-classifier",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Base" in output
        assert "Expert Weighting" in output
        assert "Cls" not in output

    def test_condition_grid_with_classifier(self, corpus_path, capsys):
        code = main(["experiment", str(corpus_path), "--ng", "3.0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "SameSrc + Cls" in output

    def test_rejects_corpus_without_truth(self, tmp_path, capsys):
        from repro.records.dataset import Dataset
        from tests.conftest import make_record

        dataset = Dataset([make_record(book_id=1), make_record(book_id=2)])
        path = tmp_path / "untruthed.json"
        dataset.to_json(path)
        assert main(["experiment", str(path), "--no-classifier"]) == 1


class TestResolveExpertSim:
    def test_expert_sim_flag(self, corpus_path, capsys):
        code = main([
            "resolve", str(corpus_path), "--expert-weighting",
            "--expert-sim",
        ])
        assert code == 0
        assert "ranked pairs" in capsys.readouterr().out

    def test_same_src_flag(self, corpus_path, capsys):
        code = main(["resolve", str(corpus_path), "--same-src"])
        assert code == 0


class TestCsvFormat:
    def test_generate_and_resolve_csv(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        assert main([
            "generate", "--persons", "40", "--communities", "italy",
            "--seed", "5", "--out", str(path),
        ]) == 0
        assert path.read_text().startswith("book_id,")
        code = main(["resolve", str(path), "--expert-weighting"])
        assert code == 0
        assert "ranked pairs" in capsys.readouterr().out

    def test_analyze_csv(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        main(["generate", "--persons", "30", "--seed", "3",
              "--out", str(path)])
        assert main(["analyze", str(path)]) == 0
        assert "Item type prevalence" in capsys.readouterr().out


class TestLint:
    def test_lint_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0

    def test_lint_reports_findings(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(dirty)]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        main(["lint", str(dirty), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RL001": 1}

    def test_lint_select(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(dirty), "--select", "RL003"]) == 0

    def test_lint_writes_perf_baseline(self, tmp_path):
        # Regenerating the inventory in place covers its own findings.
        (tmp_path / "pkg").mkdir()
        (tmp_path / "docs").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            "from contracts import hot_path\n\n\n"
            "def cost(x):\n    return x + 1\n\n\n"
            "@hot_path\ndef total(values):\n"
            "    return sum([cost(v) for v in values])\n"
        )
        config = tmp_path / "pyproject.toml"
        config.write_text('[tool.reprolint]\ncontract-packages = ["pkg"]\n')
        baseline = tmp_path / "docs" / "PERF_LINT_BASELINE.md"
        code = main(["lint", str(tmp_path / "pkg"), "--perf",
                     "--config", str(config),
                     "--write-perf-baseline", str(baseline)])
        assert code == 0
        assert "`pkg.mod:total`" in baseline.read_text()


class TestIngest:
    @pytest.fixture()
    def split_corpus(self, corpus_path, tmp_path):
        dataset = Dataset.from_json(corpus_path)
        ids = sorted(dataset.record_ids)
        pivot = len(ids) * 2 // 3
        base = tmp_path / "base.json"
        arrivals = tmp_path / "arrivals.json"
        dataset.subset(ids[:pivot], name="base").to_json(base)
        dataset.subset(ids[pivot:], name="arrivals").to_json(arrivals)
        return base, arrivals

    def test_in_memory_ingest(self, split_corpus, capsys):
        base, arrivals = split_corpus
        code = main(["ingest", str(base), str(arrivals),
                     "--batch-size", "8", "--expert-weighting"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ingested" in output
        assert "wal:" not in output  # no WAL requested, no WAL line

    def test_durable_ingest_report_and_csv(
        self, split_corpus, tmp_path, capsys
    ):
        import json

        base, arrivals = split_corpus
        out = tmp_path / "pairs.csv"
        report = tmp_path / "run.report.json"
        code = main([
            "ingest", str(base), str(arrivals), "--expert-weighting",
            "--wal-dir", str(tmp_path / "wal"), "--batch-size", "8",
            "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        assert "wal:" in capsys.readouterr().out
        n_arrivals = len(Dataset.from_json(arrivals))
        expected_batches = -(-n_arrivals // 8)  # ceil
        wal_block = json.loads(report.read_text())["resilience"]["wal"]
        assert wal_block["batches_committed"] == expected_batches
        assert wal_block["replayed"] == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:3] == ["book_id_a", "book_id_b", "similarity"]

    def test_recover_is_byte_identical(self, split_corpus, tmp_path):
        base, arrivals = split_corpus
        wal_dir = tmp_path / "wal"
        first = tmp_path / "first.csv"
        assert main([
            "ingest", str(base), str(arrivals), "--expert-weighting",
            "--wal-dir", str(wal_dir), "--batch-size", "8",
            "--out", str(first),
        ]) == 0
        second = tmp_path / "second.csv"
        assert main([
            "ingest", str(base), str(arrivals), "--expert-weighting",
            "--wal-dir", str(wal_dir), "--recover",
            "--on-bad-row", "quarantine", "--out", str(second),
        ]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_wal_history_requires_recover(self, split_corpus, tmp_path):
        base, arrivals = split_corpus
        wal_dir = tmp_path / "wal"
        assert main([
            "ingest", str(base), str(arrivals), "--expert-weighting",
            "--wal-dir", str(wal_dir), "--batch-size", "8",
        ]) == 0
        # Reusing a WAL with history without --recover is refused.
        assert main([
            "ingest", str(base), str(arrivals), "--expert-weighting",
            "--wal-dir", str(wal_dir), "--batch-size", "8",
        ]) == 2

    def test_recover_against_wrong_config_refused(
        self, split_corpus, tmp_path
    ):
        base, arrivals = split_corpus
        wal_dir = tmp_path / "wal"
        assert main([
            "ingest", str(base), str(arrivals), "--expert-weighting",
            "--wal-dir", str(wal_dir),
        ]) == 0
        assert main([
            "ingest", str(base), str(arrivals), "--ng", "2.0",
            "--wal-dir", str(wal_dir), "--recover",
            "--on-bad-row", "quarantine",
        ]) == 2

    def test_recover_requires_wal_dir(self, split_corpus):
        base, arrivals = split_corpus
        assert main([
            "ingest", str(base), str(arrivals), "--recover",
        ]) == 2

    def test_batch_size_must_be_positive(self, split_corpus):
        base, arrivals = split_corpus
        assert main([
            "ingest", str(base), str(arrivals), "--batch-size", "0",
        ]) == 2


class TestCheckpointGcCli:
    @staticmethod
    def _seed_checkpoints(directory):
        directory.mkdir()
        for name in ("a", "b", "c"):
            (directory / f"{name}.ckpt.json").write_text("{}")

    def test_dry_run_then_real(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        self._seed_checkpoints(ckpt)
        assert main([
            "checkpoint", "gc", str(ckpt), "--keep", "1", "--dry-run",
        ]) == 0
        assert "would remove" in capsys.readouterr().out
        assert len(list(ckpt.iterdir())) == 3
        assert main(["checkpoint", "gc", str(ckpt), "--keep", "1"]) == 0
        assert "removed" in capsys.readouterr().out
        assert len(list(ckpt.iterdir())) == 1

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        assert main([
            "checkpoint", "gc", str(tmp_path / "absent"), "--keep", "1",
        ]) == 2
        assert "checkpoint gc" in capsys.readouterr().err
