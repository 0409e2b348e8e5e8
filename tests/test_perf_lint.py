"""Tests for the RL300-series performance pass and its inventory gate.

Rule-isolated violation fixtures under ``tests/fixtures/perf_lint/``
(each fires exactly its own rule, as an error), the hot set as the
gate, the baseline-inventory round trip and the CLI exit codes it
drives, byte-determinism across ``PYTHONHASHSEED``, the RL303
autofixer, and the repo self-sweep that is the acceptance gate (clean
modulo ``docs/PERF_LINT_BASELINE.md``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.reprolint.autofix import fix_membership_sets
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.config import load_config
from tools.reprolint.engine import analyze_perf_paths, analyze_perf_sources
from tools.reprolint.findings import Severity
from tools.reprolint.perf_lint import (
    BASELINE_PATH,
    PERF_RULES,
    demote_inventoried,
    parse_baseline,
    render_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures" / "perf_lint"
REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / BASELINE_PATH


def perf_findings(source, path="src/module.py"):
    """Run RL300-RL305 over one dedented fixture module."""
    return analyze_perf_sources([(path, textwrap.dedent(source))])


#: One @hot_path function with one per-element loop: one RL300 finding.
HOT_SOURCE = """
    from contracts import hot_path


    def unit_cost(x):
        return x + 1


    @hot_path
    def total_cost(values):
        total = 0
        for value in values:
            total = total + unit_cost(value)
        return total
"""


class TestViolationFixtures:
    @pytest.mark.parametrize(
        "fixture",
        sorted(FIXTURES.glob("rl3*.py")),
        ids=lambda p: p.stem,
    )
    def test_fixture_fires_exactly_its_rule(self, fixture):
        expected = fixture.stem.split("_")[0].upper()
        found = analyze_perf_sources(
            [("src/" + fixture.name, fixture.read_text(encoding="utf-8"))]
        )
        assert {pf.finding.rule for pf in found} == {expected}

    def test_fixture_set_covers_every_rule(self):
        prefixes = {
            path.stem.split("_")[0].upper()
            for path in FIXTURES.glob("rl3*.py")
        }
        assert prefixes == set(PERF_RULES)

    def test_fixtures_fire_as_errors(self):
        for fixture in sorted(FIXTURES.glob("rl3*.py")):
            found = analyze_perf_sources(
                [("src/" + fixture.name, fixture.read_text(encoding="utf-8"))]
            )
            assert found, fixture.name
            for pf in found:
                assert pf.finding.severity is Severity.ERROR, fixture.name


class TestSeverityAndRanking:
    def test_hot_finding_is_error_with_share_suffix(self):
        # A hot-set finding is an error; its message ends with the
        # rule's own text, with no measured-share suffix appended.
        found = perf_findings(HOT_SOURCE)
        assert len(found) == 1
        pf = found[0]
        assert pf.finding.rule == "RL300"
        assert pf.qualname == "module:total_cost"
        assert pf.finding.severity is Severity.ERROR
        assert pf.finding.message.endswith("once vectorized")

    def test_without_profile_no_share_suffix(self):
        found = perf_findings(HOT_SOURCE)
        assert len(found) == 1
        assert "[hot" not in found[0].finding.message
        assert "[cold" not in found[0].finding.message
        assert found[0].finding.severity is Severity.ERROR

    def test_findings_ranked_by_location(self):
        source = HOT_SOURCE + """

    @hot_path
    def again(values):
        total = 0
        for value in values:
            total = total + unit_cost(value)
        return total
"""
        found = perf_findings(source)
        assert [pf.qualname for pf in found] == [
            "module:total_cost",
            "module:again",
        ]
        lines = [pf.finding.line for pf in found]
        assert lines == sorted(lines)

    def test_code_outside_the_hot_set_is_not_scanned(self):
        assert perf_findings(HOT_SOURCE.replace("@hot_path", "")) == []

    def test_batch_kernel_callee_is_not_scanned(self):
        source = HOT_SOURCE + """

    @batch_kernel
    def kernel(values):
        return [unit_cost(value) for value in values]


    @hot_path
    def batched(values):
        return kernel(values)
"""
        source = source.replace(
            "import hot_path", "import batch_kernel, hot_path"
        )
        found = perf_findings(source)
        assert [pf.qualname for pf in found] == ["module:total_cost"]


class TestBaselineRoundTrip:
    def test_render_parse_demote_round_trip(self):
        found = perf_findings(HOT_SOURCE)
        inventory = parse_baseline(render_baseline(found))
        key = ("RL300", "module:total_cost", "src/module.py")
        assert inventory == {key: 1}
        demoted = demote_inventoried(found, inventory)
        assert len(demoted) == 1
        assert demoted[0].finding.severity is Severity.WARNING
        assert demoted[0].finding.message.endswith("(inventoried)")

    def test_excess_findings_stay_errors(self):
        found = perf_findings(HOT_SOURCE)
        inventory = {
            ("RL300", "module:total_cost", "src/module.py"): 0,
        }
        demoted = demote_inventoried(found, inventory)
        assert demoted[0].finding.severity is Severity.ERROR

    def test_every_finding_is_listed_and_counted(self):
        source = HOT_SOURCE + """

    @hot_path
    def twice(values):
        for value in values:
            unit_cost(value)
        return [unit_cost(value) for value in values]
"""
        text = render_baseline(perf_findings(source))
        assert parse_baseline(text) == {
            ("RL300", "module:total_cost", "src/module.py"): 1,
            ("RL300", "module:twice", "src/module.py"): 2,
        }
        assert f"--write-perf-baseline {BASELINE_PATH}" in text


class TestGate:
    """``python -m tools.reprolint <pkg> --perf`` exit codes: the hot-set gate."""

    @pytest.fixture()
    def project(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "docs").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            textwrap.dedent(HOT_SOURCE), encoding="utf-8"
        )
        config = tmp_path / "pyproject.toml"
        config.write_text(
            '[tool.reprolint]\npaths = ["pkg"]\n'
            'contract-packages = ["pkg"]\n',
            encoding="utf-8",
        )
        return tmp_path

    def lint(self, project, *extra):
        config = str(project / "pyproject.toml")
        return reprolint_main(
            [str(project / "pkg"), "--perf", "--config", config, *extra]
        )

    def inventory(self, project):
        target = str(project / BASELINE_PATH)
        assert self.lint(project, "--write-perf-baseline", target) == 0

    def test_uninventoried_hot_finding_exits_1(self, project, capsys):
        assert self.lint(project) == 1
        assert "RL300" in capsys.readouterr().out

    def test_inventoried_finding_exits_0(self, project, capsys):
        self.inventory(project)
        assert self.lint(project) == 0
        assert "(inventoried)" in capsys.readouterr().out

    def test_finding_beyond_inventoried_count_exits_1(self, project, capsys):
        self.inventory(project)
        module = project / "pkg" / "mod.py"
        module.write_text(
            module.read_text(encoding="utf-8").replace(
                "    return total",
                "    for value in values:\n"
                "        total = total + unit_cost(value)\n"
                "    return total",
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert self.lint(project) == 1
        out = capsys.readouterr().out
        assert out.count("RL300") == 2
        assert out.count("(inventoried)") == 1


class TestRL303Autofix:
    PATH = "src/rl303_linear_membership.py"

    def source(self):
        return (FIXTURES / "rl303_linear_membership.py").read_text(
            encoding="utf-8"
        )

    def test_hoists_invariant_operand_into_set(self):
        fixed = fix_membership_sets([(self.PATH, self.source())])
        assert set(fixed) == {self.PATH}
        new = fixed[self.PATH]
        assert "allowed_set = set(allowed)" in new
        assert "in allowed_set:" in new
        assert "in allowed:" not in new

    def test_fix_is_idempotent(self):
        fixed = fix_membership_sets([(self.PATH, self.source())])
        assert fix_membership_sets([(self.PATH, fixed[self.PATH])]) == {}

    def test_suppressed_site_is_not_rewritten(self):
        suppressed = self.source().replace(
            "if value in allowed:",
            "if value in allowed:  # reprolint: disable=RL303",
        )
        assert "disable=RL303" in suppressed
        assert fix_membership_sets([(self.PATH, suppressed)]) == {}


class TestDeterminism:
    def run_cli(self, hashseed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.reprolint",
                "src",
                "tools",
                "--perf",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            timeout=300,
        )

    def test_output_is_byte_stable_across_hashseed(self):
        first = self.run_cli("0")
        second = self.run_cli("424242")
        assert first.returncode == 0, first.stdout.decode()
        assert second.returncode == 0, second.stdout.decode()
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


class TestRepoSweep:
    def sweep(self):
        config = load_config()
        roots = [
            REPO_ROOT / prefix
            for prefix in config.contract_packages
            if (REPO_ROOT / prefix).is_dir()
        ]
        if not roots:
            pytest.skip("repository checkout required")
        return analyze_perf_paths(roots, config=config, root=REPO_ROOT)

    def test_committed_baseline_matches_regenerated_inventory(self):
        regenerated = render_baseline(self.sweep())
        assert regenerated == BASELINE.read_text(encoding="utf-8")

    def test_repo_clean_modulo_committed_baseline(self):
        found = self.sweep()
        inventory = parse_baseline(BASELINE.read_text(encoding="utf-8"))
        demoted = demote_inventoried(found, inventory)
        errors = [
            pf.finding
            for pf in demoted
            if pf.finding.severity is Severity.ERROR
        ]
        assert errors == []

    def test_baseline_covers_paper_hot_paths(self):
        # The acceptance criterion: the inventory must list the scoring
        # loops and the FP-growth expansion loops.
        text = BASELINE.read_text(encoding="utf-8")
        assert "src/repro/similarity/items.py" in text
        assert "src/repro/mining/fpgrowth.py" in text
        assert "repro.mining.fpgrowth:_fpmax" in text
