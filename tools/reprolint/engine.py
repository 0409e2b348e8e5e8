"""Lint driver: file discovery, parsing, rule dispatch, suppression.

Three entry points, layered so tests can exercise any level:

* :func:`lint_source` — lint one source string (no filesystem);
* :func:`lint_file` — read + lint one file;
* :func:`lint_paths` — walk directories, lint every ``.py`` file.

All outputs are sorted (path, line, col, rule) — the linter holds
itself to its own RL002 standard.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Type

from tools.reprolint.callgraph import build_call_graph
from tools.reprolint.config import Config
from tools.reprolint.contracts import check_contracts
from tools.reprolint.findings import Finding, Severity
from tools.reprolint.parallel_safety import check_parallel_safety
from tools.reprolint.perf_lint import PerfFinding, check_perf
from tools.reprolint.rules import ALL_RULES, Rule
from tools.reprolint.rules.base import RuleContext
from tools.reprolint.suppressions import collect_suppressions

__all__ = [
    "lint_source",
    "lint_file",
    "lint_paths",
    "analyze_contract_sources",
    "analyze_contract_paths",
    "analyze_parallel_sources",
    "analyze_parallel_paths",
    "analyze_perf_sources",
    "analyze_perf_paths",
]


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[Config] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> List[Finding]:
    """Lint one module's source text; returns sorted findings."""
    config = config or Config()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                rule="RL000",
                message=f"file does not parse: {exc.msg}",
                severity=Severity.ERROR,
            )
        ]
    suppressions = collect_suppressions(source)
    context = RuleContext(path=path, source=source, tree=tree, config=config)
    findings: List[Finding] = []
    for rule_cls in rules if rules is not None else ALL_RULES:
        if not config.rule_enabled(rule_cls.code, path):
            continue
        for finding in rule_cls().check(context):
            if suppressions.is_suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(findings)


def lint_file(
    path: Path,
    config: Optional[Config] = None,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> List[Finding]:
    """Lint one file; paths in findings are reported relative to root."""
    relative = _relative_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(
                path=relative,
                line=1,
                col=1,
                rule="RL000",
                message=f"file is unreadable: {exc}",
                severity=Severity.ERROR,
            )
        ]
    return lint_source(source, path=relative, config=config, rules=rules)


def lint_paths(
    paths: Iterable[Path],
    config: Optional[Config] = None,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> List[Finding]:
    """Lint every Python file under the given files/directories."""
    config = config or Config()
    root = root or Path.cwd()
    findings: List[Finding] = []
    for file_path in _discover(paths, config, root):
        findings.extend(
            lint_file(file_path, config=config, root=root, rules=rules)
        )
    return sorted(findings)


def analyze_contract_sources(
    sources: Sequence[tuple],
    config: Optional[Config] = None,
) -> List[Finding]:
    """Run the inter-procedural contract pass over (path, source) pairs.

    Unlike :func:`lint_source`, this needs *all* modules at once: taint
    flows through the call graph, so the unit of analysis is the whole
    file set, not one file. Per-line ``# reprolint: disable=RL10x``
    suppressions and config select/ignore/per-path-ignores still apply.
    """
    return _analyze_graph_sources(sources, check_contracts, config)


def analyze_contract_paths(
    paths: Iterable[Path],
    config: Optional[Config] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Contract pass over every Python file under files/directories."""
    return analyze_contract_sources(
        _read_sources(paths, config, root), config=config
    )


def analyze_parallel_sources(
    sources: Sequence[tuple],
    config: Optional[Config] = None,
) -> List[Finding]:
    """Run the parallel-safety pass (RL200-RL205) over (path, source)
    pairs. Same whole-file-set unit of analysis as the contract pass;
    suppressions and config select/ignore/per-path-ignores apply."""
    return _analyze_graph_sources(sources, check_parallel_safety, config)


def analyze_parallel_paths(
    paths: Iterable[Path],
    config: Optional[Config] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Parallel-safety pass over every Python file under the paths."""
    return analyze_parallel_sources(
        _read_sources(paths, config, root), config=config
    )


def analyze_perf_sources(
    sources: Sequence[tuple],
    config: Optional[Config] = None,
) -> List[PerfFinding]:
    """Run the performance pass (RL300-RL305) over (path, source) pairs.

    Returns :class:`PerfFinding` (finding + hot function) rather than
    bare findings: the baseline inventory keys on the function.
    Suppressions and config select/ignore/per-path-ignores apply as in
    the other passes.
    """
    config = config or Config()
    graph = build_call_graph(list(sources))
    suppressions = {
        path: collect_suppressions(text) for path, text in sources
    }
    out: List[PerfFinding] = []
    for pf in check_perf(graph):
        if not config.rule_enabled(pf.finding.rule, pf.finding.path):
            continue
        suppressed = suppressions.get(pf.finding.path)
        if suppressed is not None and suppressed.is_suppressed(
            pf.finding.line, pf.finding.rule
        ):
            continue
        out.append(pf)
    return out


def analyze_perf_paths(
    paths: Iterable[Path],
    config: Optional[Config] = None,
    root: Optional[Path] = None,
) -> List[PerfFinding]:
    """Performance pass over every Python file under the paths."""
    return analyze_perf_sources(
        _read_sources(paths, config, root), config=config
    )


def _analyze_graph_sources(
    sources: Sequence[tuple],
    checker,
    config: Optional[Config] = None,
) -> List[Finding]:
    """Shared driver for the call-graph passes (contracts, parallel)."""
    config = config or Config()
    graph = build_call_graph(list(sources))
    suppressions = {
        path: collect_suppressions(text) for path, text in sources
    }
    findings: List[Finding] = []
    for finding in checker(graph):
        if not config.rule_enabled(finding.rule, finding.path):
            continue
        suppressed = suppressions.get(finding.path)
        if suppressed is not None and suppressed.is_suppressed(
            finding.line, finding.rule
        ):
            continue
        findings.append(finding)
    return sorted(findings)


def _read_sources(
    paths: Iterable[Path],
    config: Optional[Config],
    root: Optional[Path],
) -> List[tuple]:
    config = config or Config()
    root = root or Path.cwd()
    sources: List[tuple] = []
    for file_path in _discover(paths, config, root):
        try:
            text = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # lint_paths already reports unreadable files (RL000)
        sources.append((_relative_path(file_path, root), text))
    return sources


def _discover(
    paths: Iterable[Path], config: Config, root: Path
) -> List[Path]:
    seen = set()
    ordered: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            relative = _relative_path(candidate, root)
            if config.is_excluded(relative):
                continue
            if relative not in seen:
                seen.add(relative)
                ordered.append(candidate)
    return ordered


def _relative_path(path: Path, root: Optional[Path]) -> str:
    root = root or Path.cwd()
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = path
    return str(relative).replace("\\", "/")
