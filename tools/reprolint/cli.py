"""Command-line front end: ``python -m tools.reprolint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 bad invocation. Output formats:
``human`` (compiler-style lines plus a per-rule summary) and ``json``
(schema documented in docs/STATIC_ANALYSIS.md and pinned by
tests/test_reprolint.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from tools.reprolint.config import (
    Config,
    ConfigError,
    find_pyproject,
    load_config,
)
from tools.reprolint.contracts import CONTRACT_RULES
from tools.reprolint.engine import (
    analyze_contract_paths,
    analyze_parallel_paths,
    analyze_perf_paths,
    lint_paths,
)
from tools.reprolint.findings import Finding, Severity
from tools.reprolint.parallel_safety import PARALLEL_RULES
from tools.reprolint.perf_lint import (
    BASELINE_PATH,
    PERF_RULES,
    demote_inventoried,
    parse_baseline,
    render_baseline,
)
from tools.reprolint.rules import ALL_RULES
from tools.reprolint.sarif import render_sarif, rule_catalogue

__all__ = ["main", "build_parser"]

JSON_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "determinism- and safety-focused static analysis for the "
            "uncertain-ER reproduction"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories (default: [tool.reprolint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run exclusively (e.g. RL001,RL005)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="pyproject.toml to read [tool.reprolint] from "
        "(default: discovered upward from cwd)",
    )
    parser.add_argument(
        "--contracts",
        action="store_true",
        help="additionally run the inter-procedural contract pass "
        "(RL100-RL103) over [tool.reprolint] contract-packages",
    )
    parser.add_argument(
        "--parallel-safety",
        action="store_true",
        help="additionally run the parallel-safety pass (RL200-RL205) "
        "over [tool.reprolint] contract-packages",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="additionally run the performance pass (RL300-RL305) over "
        "the hot set of [tool.reprolint] contract-packages; findings not "
        f"inventoried in <root>/{BASELINE_PATH} are errors",
    )
    parser.add_argument(
        "--write-perf-baseline",
        type=Path,
        default=None,
        help="write the --perf finding inventory to this path and continue",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply available autofixes (RL007: insert the missing "
        "`from __future__ import annotations`; RL303: hoist invariant "
        "list membership operands into sets) before linting",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule counts to human output",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule_cls in ALL_RULES:
        doc = (rule_cls.__module__ and sys.modules[rule_cls.__module__].__doc__) or ""
        headline = doc.strip().splitlines()[0] if doc.strip() else rule_cls.name
        lines.append(f"{rule_cls.code}  {rule_cls.name:<22} {headline}")
    for code in sorted(CONTRACT_RULES):
        lines.append(
            f"{code}  {CONTRACT_RULES[code]:<22} inter-procedural contract "
            "pass (--contracts)"
        )
    for code in sorted(PARALLEL_RULES):
        lines.append(
            f"{code}  {PARALLEL_RULES[code]:<22} parallel-safety pass "
            "(--parallel-safety)"
        )
    for code in sorted(PERF_RULES):
        lines.append(
            f"{code}  {PERF_RULES[code]:<22} performance pass (--perf)"
        )
    return "\n".join(lines)


def _render_human(findings: List[Finding], statistics: bool) -> str:
    lines = [finding.format_human() for finding in findings]
    if statistics and findings:
        counts: dict = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        lines.append("")
        for rule in sorted(counts):
            lines.append(f"{counts[rule]:>5}  {rule}")
    if findings:
        total = len(findings)
        lines.append(f"found {total} finding{'s' if total != 1 else ''}")
    return "\n".join(lines)


def _render_json(findings: List[Finding]) -> str:
    counts: dict = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "counts": {rule: counts[rule] for rule in sorted(counts)},
        "total": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    pyproject = args.config if args.config is not None else find_pyproject()
    if args.config is not None and not args.config.is_file():
        print(f"reprolint: config not found: {args.config}", file=sys.stderr)
        return 2
    try:
        config: Config = load_config(pyproject)
    except ConfigError as exc:
        print(f"reprolint: bad configuration: {exc}", file=sys.stderr)
        return 2

    known_codes = set(rule_catalogue())
    if args.select:
        config.select = tuple(
            code.strip().upper() for code in args.select.split(",") if code.strip()
        )
    if args.ignore:
        config.ignore = tuple(
            code.strip().upper() for code in args.ignore.split(",") if code.strip()
        )
    unknown = [
        code
        for code in (*config.select, *config.ignore)
        if code not in known_codes
    ]
    if unknown:
        print(
            f"reprolint: unknown rule code(s): {', '.join(sorted(set(unknown)))} "
            "(see --list-rules)",
            file=sys.stderr,
        )
        return 2

    root = pyproject.parent if pyproject is not None else Path.cwd()
    paths = list(args.paths) or [root / p for p in config.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(
            f"reprolint: no such path(s): {', '.join(missing)}", file=sys.stderr
        )
        return 2

    if args.fix:
        from tools.reprolint.autofix import fix_paths

        for fixed in fix_paths(paths, config=config, root=root):
            print(f"fixed: {fixed}")

    findings = lint_paths(paths, config=config, root=root)

    contract_roots = [
        root / prefix
        for prefix in config.contract_packages
        if (root / prefix).exists()
    ]
    if args.contracts:
        findings = sorted(
            findings
            + analyze_contract_paths(contract_roots, config=config, root=root)
        )
    if args.parallel_safety:
        findings = sorted(
            findings
            + analyze_parallel_paths(contract_roots, config=config, root=root)
        )

    if args.perf:
        perf_findings = analyze_perf_paths(
            contract_roots, config=config, root=root
        )
        if args.write_perf_baseline is not None:
            args.write_perf_baseline.write_text(
                render_baseline(perf_findings), encoding="utf-8"
            )
            print(f"wrote perf baseline: {args.write_perf_baseline}")
        baseline_path = root / BASELINE_PATH
        if baseline_path.is_file():
            inventory = parse_baseline(
                baseline_path.read_text(encoding="utf-8")
            )
            perf_findings = demote_inventoried(perf_findings, inventory)
        findings = sorted(findings + [pf.finding for pf in perf_findings])

    if args.format == "json":
        print(_render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        output = _render_human(findings, statistics=args.statistics)
        if output:
            print(output)
    # Only errors gate: inventoried perf findings are warnings.
    has_errors = any(f.severity is Severity.ERROR for f in findings)
    return 1 if has_errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
