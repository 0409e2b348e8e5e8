"""Shared helpers for the benchmark harness (non-fixture utilities)."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Optional

from repro.obs import RunReport, Tracer

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a rendered table/series and persist it under results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_report(
    name: str,
    tracer: Tracer,
    config: Optional[Mapping[str, Any]] = None,
    corpus: Optional[Mapping[str, Any]] = None,
    parallel: Optional[Mapping[str, Any]] = None,
    parallel_profile: Optional[Mapping[str, Any]] = None,
) -> RunReport:
    """Persist a traced run as ``results/<name>.report.json``.

    Benchmarks that run under a :class:`~repro.obs.Tracer` write the
    exact report schema ``repro resolve --report`` / ``repro profile``
    produce (see docs/OBSERVABILITY.md), so profiling numbers from the
    benchmark tree and the CLI are directly comparable. ``parallel``
    fills the report's executor block (docs/PARALLELISM.md); timing
    benchmarks should always record at least ``workers`` and
    ``cpu_count`` there so reports from different machines can be
    told apart. ``parallel_profile`` carries the per-chunk overhead
    ledger (``executor.profile_echo()``) that ``repro profile
    --timeline`` renders.
    """
    if tracer.aggregate is None:
        raise ValueError("emit_report needs an enabled tracer")
    report = RunReport.build(
        tracer.aggregate, config=config, corpus=corpus, parallel=parallel,
        parallel_profile=parallel_profile,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    report.to_json(RESULTS_DIR / f"{name}.report.json")
    return report
