"""Command-line interface: generate corpora, analyze, resolve, narrate.

Usage (after ``pip install -e .``)::

    python -m repro.cli generate --persons 400 --communities italy \
        --out corpus.json
    python -m repro.cli analyze corpus.json
    python -m repro.cli resolve corpus.json --ng 3.5 --expert-weighting \
        --classify --certainty 0.5 --out matches.csv \
        --trace trace.jsonl --report report.json
    python -m repro.cli profile corpus.json --ng 3.5 --expert-weighting
    python -m repro.cli narratives corpus.json --top 5

The ``resolve`` command mirrors the Section 6.5 conditions: expert
weighting, ExpertSim, SameSrc, and ADTree classification (trained on
simulated expert tags) are all switchable flags. ``--trace`` streams
schema-versioned JSONL events and ``--report`` persists the structured
:class:`~repro.obs.report.RunReport`; ``profile`` prints the per-stage
time/counter table (see ``docs/OBSERVABILITY.md``).

``resolve`` and ``profile`` also expose the resilience layer
(``docs/RESILIENCE.md``): ``--checkpoint-dir``/``--resume`` for
stage-level checkpoint/resume, ``--on-bad-row``/``--quarantine-out``
for malformed-row quarantine, and ``--budget-iterations`` /
``--budget-seconds`` for graceful degradation under stage budgets.
``chaos`` runs the seeded fault-injection scenarios end to end.
``ingest`` streams arrival batches into a resolved base through the
WAL-backed incremental resolver (``--wal-dir``/``--recover``), and
``checkpoint gc`` prunes stale checkpoint directories.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import PipelineConfig, UncertainERPipeline
from repro.datagen import (
    ExpertTagger,
    build_corpus,
    build_gazetteer,
    simplify_tags,
)
from repro.datagen.names import COMMUNITIES
from repro.evaluation import GoldStandard, format_table
from repro.graph import ranked_narratives
from repro.obs import JsonlSink, Tracer
from repro.obs.tracer import NULL_TRACER
from repro.parallel import Executor, make_executor
from repro.records import Dataset
from repro.records.io import read_csv, write_csv
from repro.records.patterns import item_type_prevalence, pattern_histogram
from repro.resilience import (
    CheckpointStore,
    Quarantine,
    QuarantinePolicy,
    StageBudget,
)
from repro.version import repro_version

__all__ = ["main", "build_parser"]

#: Commands that own their flags: name -> (module, help summary).
_MODULE_COMMANDS = {
    "sanitize": (
        "repro.sanitize",
        "re-run a small seeded resolution under permuted PYTHONHASHSEED "
        "values or hostile chunk schedules; require byte-identical output",
    ),
    "chaos": (
        "repro.resilience.chaos",
        "run the seeded fault-injection scenarios and verify the "
        "resilience invariants",
    ),
    "lint": (
        "tools.reprolint.cli",
        "run the reprolint static analysis (tools/reprolint)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-source uncertain entity resolution toolkit",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {repro_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic Names-Project corpus"
    )
    generate.add_argument("--persons", type=int, default=400)
    generate.add_argument(
        "--communities", nargs="+", default=["italy"],
        choices=list(COMMUNITIES),
    )
    generate.add_argument("--seed", type=int, default=17)
    generate.add_argument("--mv-reports", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True)

    analyze = commands.add_parser(
        "analyze", help="data-pattern and prevalence analysis (Fig 11 / Tab 3)"
    )
    analyze.add_argument("corpus", type=Path)

    resolve = commands.add_parser(
        "resolve", help="run the uncertain-ER pipeline"
    )
    resolve.add_argument("corpus", type=Path)
    resolve.add_argument("--max-minsup", type=int, default=5)
    resolve.add_argument("--ng", type=float, default=3.5)
    resolve.add_argument("--expert-weighting", action="store_true")
    resolve.add_argument("--expert-sim", action="store_true")
    resolve.add_argument("--same-src", action="store_true")
    resolve.add_argument("--classify", action="store_true")
    resolve.add_argument("--certainty", type=float, default=0.0)
    resolve.add_argument("--tag-seed", type=int, default=97)
    resolve.add_argument("--out", type=Path, default=None,
                         help="write resolved pairs as CSV")
    resolve.add_argument("--trace", type=Path, default=None,
                         help="stream trace events to this JSONL file")
    resolve.add_argument("--report", type=Path, default=None,
                         help="write the structured run report as JSON")
    _add_parallel_arguments(resolve)
    _add_resilience_arguments(resolve)

    profile = commands.add_parser(
        "profile",
        help="run the pipeline under tracing and print the per-stage "
             "time/counter table",
    )
    profile.add_argument("corpus", type=Path)
    profile.add_argument("--max-minsup", type=int, default=5)
    profile.add_argument("--ng", type=float, default=3.5)
    profile.add_argument("--expert-weighting", action="store_true")
    profile.add_argument("--expert-sim", action="store_true")
    profile.add_argument("--same-src", action="store_true")
    profile.add_argument("--classify", action="store_true")
    profile.add_argument("--tag-seed", type=int, default=97)
    profile.add_argument("--trace", type=Path, default=None,
                         help="also stream trace events to this JSONL file")
    profile.add_argument("--report", type=Path, default=None,
                         help="also write the run report as JSON")
    profile.add_argument("--timeline", action="store_true",
                         help="render the parallel_profile block as "
                              "per-worker lanes plus an overhead-vs-"
                              "compute summary (needs --workers > 1)")
    profile.add_argument("--profile-memory", action="store_true",
                         help="record per-chunk tracemalloc peaks in "
                              "workers (slows compute; timings include "
                              "the allocator hooks)")
    _add_parallel_arguments(profile)
    _add_resilience_arguments(profile)

    narratives = commands.add_parser(
        "narratives", help="print ranked narratives for resolved entities"
    )
    narratives.add_argument("corpus", type=Path)
    narratives.add_argument("--top", type=int, default=5)
    narratives.add_argument("--ng", type=float, default=3.5)

    experiment = commands.add_parser(
        "experiment",
        help="run the Table 9 condition grid against ground truth",
    )
    experiment.add_argument("corpus", type=Path)
    experiment.add_argument("--ng", type=float, nargs="+",
                            default=[3.0, 3.5, 4.0])
    experiment.add_argument("--max-minsup", type=int, default=5)
    experiment.add_argument("--no-classifier", action="store_true",
                            help="skip the Cls conditions")
    experiment.add_argument("--tag-seed", type=int, default=97)

    # Argv after these names goes straight to the module's own parser
    # (see main); they are listed here for `repro --help`.
    for name, (_module, summary) in _MODULE_COMMANDS.items():
        commands.add_parser(name, help=summary, add_help=False)

    ingest = commands.add_parser(
        "ingest",
        help="stream arrival batches into a resolved base corpus, "
             "optionally WAL-durable (docs/RESILIENCE.md, Durability)",
    )
    ingest.add_argument("base", type=Path,
                        help="the already-resolved base corpus "
                             "(.json or .csv)")
    ingest.add_argument("arrivals", type=Path,
                        help="newly arriving reports to absorb, in file "
                             "order")
    ingest.add_argument("--batch-size", type=int, default=64,
                        help="records per atomic ingest batch "
                             "(default: 64)")
    ingest.add_argument("--wal-dir", type=Path, default=None,
                        help="write-ahead log directory; makes every "
                             "batch durable (begin/commit logged) and "
                             "crash-recoverable")
    ingest.add_argument("--recover", action="store_true",
                        help="replay the committed batches in --wal-dir "
                             "first (same base corpus and pipeline flags "
                             "as the original run), then continue "
                             "ingesting")
    ingest.add_argument("--no-fsync", action="store_true",
                        help="skip per-append fsync (benchmarking only; "
                             "a crash may lose acknowledged batches)")
    ingest.add_argument("--max-minsup", type=int, default=5)
    ingest.add_argument("--ng", type=float, default=3.5)
    ingest.add_argument("--expert-weighting", action="store_true")
    ingest.add_argument("--expert-sim", action="store_true")
    ingest.add_argument("--same-src", action="store_true")
    ingest.add_argument("--certainty", type=float, default=0.0)
    ingest.add_argument("--out", type=Path, default=None,
                        help="write the final resolved pairs as CSV")
    ingest.add_argument("--trace", type=Path, default=None,
                        help="stream trace events to this JSONL file")
    ingest.add_argument("--report", type=Path, default=None,
                        help="write the structured run report (with the "
                             "resilience.wal block) as JSON")
    ingest.add_argument("--on-bad-row", default="fail",
                        choices=("fail", "quarantine", "repair"),
                        help="malformed or duplicate arrival rows: fail "
                             "fast (default), quarantine, or "
                             "repair-then-quarantine")
    ingest.add_argument("--quarantine-out", type=Path, default=None,
                        help="write quarantined rows as JSONL here")
    # The incremental path needs a pre-trained classifier; the batch
    # flags reuse _pipeline_config, which reads args.classify.
    ingest.set_defaults(classify=False)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="maintain checkpoint directories (docs/RESILIENCE.md)",
    )
    checkpoint_commands = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    checkpoint_gc = checkpoint_commands.add_parser(
        "gc",
        help="prune a checkpoint directory to its N newest stages and "
             "delete torn .tmp leftovers",
    )
    checkpoint_gc.add_argument("directory", type=Path)
    checkpoint_gc.add_argument("--keep", type=int, required=True,
                               help="newest checkpoints to keep "
                                    "(0 = remove all)")
    checkpoint_gc.add_argument("--dry-run", action="store_true",
                               help="list what would be removed without "
                                    "deleting anything")

    return parser


def _add_parallel_arguments(command: argparse.ArgumentParser) -> None:
    """The parallel-execution knobs shared by ``resolve`` and ``profile``."""
    command.add_argument(
        "--workers", type=int, default=1,
        help="parallel worker processes for scoring and mining "
             "(default: 1 = serial; output is byte-identical at any "
             "worker count)")
    command.add_argument(
        "--chunk-size", type=int, default=None,
        help="override the one-chunk-per-worker plan with fixed-size "
             "chunks (affects scheduling only, never output)")


def _executor(args: argparse.Namespace) -> Executor:
    """The executor implied by --workers/--chunk-size (serial default)."""
    return make_executor(
        getattr(args, "workers", 1),
        getattr(args, "chunk_size", None),
        profile_memory=getattr(args, "profile_memory", False),
    )


def _add_resilience_arguments(command: argparse.ArgumentParser) -> None:
    """The resilience knobs shared by ``resolve`` and ``profile``."""
    command.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="persist a checkpoint after every pipeline stage here")
    command.add_argument(
        "--resume", action="store_true",
        help="resume from the deepest valid checkpoint in "
             "--checkpoint-dir (output stays byte-identical to a "
             "fresh run)")
    command.add_argument(
        "--on-bad-row", default="fail",
        choices=("fail", "quarantine", "repair"),
        help="malformed ingest rows: fail fast (default), quarantine, "
             "or repair-then-quarantine")
    command.add_argument(
        "--quarantine-out", type=Path, default=None,
        help="write quarantined rows as JSONL here")
    command.add_argument(
        "--budget-iterations", type=int, default=None,
        help="cap blocking/mining iterations; exhaustion degrades "
             "gracefully to best-so-far")
    command.add_argument(
        "--budget-seconds", type=float, default=None,
        help="blocking stage deadline in seconds (wall clock; makes the "
             "run timing-dependent)")


def _load_corpus(
    path: Path,
    policy: QuarantinePolicy = QuarantinePolicy.FAIL_FAST,
    quarantine: Optional[Quarantine] = None,
) -> Dataset:
    """Load a corpus, dispatching on the file suffix (.json or .csv)."""
    if path.suffix.lower() == ".csv":
        return read_csv(path, policy=policy, quarantine=quarantine)
    return Dataset.from_json(path, policy=policy, quarantine=quarantine)


_POLICY_BY_FLAG = {
    "fail": QuarantinePolicy.FAIL_FAST,
    "quarantine": QuarantinePolicy.QUARANTINE,
    "repair": QuarantinePolicy.REPAIR,
}


def _load_corpus_resilient(
    args: argparse.Namespace, tracer: Tracer
) -> Dataset:
    """Load under --on-bad-row, surfacing quarantine counters and JSONL."""
    policy = _POLICY_BY_FLAG[getattr(args, "on_bad_row", "fail")]
    quarantine = Quarantine()
    dataset = _load_corpus(args.corpus, policy=policy, quarantine=quarantine)
    if quarantine.n_quarantined:
        tracer.count("ingest.rows_quarantined", quarantine.n_quarantined)
        lines = ", ".join(
            str(line)
            for line in quarantine.line_numbers(include_repaired=False)
        )
        print(f"quarantined {quarantine.n_quarantined} malformed rows "
              f"(lines {lines})")
    if quarantine.n_repaired:
        tracer.count("ingest.rows_repaired", quarantine.n_repaired)
        print(f"repaired {quarantine.n_repaired} rows")
    quarantine_out = getattr(args, "quarantine_out", None)
    if quarantine_out is not None:
        quarantine.to_jsonl(quarantine_out)
        print(f"wrote quarantine log to {quarantine_out}")
    return dataset


def _save_corpus(dataset: Dataset, path: Path) -> None:
    if path.suffix.lower() == ".csv":
        write_csv(dataset, path)
    else:
        dataset.to_json(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset, persons = build_corpus(
        n_persons=args.persons,
        communities=tuple(args.communities),
        seed=args.seed,
        mv_reports=args.mv_reports,
        name=args.out.stem,
    )
    _save_corpus(dataset, args.out)
    print(f"wrote {len(dataset)} reports about {len(persons)} persons "
          f"to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = _load_corpus(args.corpus)
    buckets = pattern_histogram(dataset)
    print(format_table(
        ["records sharing pattern (<=)", "# patterns", "sum of records"],
        [[b.label, b.n_patterns, b.n_records] for b in buckets],
        title=f"Data patterns ({len(dataset)} records)",
    ))
    print()
    print(format_table(
        ["Item Type", "Records", "%"],
        [[label, count, f"{frac:.0%}"]
         for label, count, frac in item_type_prevalence(dataset)],
        title="Item type prevalence",
    ))
    return 0


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    geo_lookup = build_gazetteer().lookup if args.expert_sim else None
    budget = None
    iterations = getattr(args, "budget_iterations", None)
    seconds = getattr(args, "budget_seconds", None)
    if iterations is not None or seconds is not None:
        budget = StageBudget(max_iterations=iterations,
                             deadline_seconds=seconds)
    return PipelineConfig(
        max_minsup=args.max_minsup,
        ng=args.ng,
        expert_weighting=args.expert_weighting,
        expert_sim=args.expert_sim,
        same_source_discard=args.same_src,
        classify=args.classify,
        geo_lookup=geo_lookup,
        blocking_budget=budget,
    )


def _build_tracer(args: argparse.Namespace) -> Tracer:
    """Tracer implied by --trace/--report (the free no-op one otherwise)."""
    trace_path = getattr(args, "trace", None)
    report_path = getattr(args, "report", None)
    if trace_path is None and report_path is None:
        return NULL_TRACER
    sinks = [JsonlSink(trace_path)] if trace_path is not None else []
    return Tracer(sinks=sinks)


def _finish_tracing(
    args: argparse.Namespace, tracer: Tracer, resolution
) -> None:
    """Flush sinks and persist the run report where requested."""
    tracer.close()
    if getattr(args, "trace", None) is not None:
        print(f"wrote trace events to {args.trace}")
    report_path = getattr(args, "report", None)
    if report_path is not None and resolution.report is not None:
        resolution.report.to_json(report_path)
        print(f"wrote run report to {report_path}")


def _checkpoint_store(args: argparse.Namespace) -> Optional[CheckpointStore]:
    directory = getattr(args, "checkpoint_dir", None)
    return None if directory is None else CheckpointStore(directory)


def _cmd_resolve(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    tracer = _build_tracer(args)
    dataset = _load_corpus_resilient(args, tracer)
    pipeline = UncertainERPipeline(
        config, tracer=tracer, executor=_executor(args)
    )

    labels = None
    if args.classify:
        blocking = pipeline.block(dataset)
        tagger = ExpertTagger(dataset, seed=args.tag_seed)
        tagged = tagger.tag_pairs(blocking.candidate_pairs)
        labels = simplify_tags(tagged, maybe_as=None)
        print(f"trained on {len(labels)} simulated expert-tagged pairs")

    resolution = pipeline.run(
        dataset, labeled_pairs=labels,
        checkpoints=_checkpoint_store(args), resume=args.resume,
    )
    _finish_tracing(args, tracer, resolution)
    crisp = resolution.resolve(args.certainty)
    print(f"{len(resolution)} ranked pairs; {len(crisp)} above "
          f"certainty {args.certainty}")
    if resolution.degraded:
        print("WARNING: stage budget exhausted; results are best-so-far "
              "(degraded)")

    gold = GoldStandard.from_dataset(dataset)
    if gold.matches:
        quality = resolution.evaluate(gold, args.certainty)
        print(f"quality vs ground truth: precision={quality.precision:.3f} "
              f"recall={quality.recall:.3f} F-1={quality.f1:.3f}")

    if args.out is not None:
        resolution.to_csv(args.out, certainty=args.certainty)
        print(f"wrote {len(crisp)} pairs to {args.out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the pipeline under tracing and print the per-stage table.

    The observability counterpart of Fig. 12: where does a resolution
    spend its time, per stage, with the stage counters alongside.
    """
    config = _pipeline_config(args)
    tracer = _build_tracer(args)
    if not tracer.enabled:
        tracer = Tracer()
    dataset = _load_corpus_resilient(args, tracer)
    pipeline = UncertainERPipeline(
        config, tracer=tracer, executor=_executor(args)
    )

    labels = None
    if args.classify:
        blocking = pipeline.block(dataset)
        tagger = ExpertTagger(dataset, seed=args.tag_seed)
        labels = simplify_tags(
            tagger.tag_pairs(blocking.candidate_pairs), maybe_as=None
        )

    resolution = pipeline.run(
        dataset, labeled_pairs=labels,
        checkpoints=_checkpoint_store(args), resume=args.resume,
    )
    _finish_tracing(args, tracer, resolution)
    assert resolution.report is not None  # tracer is always enabled here
    print(resolution.report.format_table())
    if args.timeline:
        print()
        print(resolution.report.format_timeline())
    return 0


def _cmd_narratives(args: argparse.Namespace) -> int:
    dataset = _load_corpus(args.corpus)
    pipeline = UncertainERPipeline(
        PipelineConfig(ng=args.ng, expert_weighting=True)
    )
    resolution = pipeline.run(dataset)
    stories = ranked_narratives(dataset, resolution)
    for narrative in stories[: args.top]:
        print(f"[confidence {narrative.confidence:+.2f}] {narrative.text}")
    if not stories:
        print("no multi-report entities found")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.evaluation.experiments import run_conditions

    dataset = _load_corpus(args.corpus)
    gold = GoldStandard.from_dataset(dataset)
    if not gold.matches:
        print("corpus has no ground-truth person ids; cannot evaluate")
        return 1

    labels = None
    if not args.no_classifier:
        pipeline = UncertainERPipeline(
            PipelineConfig(max_minsup=args.max_minsup,
                           ng=max(args.ng), expert_weighting=True)
        )
        blocking = pipeline.block(dataset)
        tagger = ExpertTagger(dataset, seed=args.tag_seed)
        labels = simplify_tags(
            tagger.tag_pairs(blocking.candidate_pairs), maybe_as=None
        )
        print(f"trained conditions use {len(labels)} simulated tags")

    results = run_conditions(
        dataset, gold, labeled_pairs=labels,
        ng_values=tuple(args.ng), max_minsup=args.max_minsup,
        geo_lookup=build_gazetteer().lookup,
    )
    print(format_table(
        ["Condition", "Recall", "Precision", "F-1"],
        [[r.name, r.recall, r.precision, r.f1] for r in results],
        title=(f"Quality under varying conditions "
               f"(avg over NG {tuple(args.ng)}, MaxMinSup={args.max_minsup})"),
    ))
    return 0


def _lint_from_checkout(argv: List[str]) -> int:
    """Run ``python -m tools.reprolint`` from the repository root.

    The ``tools`` package lives in the repository, not in the installed
    distribution: ``repro lint`` imports it in-process when it can (a
    repo checkout, the tests) and falls back to this when it cannot.
    """
    repo_root = Path(__file__).resolve().parents[2]
    if not (repo_root / "tools" / "reprolint").is_dir():
        print(
            "repro lint: the `tools.reprolint` package is not importable "
            "and no repository checkout was found; run from the repo "
            "root (python -m tools.reprolint)",
            file=sys.stderr,
        )
        return 2
    import subprocess

    completed = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *argv], cwd=repo_root
    )
    return completed.returncode


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream arrivals through :class:`IncrementalResolver.add_records`.

    The CLI face of the durable write path: arrivals are absorbed in
    atomic batches, optionally begin/commit-logged to a WAL, and
    ``--recover`` replays a crashed run's committed prefix before
    continuing. Identity is enforced — recovery against a different
    base corpus or pipeline configuration is refused, not guessed at.
    """
    from repro.core.incremental import IncrementalResolver
    from repro.core.pipeline import corpus_stats
    from repro.obs.report import RunReport
    from repro.resilience.wal import WalError, WriteAheadLog

    if args.recover and args.wal_dir is None:
        print("repro ingest: --recover requires --wal-dir", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print(f"repro ingest: --batch-size must be >= 1, "
              f"got {args.batch_size}", file=sys.stderr)
        return 2
    config = _pipeline_config(args)
    tracer = _build_tracer(args)
    policy = _POLICY_BY_FLAG[args.on_bad_row]
    quarantine = Quarantine()
    base = _load_corpus(args.base)
    arrivals = list(
        _load_corpus(args.arrivals, policy=policy, quarantine=quarantine)
    )
    fsync = not args.no_fsync

    try:
        if args.recover:
            resolver, recovery = IncrementalResolver.recover(
                args.wal_dir, base, config, fsync=fsync
            )
            print(f"recovered {recovery.batches_replayed} committed "
                  f"batches ({recovery.records_replayed} records) "
                  f"from {args.wal_dir}")
            if recovery.dropped_batches:
                dropped = ", ".join(
                    str(batch) for batch in recovery.dropped_batches
                )
                print(f"WARNING: crash dropped uncommitted batch(es) "
                      f"{dropped} ({recovery.dropped_records} records); "
                      f"re-ingest them")
            if recovery.torn_tail_bytes:
                print(f"truncated {recovery.torn_tail_bytes} torn tail "
                      f"bytes from the log")
        else:
            wal = (
                WriteAheadLog(args.wal_dir, fsync=fsync)
                if args.wal_dir is not None else None
            )
            resolver = IncrementalResolver(base, config, wal=wal)
    except (WalError, ValueError) as error:
        print(f"repro ingest: {error}", file=sys.stderr)
        return 2

    batches = [
        arrivals[start:start + args.batch_size]
        for start in range(0, len(arrivals), args.batch_size)
    ]
    added = 0
    try:
        for batch in batches:
            result = resolver.add_records(
                batch, policy=policy, quarantine=quarantine,
                source=str(args.arrivals),
            )
            added += len(result.added)
    except ValueError as error:
        # FAIL_FAST duplicate: atomic-at-the-batch means nothing of the
        # failing batch was applied (or logged as committed).
        print(f"repro ingest: {error}", file=sys.stderr)
        return 1
    finally:
        if resolver.wal is not None:
            resolver.wal.close()

    tracer.count("ingest.batches", len(batches))
    tracer.count("ingest.records_added", added)
    if quarantine.n_quarantined:
        tracer.count("ingest.rows_quarantined", quarantine.n_quarantined)
        print(f"quarantined {quarantine.n_quarantined} rows")
    if args.quarantine_out is not None:
        quarantine.to_jsonl(args.quarantine_out)
        print(f"wrote quarantine log to {args.quarantine_out}")

    resolution = resolver.resolution()
    crisp = resolution.resolve(args.certainty)
    print(f"ingested {added} records in {len(batches)} batch(es) onto "
          f"{len(base)} base records; {len(resolution)} ranked pairs, "
          f"{len(crisp)} above certainty {args.certainty}")
    wal_counters = resolver.wal_counters()
    if wal_counters:
        print(f"wal: {wal_counters['segments']} segment(s), "
              f"{wal_counters['batches_committed']} batches committed, "
              f"{wal_counters['replayed']} replayed, "
              f"{wal_counters['torn_tail_dropped']} torn tail bytes "
              f"dropped")

    if args.report is not None:
        resilience = {"degraded": False}
        if wal_counters:
            resilience["wal"] = wal_counters
        if quarantine.n_quarantined:
            resilience["quarantine"] = {
                "rows": quarantine.n_quarantined,
            }
        RunReport.build(
            tracer.aggregate,
            config=config.to_echo(),
            corpus=corpus_stats(base),
            resilience=resilience,
        ).to_json(args.report)
        print(f"wrote run report to {args.report}")
    tracer.close()
    if args.trace is not None:
        print(f"wrote trace events to {args.trace}")

    if args.out is not None:
        resolution.to_csv(args.out, certainty=args.certainty)
        print(f"wrote {len(crisp)} pairs to {args.out}")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Checkpoint-directory maintenance (``repro checkpoint gc``)."""
    from repro.resilience.checkpoints import gc_checkpoints

    try:
        report = gc_checkpoints(
            args.directory, args.keep, dry_run=args.dry_run
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"repro checkpoint gc: {error}", file=sys.stderr)
        return 2
    verb = "would remove" if report.dry_run else "removed"
    for name in report.removed:
        print(f"{verb} {name}")
    for name in report.orphans_removed:
        print(f"{verb} {name} (torn temp file)")
    print(f"kept {len(report.kept)} checkpoint(s); {verb} "
          f"{len(report.removed) + len(report.orphans_removed)} file(s), "
          f"{report.bytes_reclaimed} bytes")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "resolve": _cmd_resolve,
    "profile": _cmd_profile,
    "narratives": _cmd_narratives,
    "experiment": _cmd_experiment,
    "ingest": _cmd_ingest,
    "checkpoint": _cmd_checkpoint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _MODULE_COMMANDS:
        try:
            module = importlib.import_module(_MODULE_COMMANDS[argv[0]][0])
        except ImportError:
            if argv[0] != "lint":
                raise
            return _lint_from_checkout(argv[1:])
        return int(module.main(argv[1:]))
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
