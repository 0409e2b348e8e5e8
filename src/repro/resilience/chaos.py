"""Chaos harness: seeded fault injection against the live pipeline.

Resilience claims that are not exercised are hopes, not properties.
Each scenario below is a gate on the differential harness of
:mod:`repro.gates`: an oracle (the uninterrupted run) and a generator
of variants (faulted runs) whose ranked text must match it, or
property-only variants that must not raise. Every scenario asserts a
recovery invariant of ``docs/RESILIENCE.md``:

``corrupt-rows`` (property only)
    Inject :data:`~repro.resilience.faults.CORRUPT_MARKER` rows into a
    CSV corpus at a seeded 5% and require that ingestion under
    ``QuarantinePolicy.QUARANTINE`` (a) completes, (b) loads exactly the
    clean rows, and (c) quarantines **exactly** the injected line
    numbers.

``crash-resume`` (one variant per stage)
    Crash the pipeline with a
    :class:`~repro.resilience.faults.SimulatedCrash` right after the
    stage's checkpoint is durable, resume from disk, and require the
    checkpoint hit and the resumed output **byte-identical**.

``truncated-checkpoint`` (one variant)
    Truncate one checkpoint file (stage chosen by the fault seed) and
    delete the deeper ones, then resume: the store must record a miss
    for the damaged stage, fall back to the deepest intact ancestor,
    and still reproduce the uninterrupted bytes.

``budget`` (property only)
    Run under an instantly exhausted
    :class:`~repro.resilience.budgets.StageBudget` and require graceful
    degradation: the run completes, ``ResolutionResult.degraded`` is
    set, and the run report carries the flag.

``worker-crash`` (one variant)
    Kill one process-pool worker mid-chunk (the seed picks which
    parallel dispatch dies) and require that the executor's
    deterministic chunk retry reproduces the serial output
    **byte-identically** — the parallel layer's recovery invariant
    (``docs/PARALLELISM.md``).

``crash-mid-batch`` (one variant per WAL append boundary)
    Stream the second half of the corpus into a WAL-backed
    :class:`~repro.core.incremental.IncrementalResolver` (batch size
    varies with the seed) and kill the process after that append.
    Recovery must replay exactly the committed prefix, report exactly
    the batches a crash legitimately loses (one after a ``begin``, none
    after a ``commit``), and — once the dropped batches are re-ingested
    — reproduce the uninterrupted output **byte-identically**.

``torn-wal`` (one variant per tail offset)
    Truncate the live WAL segment at a byte offset inside its final
    record (the last batch's commit marker), as a torn write would.
    Every tear must scan down to the same committed prefix with the
    last batch reported dropped (property only); full recoveries at
    three sampled offsets must re-ingest to byte-identical output.

Faults are injected *deterministically* from ``--seed``, so a failing
scenario replays exactly. On failure the harness keeps its artifacts
(quarantine JSONL, checkpoint directories, WAL segments, the first
divergence's diff and text) and prints their root; CI uploads them.

Usage: ``repro chaos --seed 0,1,2`` or ``python -m
repro.resilience.chaos``. Exit codes are the harness's: 0 all invariants
held, 1 a scenario failed, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.contracts import impure
from repro.core import UncertainERPipeline
from repro.core.incremental import IncrementalResolver
from repro.core.pipeline import PIPELINE_STAGES
from repro.gates import (
    Build,
    Gate,
    GateConfig,
    GateFailure,
    Variant,
    build_dataset,
    int_list,
    pipeline_config,
    ranked_text,
    require,
    run_gates,
)
from repro.obs import Tracer
from repro.parallel.adversarial import AdversarialScheduleExecutor
from repro.parallel.executor import MultiprocessExecutor
from repro.records.dataset import Dataset
from repro.records.io import read_csv, write_csv
from repro.records.schema import VictimRecord
from repro.resilience.budgets import StageBudget
from repro.resilience.checkpoints import CheckpointStore
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    WorkerCrashPlan,
    corrupt_csv_rows,
    truncate_file,
)
from repro.resilience.quarantine import Quarantine, QuarantinePolicy
from repro.resilience.wal import WalFaultPlan, WriteAheadLog

__all__ = ["CORRUPT_FRACTION", "SCENARIOS", "main"]

#: Share of corpus rows the corrupt-rows scenario damages.
CORRUPT_FRACTION = 0.05


@impure(reason="writes corrupted corpus and quarantine artifacts to disk")
def _corrupt_rows(persons: int, seed: int, workdir: Path) -> Build:
    """Seeded corrupt rows must be quarantined exactly, never fatally."""

    def quarantined_exactly(workdir: Path) -> None:
        dataset = build_dataset(persons)
        clean_path = workdir / "corpus.csv"
        corrupt_path = workdir / "corpus-corrupted.csv"
        write_csv(dataset, clean_path)
        injected = corrupt_csv_rows(
            clean_path, corrupt_path, CORRUPT_FRACTION, seed
        )
        quarantine = Quarantine()
        loaded = read_csv(
            corrupt_path, policy=QuarantinePolicy.QUARANTINE,
            quarantine=quarantine,
        )
        quarantine.to_jsonl(workdir / f"quarantine-seed{seed}.jsonl")
        UncertainERPipeline(pipeline_config()).run(loaded)
        quarantined = quarantine.line_numbers()
        require(
            quarantined == injected,
            f"quarantined lines {quarantined} != injected {injected}",
        )
        require(
            len(loaded) == len(dataset) - len(injected),
            f"loaded {len(loaded)} records, expected "
            f"{len(dataset) - len(injected)}",
        )

    return None, [Variant("corrupt rows quarantined", quarantined_exactly)]


def _expect_crash(run: Callable[[], object], message: str) -> None:
    try:
        run()
    except SimulatedCrash:
        return
    raise GateFailure(message)


@impure(reason="kills and resumes pipeline runs via on-disk checkpoints")
def _crash_resume(persons: int, seed: int, workdir: Path) -> Build:
    """Crash after every stage in turn; resume must reproduce the bytes."""
    dataset = build_dataset(persons)
    pipeline = partial(UncertainERPipeline, pipeline_config())

    def resumed_after(stage: str) -> Variant:
        def run(workdir: Path) -> str:
            store_dir = workdir / f"checkpoints-{stage}"
            plan = FaultPlan(crash_after_stage=stage)
            _expect_crash(
                lambda: pipeline().run(
                    dataset, checkpoints=CheckpointStore(store_dir),
                    faults=FaultInjector(plan),
                ),
                f"SimulatedCrash after {stage!r} did not fire",
            )
            store = CheckpointStore(store_dir)
            resumed = pipeline().run(dataset, checkpoints=store, resume=True)
            require(
                stage in store.hits,
                f"resume after {stage!r} crash did not hit its checkpoint",
            )
            return ranked_text(resumed)

        return Variant(f"resumed after {stage}", run)

    uninterrupted = Variant(
        "uninterrupted", lambda workdir: ranked_text(pipeline().run(dataset))
    )
    return uninterrupted, [resumed_after(stage) for stage in PIPELINE_STAGES]


@impure(reason="truncates checkpoint files on disk to simulate torn writes")
def _truncated_checkpoint(persons: int, seed: int, workdir: Path) -> Build:
    """A torn checkpoint must be detected, skipped, and recovered from."""
    dataset = build_dataset(persons)
    pipeline = partial(UncertainERPipeline, pipeline_config())
    store_dir = workdir / "checkpoints"
    index = seed % len(PIPELINE_STAGES)
    stage = PIPELINE_STAGES[index]

    def uninterrupted(workdir: Path) -> str:
        store = CheckpointStore(store_dir)
        return ranked_text(pipeline().run(dataset, checkpoints=store))

    def recovered(workdir: Path) -> str:
        # Damage the seed-chosen stage; delete the deeper checkpoints so
        # the resume scan actually reaches the torn file instead of
        # hitting a deeper intact one first.
        store = CheckpointStore(store_dir)
        truncate_file(store.path_for(stage))
        for deeper in PIPELINE_STAGES[index + 1:]:
            store.path_for(deeper).unlink()
        resumed = pipeline().run(dataset, checkpoints=store, resume=True)
        missed = [miss.stage for miss in store.misses]
        require(
            stage in missed,
            f"torn {stage!r} checkpoint was not recorded as a miss "
            f"(misses: {missed})",
        )
        return ranked_text(resumed)

    return (
        Variant("uninterrupted", uninterrupted),
        [Variant(f"recovered from torn {stage}", recovered)],
    )


@impure(reason="exhausts stage budgets against a real pipeline run")
def _budget(persons: int, seed: int, workdir: Path) -> Build:
    """An exhausted budget must degrade gracefully, loudly, and completely."""

    def degraded(workdir: Path) -> None:
        tracer = Tracer()
        config = pipeline_config(
            blocking_budget=StageBudget(max_iterations=1)
        )
        resolution = UncertainERPipeline(config, tracer=tracer).run(
            build_dataset(persons)
        )
        tracer.close()
        require(
            resolution.degraded,
            "budget of 1 iteration did not mark the resolution degraded",
        )
        report = resolution.report
        require(
            report is not None and bool(report.resilience.get("degraded")),
            "degraded flag missing from the run report resilience block",
        )

    return None, [Variant("1-iteration budget degraded", degraded)]


@impure(reason="kills a live pool worker to exercise the chunk retry path")
def _worker_crash(persons: int, seed: int, workdir: Path) -> Build:
    """A killed worker's chunks must be retried to byte-identical output."""
    dataset = build_dataset(persons)
    config = pipeline_config()
    # The seed picks which parallel dispatch loses a worker, among the
    # dispatches this workload really makes (pair lists below
    # MIN_DISPATCH_PAIRS never dispatch); the in-process adversarial
    # executor makes the same dispatch decisions as the pool. Chunk 0
    # always exists, and every dispatch has >= 2 chunks at 2 workers,
    # so the plan is guaranteed to arm.
    probe = AdversarialScheduleExecutor(2, schedule_seed=seed)
    UncertainERPipeline(config, executor=probe).run(dataset)
    plan = WorkerCrashPlan(map_call=seed % probe.stats.map_calls, chunk=0)

    def survived(workdir: Path) -> str:
        executor = MultiprocessExecutor(workers=2, worker_fault=plan)
        resolution = UncertainERPipeline(config, executor=executor).run(
            dataset
        )
        require(
            plan.fired,
            f"crash plan (map call {plan.map_call}, chunk {plan.chunk}) "
            f"never armed — only {executor.stats.map_calls} parallel "
            "dispatches ran",
        )
        require(
            executor.stats.worker_retries >= 1,
            "worker was killed but no chunk retry was recorded",
        )
        return ranked_text(resolution)

    serial = Variant(
        "serial",
        lambda workdir: ranked_text(UncertainERPipeline(config).run(dataset)),
    )
    return serial, [
        Variant(f"worker killed at dispatch {plan.map_call}", survived)
    ]


def _split_batches(
    persons: int, seed: int
) -> Tuple[Dataset, List[List[VictimRecord]]]:
    """A resolved base half and the other half as batches of 6 + seed."""
    records = sorted(build_dataset(persons), key=lambda rec: rec.book_id)
    half = len(records) // 2
    size = 6 + seed
    batches = [
        records[start:start + size] for start in range(half, len(records), size)
    ]
    return Dataset(records[:half], name="chaos-base"), batches


@impure(reason="kills WAL-backed ingestion at every append boundary")
def _crash_mid_batch(persons: int, seed: int, workdir: Path) -> Build:
    """A crash at any WAL write boundary must recover the committed prefix."""
    base, batches = _split_batches(persons, seed)
    config = pipeline_config()

    def uninterrupted(workdir: Path) -> str:
        reference = IncrementalResolver(base, config)
        for batch in batches:
            reference.add_records(batch)
        return ranked_text(reference.resolution())

    def recovered_after(boundary: int) -> Variant:
        def run(workdir: Path) -> str:
            wal_dir = workdir / f"wal-append{boundary}"
            plan = WalFaultPlan(crash_after_append=boundary)
            doomed = IncrementalResolver(
                base, config, wal=WriteAheadLog(wal_dir, fault=plan)
            )
            try:
                for batch in batches:
                    doomed.add_records(batch)
            except SimulatedCrash:
                pass
            assert doomed.wal is not None
            doomed.wal.close()
            require(plan.fired, f"crash at WAL append {boundary} never fired")

            recovered, report = IncrementalResolver.recover(
                wal_dir, base, config
            )
            expected_drops = 1 if boundary % 2 == 0 else 0
            require(
                len(report.dropped_batches) == expected_drops,
                f"crash after append {boundary} dropped batches "
                f"{report.dropped_batches}, expected {expected_drops}",
            )
            reingested = 0
            for batch in batches:
                if batch[0].book_id not in recovered:
                    recovered.add_records(batch)
                    reingested += 1
            require(
                reingested == len(batches) - report.batches_replayed,
                f"replayed {report.batches_replayed} + re-ingested "
                f"{reingested} != {len(batches)} batches",
            )
            text = ranked_text(recovered.resolution())
            assert recovered.wal is not None
            recovered.wal.close()
            return text

        return Variant(f"recovered after WAL append {boundary}", run)

    # Two appends per batch (begin, commit) — crash after each in turn.
    # Even boundaries die with a begin on disk and no commit, so exactly
    # that batch must be reported dropped; odd boundaries die after the
    # commit is durable, so recovery must lose nothing.
    return (
        Variant("uninterrupted", uninterrupted),
        [recovered_after(boundary) for boundary in range(2 * len(batches))],
    )


@impure(reason="truncates the live WAL segment at every tail byte offset")
def _torn_wal(persons: int, seed: int, workdir: Path) -> Build:
    """Every torn tail must scan to the committed prefix and recover."""
    base, batches = _split_batches(persons, seed)
    config = pipeline_config()
    pristine = workdir / "wal-pristine"
    last_id = len(batches) - 1

    def uninterrupted(workdir: Path) -> str:
        resolver = IncrementalResolver(base, config, wal=WriteAheadLog(pristine))
        for batch in batches:
            resolver.add_records(batch)
        assert resolver.wal is not None
        resolver.wal.close()
        return ranked_text(resolver.resolution())

    def torn_at(live: Path, offset: int) -> Path:
        torn_dir = workdir / "wal-torn"
        if torn_dir.exists():
            shutil.rmtree(torn_dir)
        shutil.copytree(pristine, torn_dir)
        with open(torn_dir / live.name, "r+b") as handle:
            handle.truncate(offset)
        return torn_dir

    def recovered(live: Path, offset: int, workdir: Path) -> str:
        resolver, report = IncrementalResolver.recover(
            torn_at(live, offset), base, config
        )
        lost_last = (
            report.batches_replayed == last_id
            and report.dropped_batches == (last_id,)
        )
        if lost_last:
            resolver.add_records(batches[-1])
        text = ranked_text(resolver.resolution())
        assert resolver.wal is not None
        resolver.wal.close()
        require(
            lost_last,
            f"tear at byte {offset}: replayed {report.batches_replayed}, "
            f"dropped {report.dropped_batches}, expected {last_id} "
            f"replayed + batch {last_id} dropped",
        )
        return text

    def scanned(live: Path, offset: int, workdir: Path) -> None:
        wal = WriteAheadLog(torn_at(live, offset))
        ok = (
            len(wal.committed_batches()) == last_id
            and tuple(wal.recovery.uncommitted_batches) == (last_id,)
        )
        wal.close()
        require(
            ok,
            f"tear at byte {offset} did not scan down to {last_id} "
            f"committed batches + batch {last_id} dropped",
        )

    def tears() -> Iterator[Variant]:
        live = sorted(pristine.glob("wal-*.log"))[-1]
        data = live.read_bytes()
        # The segment's final line is the last batch's commit marker;
        # every proper prefix of it is a torn write a real crash could
        # leave. Three sampled tears get a full recovery.
        tail_start = data.rstrip(b"\n").rfind(b"\n") + 1
        sampled = {tail_start, (tail_start + len(data)) // 2, len(data) - 1}
        for offset in range(tail_start, len(data)):
            if offset in sampled:
                yield Variant(
                    f"recovered tear at byte {offset}",
                    partial(recovered, live, offset),
                )
            else:
                yield Variant(
                    f"scanned tear at byte {offset}",
                    partial(scanned, live, offset),
                )

    return Variant("uninterrupted", uninterrupted), tears()


_Scenario = Callable[[int, int, Path], Build]

#: Scenario registry, in execution order: build(persons, seed, workdir).
SCENARIOS: Dict[str, _Scenario] = {
    "corrupt-rows": _corrupt_rows,
    "crash-resume": _crash_resume,
    "truncated-checkpoint": _truncated_checkpoint,
    "budget": _budget,
    "worker-crash": _worker_crash,
    "crash-mid-batch": _crash_mid_batch,
    "torn-wal": _torn_wal,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="seeded fault injection against the resilience layer",
    )
    parser.add_argument("--seed", default="0",
                        help="comma-separated fault seeds (default: 0)")
    parser.add_argument("--scenario", default="all",
                        choices=("all", *SCENARIOS),
                        help="which fault family to inject (default: all)")
    parser.add_argument("--persons", type=int, default=40)
    parser.add_argument("--artifacts-dir", type=Path, default=None,
                        help="keep quarantine/diff artifacts here "
                             "(default: temporary, removed on success)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.resilience.chaos`` and
    ``repro chaos``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = GateConfig(
            persons=args.persons, seeds=int_list(args.seed, "--seed")
        )
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    gates = [
        Gate(f"{name}-seed{seed}", partial(SCENARIOS[name], args.persons, seed))
        for seed in config.seeds
        for name in names
    ]
    code = run_gates(parser.prog, gates, artifacts_dir=args.artifacts_dir)
    if code == 1:
        print(
            f"{parser.prog}: kept checkpoint directories accumulate — prune "
            "with `repro checkpoint gc <dir> --keep N` (add --dry-run to "
            "list)",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
