"""Durable streaming ingestion — throughput and tail latency of the WAL.

The durable write path (``docs/RESILIENCE.md``, Durability) buys
crash-recoverable batches with one fsync per batch, on its commit;
this benchmark prices that durability on one corpus. The second half of
the Italy set streams into an
:class:`~repro.core.incremental.IncrementalResolver` built on the first
half, in fixed-size batches, under three modes:

* ``in-memory`` — no WAL at all (the PR-9 baseline);
* ``wal-nofsync`` — begin/commit logging without the per-batch commit
  fsync (what ``repro ingest --no-fsync`` does; survives process
  crashes, not power loss);
* ``wal-fsync`` — the full durability contract.

For each mode it reports sustained records/sec and the p99 add-batch
latency, and asserts the invariant that makes the comparison honest:
the ranked output is identical across all three — durability is a
latency cost, never a semantics change.

A second table prices recovery against log length: the durable stream
is recovered after 25%, 50% and 100% of the arrivals are logged, next to
the ingest time that produced each log, and each recovered resolution
must equal the live one line for line.
"""

from __future__ import annotations

import math
import time

from bench_common import emit

from repro.core import PipelineConfig
from repro.core.incremental import IncrementalResolver
from repro.evaluation import format_table
from repro.resilience.wal import WriteAheadLog

BATCH_SIZE = 32


def _ranked_lines(resolution):
    # Format before comparing: raw float equality is banned outside
    # tests/ (reprolint RL003), and the durability contract is about
    # emitted bytes anyway.
    lines = []
    for evidence in resolution.ranked():
        a, b = evidence.pair
        lines.append(f"{a},{b},{evidence.similarity:.6f}")
    return lines


def _batches(tail):
    return [
        tail[start:start + BATCH_SIZE]
        for start in range(0, len(tail), BATCH_SIZE)
    ]


def _stream(head, tail, config, wal=None):
    """Stream ``tail`` in batches; returns (lines, stats dict)."""
    resolver = IncrementalResolver(head, config, wal=wal)
    batches = _batches(tail)
    latencies = []
    start = time.perf_counter()
    for batch in batches:
        tick = time.perf_counter()
        resolver.add_records(batch)
        latencies.append(time.perf_counter() - tick)
    total = time.perf_counter() - start
    if wal is not None:
        wal.close()
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return _ranked_lines(resolver.resolution()), {
        "batches": len(batches),
        "seconds": total,
        "records_per_sec": len(tail) / total,
        "p99_batch_ms": 1000.0 * p99,
        "segments": (
            resolver.wal_counters().get("segments", 0) if wal else 0
        ),
    }


def _recovery_curve(head, tail, config, wal_dir):
    """Recover the durable log after 25%, 50% and 100% of the arrivals.

    One fsync'd stream; at each point its log is recovered into a fresh
    resolver, which must rank exactly what the live one ranks. Returns
    one table row per point; ``replay s`` is ``recover s`` less the
    base build, timed once on the live resolver.
    """
    wal = WriteAheadLog(wal_dir, fsync=True)
    tick = time.perf_counter()
    resolver = IncrementalResolver(head, config, wal=wal)
    base_seconds = time.perf_counter() - tick
    points = [math.ceil(fraction * len(tail)) for fraction in (0.25, 0.5, 1.0)]
    rows = []
    logged = 0
    ingest_seconds = 0.0
    for batch in _batches(tail):
        tick = time.perf_counter()
        resolver.add_records(batch)
        ingest_seconds += time.perf_counter() - tick
        logged += len(batch)
        if logged < points[len(rows)]:
            continue
        wal.close()  # the next append reopens the live segment
        tick = time.perf_counter()
        recovered, report = IncrementalResolver.recover(wal_dir, head, config)
        recover_seconds = time.perf_counter() - tick
        recovered.wal.close()
        assert report.records_replayed == logged
        assert _ranked_lines(recovered.resolution()) == _ranked_lines(
            resolver.resolution()
        ), f"recovery after {logged} arrivals diverged from the live run"
        log_bytes = sum(path.stat().st_size for path in wal_dir.iterdir())
        rows.append([
            logged, report.batches_replayed, log_bytes / 1024.0,
            ingest_seconds, recover_seconds, recover_seconds - base_seconds,
        ])
    wal.close()
    return rows


def test_streaming_durability_cost(italy, benchmark, tmp_path):
    dataset, _persons = italy
    ids = sorted(dataset.record_ids)
    head = dataset.subset(ids[: len(ids) // 2], name="italy-head")
    tail = [dataset[rid] for rid in ids[len(ids) // 2:]]
    config = PipelineConfig(max_minsup=5, ng=3.0, expert_weighting=True)

    lines = {}
    stats = {}
    lines["in-memory"], stats["in-memory"] = _stream(head, tail, config)
    lines["wal-nofsync"], stats["wal-nofsync"] = _stream(
        head, tail, config,
        wal=WriteAheadLog(tmp_path / "wal-nofsync", fsync=False),
    )
    lines["wal-fsync"], stats["wal-fsync"] = _stream(
        head, tail, config,
        wal=WriteAheadLog(tmp_path / "wal-fsync", fsync=True),
    )

    # Durability must never change the resolution, only its latency.
    for mode in ("wal-nofsync", "wal-fsync"):
        assert lines[mode] == lines["in-memory"], (
            f"{mode} ranked output diverged from in-memory ingestion"
        )

    table = format_table(
        ["mode", "records/sec", "p99 batch ms", "seconds", "wal segments"],
        [
            [mode, stats[mode]["records_per_sec"],
             stats[mode]["p99_batch_ms"], stats[mode]["seconds"],
             stats[mode]["segments"]]
            for mode in ("in-memory", "wal-nofsync", "wal-fsync")
        ],
        title=(f"Streaming ingestion, {len(tail)} arrivals in "
               f"{stats['wal-fsync']['batches']} batches of <= {BATCH_SIZE} "
               f"onto {len(head)} base records"),
    )
    curve = format_table(
        ["arrivals logged", "batches", "log KB", "ingest s", "recover s",
         "replay s"],
        _recovery_curve(head, tail, config, tmp_path / "wal-curve"),
        title="Recovery time vs log length (wal-fsync)",
    )
    emit("streaming", table + "\n\n" + curve)

    # Time one durable batch for pytest-benchmark (fresh ids per round).
    bench_wal = WriteAheadLog(tmp_path / "wal-bench", fsync=True)
    bench_resolver = IncrementalResolver(head, config, wal=bench_wal)
    counter = iter(range(20_000_000, 21_000_000))

    def absorb_batch():
        batch = [
            type(record)(**{**record.__dict__, "book_id": next(counter)})
            for record in tail[:BATCH_SIZE]
        ]
        bench_resolver.add_records(batch)

    benchmark.pedantic(absorb_batch, rounds=10, iterations=1)
    bench_wal.close()
