"""Durable streaming ingestion — throughput and tail latency of the WAL.

The durable write path (``docs/RESILIENCE.md``, Durability) buys
crash-recoverable batches with two fsyncs per batch; this benchmark
prices that durability on one corpus. The second half of the Italy set
streams into an :class:`~repro.core.incremental.IncrementalResolver`
built on the first half, in fixed-size batches, under three modes:

* ``in-memory`` — no WAL at all (the PR-9 baseline);
* ``wal-nofsync`` — begin/commit logging without per-append fsync
  (what ``repro ingest --no-fsync`` does; survives process crashes,
  not power loss);
* ``wal-fsync`` — the full durability contract.

For each mode it reports sustained records/sec and the p99 add-batch
latency, and asserts the invariant that makes the comparison honest:
the ranked output is identical across all three — durability is a
latency cost, never a semantics change.
"""

from __future__ import annotations

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


def _stream(head, tail, config, wal=None):
    """Stream ``tail`` in batches; returns (lines, stats dict)."""
    resolver = IncrementalResolver(head, config, wal=wal)
    batches = [
        tail[start:start + BATCH_SIZE]
        for start in range(0, len(tail), BATCH_SIZE)
    ]
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
    emit("streaming", table)

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
