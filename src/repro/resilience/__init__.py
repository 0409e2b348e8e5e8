"""Fault tolerance for the uncertain-ER pipeline.

The resilience layer has four parts, threaded through the whole system
(design and semantics in ``docs/RESILIENCE.md``):

* **checkpoint/resume** (:mod:`repro.resilience.checkpoints`) —
  versioned, content-hashed per-stage checkpoints with a byte-identical
  resume guarantee;
* **record quarantine** (:mod:`repro.resilience.quarantine`) —
  fail-fast / quarantine / repair policies for malformed rows at
  ingestion, persisted as ``quarantine.jsonl``;
* **stage budgets** (:mod:`repro.resilience.budgets`) — anytime
  semantics for blocking and mining, with an explicit ``degraded``
  flag;
* **fault injection** (:mod:`repro.resilience.faults` and the
  ``repro chaos`` CLI, :mod:`repro.resilience.chaos`) — seeded crashes,
  corruption, and truncation so recovery is asserted, not hoped for;
* **write-ahead log** (:mod:`repro.resilience.wal`) — segment-rotating
  durability for streaming ingestion: batches are begin/commit logged,
  one fsync per batch on the commit, so a crash mid-batch recovers to
  the committed prefix, byte-identically, replayed as one batch.

``chaos`` is deliberately not imported here: it drives the full
pipeline and importing it eagerly would cycle back into
:mod:`repro.core`.
"""

from __future__ import annotations

from repro.resilience.budgets import BudgetMeter, StageBudget
from repro.resilience.checkpoints import (
    CheckpointMiss,
    CheckpointStore,
    GcReport,
    canonical_digest,
    chain_fingerprint,
    gc_checkpoints,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    WorkerCrashPlan,
    WorkerHangPlan,
    corrupt_csv_rows,
    exhausting_budget,
    hang_worker,
    kill_current_worker,
    truncate_file,
)
from repro.resilience.quarantine import (
    Quarantine,
    QuarantineEntry,
    QuarantinePolicy,
    RowError,
)
from repro.resilience.wal import (
    WalBatch,
    WalError,
    WalFaultPlan,
    WalRecovery,
    WriteAheadLog,
)

__all__ = [
    "BudgetMeter",
    "StageBudget",
    "CheckpointMiss",
    "CheckpointStore",
    "GcReport",
    "canonical_digest",
    "chain_fingerprint",
    "gc_checkpoints",
    "FaultInjector",
    "FaultPlan",
    "SimulatedCrash",
    "WorkerCrashPlan",
    "WorkerHangPlan",
    "corrupt_csv_rows",
    "exhausting_budget",
    "hang_worker",
    "kill_current_worker",
    "truncate_file",
    "Quarantine",
    "QuarantineEntry",
    "QuarantinePolicy",
    "RowError",
    "WalBatch",
    "WalError",
    "WalFaultPlan",
    "WalRecovery",
    "WriteAheadLog",
]
