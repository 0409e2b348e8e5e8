"""Write-ahead log: crash durability for streaming ingestion.

The batch pipeline already restarts from per-stage checkpoints
(:mod:`repro.resilience.checkpoints`); streaming ingestion needs the
complementary guarantee — a crash *mid-batch* must lose at most the
batch in flight, never silently corrupt the live resolution. The
:class:`WriteAheadLog` provides that with the classic two-entry commit
protocol over an append-only, segment-rotating log:

1. ``begin`` — the full serialized batch (its record dicts) is appended
   *before* any in-memory state changes (written through to the OS, not
   fsync'd);
2. the resolver applies the batch in memory;
3. ``commit`` — a marker for the same batch id is appended and fsync'd.
   A batch's ``begin`` and ``commit`` share a segment, so this one fsync
   makes both lines durable: one fsync per batch.

A batch is durable iff its ``commit`` marker is on disk. A ``begin``
that reached the disk without its commit is dropped on recovery like
any uncommitted begin, and a commit never survives without its begin:
recovery accepts a commit only right after its own begin in an unbroken
``seq`` chain, so a begin lost to power failure turns the commit behind
it into a tear. Recovery
(:meth:`WriteAheadLog.__init__` scans on open) replays exactly the
committed prefix and physically truncates everything after the last
commit: a torn final line (the shape a real crash produces), a ``begin``
whose ``commit`` never landed, or any undecodable byte. Dropped data is
*counted and reported*, never silently ignored — the resolver surfaces
the numbers through the run report's ``resilience.wal`` block.

On-disk layout (version :data:`WAL_SCHEMA`) under one directory::

    wal.meta.json        # {"schema": 1, "base_fingerprint": "<hex>"}
    wal-00000000.log     # JSONL entries, rotated by size
    wal-00000001.log     # rotation happens only *before* a begin,
    ...                  # so a batch never spans two segments

Each entry line is canonical JSON carrying its own SHA-256::

    {"batch": 3, "kind": "begin", "payload": {"records": [...]},
     "schema": 1, "seq": 6, "sha256": "<hex over the other fields>"}

``seq`` is strictly consecutive across segments, so a lost or reordered
line is detected even when the bytes themselves decode. The meta file
binds the log to its base snapshot (corpus content hash + config echo
chained through :func:`~repro.resilience.checkpoints.chain_fingerprint`)
and is written atomically (tmp + ``os.replace`` + fsync); replaying a
log against the wrong base corpus is refused, mirroring the checkpoint
store's fingerprint-mismatch-is-a-miss rule.

What is **not** guaranteed (also in ``docs/RESILIENCE.md``): the batch
in flight at the crash is dropped (at-most-once, not exactly-once);
``fsync=False`` trades the power-loss guarantee for throughput (the
process-crash guarantee survives); and the log records *inputs*, not
evidence — replay recomputes scoring, which is deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Mapping, Optional, Sequence, Tuple, Union

from repro.contracts import deterministic, impure
from repro.resilience.checkpoints import canonical_digest
from repro.resilience.faults import SimulatedCrash

__all__ = [
    "WAL_SCHEMA",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "WalError",
    "WalEntry",
    "WalBatch",
    "WalRecovery",
    "WalFaultPlan",
    "WriteAheadLog",
    "encode_entry",
    "decode_entry",
]

#: Version of the on-disk WAL layout. Readers reject other versions as
#: torn data, so format evolution can never produce a wrong replay.
WAL_SCHEMA = 1

#: Rotate the live segment once it reaches this size. Small enough that
#: recovery scans stay cheap, large enough that rotation is rare.
DEFAULT_SEGMENT_MAX_BYTES = 256 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_META_NAME = "wal.meta.json"

KIND_BEGIN = "begin"
KIND_COMMIT = "commit"


class WalError(RuntimeError):
    """A WAL protocol violation or base-fingerprint mismatch."""


@dataclass(frozen=True)
class WalEntry:
    """One decoded, integrity-verified log line."""

    seq: int
    kind: str
    batch_id: int
    payload: Mapping[str, Any]


@dataclass(frozen=True)
class WalBatch:
    """A committed batch as recovered from the log."""

    batch_id: int
    records: Tuple[Mapping[str, Any], ...]


@dataclass
class WalRecovery:
    """What the open-time scan found, kept, and dropped."""

    segments: int = 0
    entries: int = 0
    committed_batches: int = 0
    #: Batch ids whose ``begin`` landed but whose ``commit`` did not.
    uncommitted_batches: List[int] = field(default_factory=list)
    uncommitted_records: int = 0
    #: Bytes physically truncated because they were torn (undecodable,
    #: hash-mismatched, out-of-sequence) or stranded past a tear.
    torn_tail_bytes: int = 0
    #: Segment files removed entirely because they sat past a tear.
    dropped_segments: List[str] = field(default_factory=list)


@dataclass
class WalFaultPlan:
    """Crash the writer immediately after one durable append.

    ``crash_after_append`` is the 0-based index of the append to die
    after; with two entries per batch, even indexes crash between
    ``begin`` and the in-memory apply (the batch must be dropped on
    recovery) and odd indexes crash right after ``commit`` (the batch
    must survive). ``fired`` records whether the fault triggered so
    chaos tests can assert the kill happened.
    """

    crash_after_append: int = 0
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.crash_after_append < 0:
            raise ValueError(
                f"crash_after_append must be >= 0, "
                f"got {self.crash_after_append}"
            )

    def after_append(self, append_index: int) -> None:
        """Injection point: the WAL just wrote append ``append_index``.

        The line is flushed to the OS, and fsync'd too when it is a
        ``commit``: a process crash here keeps it either way.
        """
        if not self.fired and append_index == self.crash_after_append:
            self.fired = True
            raise SimulatedCrash(f"wal-append-{append_index}")


@deterministic
def encode_entry(
    seq: int, kind: str, batch_id: int, payload: Mapping[str, Any]
) -> bytes:
    """One log line: canonical JSON + trailing newline, self-hashed."""
    body: Dict[str, Any] = {
        "schema": WAL_SCHEMA,
        "seq": seq,
        "kind": kind,
        "batch": batch_id,
        "payload": dict(payload),
    }
    body["sha256"] = canonical_digest(body)
    text = json.dumps(
        body, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return (text + "\n").encode("utf-8")


@deterministic
def decode_entry(line: bytes) -> WalEntry:
    """Decode and integrity-check one log line; :class:`WalError` if torn."""
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WalError(f"undecodable WAL line: {error}") from error
    if not isinstance(document, dict):
        raise WalError("WAL line is not an object")
    declared = document.pop("sha256", None)
    if canonical_digest(document) != declared:
        raise WalError("WAL line hash mismatch")
    if document.get("schema") != WAL_SCHEMA:
        raise WalError(f"unsupported WAL schema: {document.get('schema')!r}")
    seq, kind, batch_id = (
        document.get("seq"), document.get("kind"), document.get("batch")
    )
    payload = document.get("payload")
    if (
        not isinstance(seq, int)
        or not isinstance(batch_id, int)
        or kind not in (KIND_BEGIN, KIND_COMMIT)
        or not isinstance(payload, dict)
    ):
        raise WalError("malformed WAL entry fields")
    return WalEntry(seq=seq, kind=kind, batch_id=batch_id, payload=payload)


class WriteAheadLog:
    """Append-only durability log for batched incremental resolution.

    Opening scans every segment, verifies the entry chain, and
    physically truncates anything past the last committed batch (torn
    tails, uncommitted begins, stranded segments); the damage report
    lives in :attr:`recovery`. The surviving committed batches are
    available through :meth:`committed_batches` for replay.

    ``fsync=False`` skips the per-batch ``os.fsync`` of each ``commit``
    (the streaming benchmark's "without durability" mode): writes still
    go through the OS, so a *process* crash loses nothing, but a power
    loss may.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        fsync: bool = True,
        fault: Optional[WalFaultPlan] = None,
    ) -> None:
        if segment_max_bytes < 1:
            raise ValueError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_enabled = fsync
        self.fault = fault
        self.recovery = WalRecovery()
        self._handle: Optional[IO[bytes]] = None
        self._appends = 0
        self._open_batch: Optional[int] = None
        self._committed: List[WalBatch] = []
        self._scan()

    # -- identity ------------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.directory / _META_NAME

    def base_fingerprint(self) -> Optional[str]:
        """The bound base-snapshot fingerprint, or ``None`` if unbound."""
        if not self.meta_path.is_file():
            return None
        try:
            document = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise WalError(f"unreadable WAL meta: {error}") from error
        if (
            not isinstance(document, dict)
            or document.get("schema") != WAL_SCHEMA
            or not isinstance(document.get("base_fingerprint"), str)
        ):
            raise WalError(f"malformed WAL meta: {self.meta_path}")
        fingerprint: str = document["base_fingerprint"]
        return fingerprint

    @impure(reason="atomic tmp+rename+fsync write of the WAL meta file")
    def ensure_base(self, fingerprint: str) -> None:
        """Bind the log to its base snapshot, or verify the binding.

        First call on a fresh directory writes ``wal.meta.json``
        atomically; later opens must present the same fingerprint —
        replaying a log against a different corpus or config is refused
        (a wrong replay is strictly worse than no replay).
        """
        existing = self.base_fingerprint()
        if existing is not None:
            if existing != fingerprint:
                raise WalError(
                    f"WAL base fingerprint mismatch: log is bound to "
                    f"{existing[:12]}…, caller presented {fingerprint[:12]}…"
                )
            return
        if self.recovery.entries or self._committed:
            raise WalError(
                "WAL has segments but no meta file; refusing to rebind"
            )
        document = {"schema": WAL_SCHEMA, "base_fingerprint": fingerprint}
        tmp = self.meta_path.with_name(self.meta_path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=1)
            handle.flush()
            if self.fsync_enabled:
                os.fsync(handle.fileno())
        os.replace(tmp, self.meta_path)
        self._fsync_directory()

    # -- write path ----------------------------------------------------------

    @impure(reason="appends a batch-intent entry to the live segment")
    def append_begin(
        self, batch_id: int, records: Sequence[Mapping[str, Any]]
    ) -> None:
        """Log the full batch payload before any state mutation."""
        if self._open_batch is not None:
            raise WalError(
                f"batch {self._open_batch} is still open; commit it first"
            )
        if self._committed and batch_id <= self._committed[-1].batch_id:
            raise WalError(
                f"batch ids must increase: {batch_id} after "
                f"{self._committed[-1].batch_id}"
            )
        payload = {"records": [dict(record) for record in records]}
        self._rotate_if_needed()
        self._append(KIND_BEGIN, batch_id, payload)
        self._open_batch = batch_id
        self._pending_records = tuple(
            dict(record) for record in records
        )

    @impure(reason="fsync-appends the commit marker to the live segment")
    def append_commit(self, batch_id: int) -> None:
        """Mark the open batch durable; a replay will now include it."""
        if self._open_batch != batch_id:
            raise WalError(
                f"commit for batch {batch_id} but open batch is "
                f"{self._open_batch}"
            )
        self._append(KIND_COMMIT, batch_id, {})
        self._committed.append(WalBatch(batch_id, self._pending_records))
        self._open_batch = None
        self._pending_records = ()

    def close(self) -> None:
        """Release the live segment handle (the log stays replayable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- read path -----------------------------------------------------------

    def committed_batches(self) -> Tuple[WalBatch, ...]:
        """Every durable batch, in commit order (scan + this session)."""
        return tuple(self._committed)

    @property
    def next_batch_id(self) -> int:
        """The smallest batch id a new ``begin`` may use."""
        if not self._committed:
            return 0
        return self._committed[-1].batch_id + 1

    def counters(self) -> Dict[str, int]:
        """JSON-safe counters for the run report ``resilience.wal`` block."""
        return {
            "segments": len(self._segment_paths()),
            "entries": self.recovery.entries + self._appends,
            "batches_committed": len(self._committed),
            "uncommitted_dropped": len(self.recovery.uncommitted_batches),
            "torn_tail_dropped": self.recovery.torn_tail_bytes,
        }

    # -- internals -----------------------------------------------------------

    def _segment_paths(self) -> List[Path]:
        return sorted(
            self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
        )

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"

    @staticmethod
    def _segment_index(path: Path) -> int:
        stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError as error:
            raise WalError(f"bad segment name: {path.name}") from error

    @impure(reason="scans, truncates, and deletes WAL segments on disk")
    def _scan(self) -> None:
        """Recover the committed prefix; truncate everything after it.

        The keep-point advances only across *committed* batches: after
        the scan, the last surviving byte on disk is the newline of the
        last ``commit`` entry (or byte 0 of the first segment). An
        uncommitted ``begin`` is valid JSON but not durable state — it
        is truncated away exactly like torn bytes, so the next append
        continues a clean, unambiguous history.
        """
        paths = self._segment_paths()
        torn = False
        next_seq = 0
        open_batch: Optional[Tuple[int, Tuple[Mapping[str, Any], ...]]] = None
        # (segment position, byte offset) after the last committed entry.
        keep_segment = 0
        keep_offset = 0
        keep_seq = 0
        kept_entries = 0
        kept_committed = 0
        for position, path in enumerate(paths):
            if torn:
                # Unreachable history past a tear: drop the whole file.
                self.recovery.torn_tail_bytes += path.stat().st_size
                self.recovery.dropped_segments.append(path.name)
                path.unlink()
                continue
            data = path.read_bytes()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                if newline == -1:
                    torn = True  # unterminated tail (torn final write)
                    break
                line = data[offset:newline + 1]
                try:
                    entry = decode_entry(line)
                except WalError:
                    torn = True
                    break
                if entry.seq != next_seq:
                    torn = True  # lost or reordered line
                    break
                if entry.kind == KIND_BEGIN:
                    if open_batch is not None:
                        torn = True  # begin while a batch is open
                        break
                    records = entry.payload.get("records")
                    if not isinstance(records, list):
                        torn = True
                        break
                    open_batch = (entry.batch_id, tuple(records))
                else:  # KIND_COMMIT
                    if open_batch is None or open_batch[0] != entry.batch_id:
                        torn = True  # commit without a matching begin
                        break
                    self._committed.append(WalBatch(*open_batch))
                    open_batch = None
                    keep_segment, keep_offset = position, newline + 1
                    keep_seq = entry.seq + 1
                    kept_entries = self.recovery.entries + 1
                    kept_committed += 1
                next_seq = entry.seq + 1
                self.recovery.entries += 1
                offset = newline + 1
            if torn or offset < len(data):
                break
        # A dangling begin at the clean end of the log is dropped the
        # same way a torn line is: it never committed.
        if open_batch is not None:
            self.recovery.uncommitted_batches.append(open_batch[0])
            self.recovery.uncommitted_records += len(open_batch[1])
        if torn or open_batch is not None:
            self._truncate_to(paths, keep_segment, keep_offset)
            self.recovery.entries = kept_entries
        self.recovery.segments = len(self._segment_paths())
        self.recovery.committed_batches = kept_committed
        self._next_seq = keep_seq if (torn or open_batch is not None) else next_seq
        self._pending_records: Tuple[Mapping[str, Any], ...] = ()
        remaining = self._segment_paths()
        if remaining:
            self._live_index = self._segment_index(remaining[-1])
            self._live_size = remaining[-1].stat().st_size
        else:
            self._live_index = 0
            self._live_size = 0

    def _truncate_to(
        self, paths: List[Path], keep_segment: int, keep_offset: int
    ) -> None:
        """Physically cut the log back to the last committed byte."""
        for position, path in enumerate(paths):
            if not path.exists():
                continue  # already dropped past an earlier tear
            size = path.stat().st_size
            if position < keep_segment:
                continue
            if position == keep_segment:
                if size > keep_offset:
                    self.recovery.torn_tail_bytes += size - keep_offset
                    with open(path, "r+b") as handle:
                        handle.truncate(keep_offset)
                        handle.flush()
                        if self.fsync_enabled:
                            os.fsync(handle.fileno())
                if keep_offset == 0 and position > 0:
                    # An empty non-first segment carries no history.
                    path.unlink()
                    self.recovery.dropped_segments.append(path.name)
            else:
                self.recovery.torn_tail_bytes += size
                self.recovery.dropped_segments.append(path.name)
                path.unlink()

    def _rotate_if_needed(self) -> None:
        """Start a new segment when the live one is full.

        Called only from :meth:`append_begin`, which is what guarantees
        a batch's ``begin`` and ``commit`` always share a segment.
        """
        if self._live_size < self.segment_max_bytes or self._live_size == 0:
            return
        self.close()
        self._live_index += 1
        self._live_size = 0

    @impure(reason="appends one entry, fsyncs a commit; chaos hook may crash here")
    def _append(
        self, kind: str, batch_id: int, payload: Mapping[str, Any]
    ) -> None:
        """Write one entry; only a ``commit`` is fsync'd.

        The commit's fsync also flushes the ``begin`` before it in the
        same segment, so the batch is durable exactly when its commit is.
        """
        line = encode_entry(self._next_seq, kind, batch_id, payload)
        if self._handle is None:
            path = self._segment_path(self._live_index)
            created = not path.exists()
            self._handle = open(path, "ab")
            if created:
                self._fsync_directory()
        self._handle.write(line)
        self._handle.flush()
        if self.fsync_enabled and kind == KIND_COMMIT:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        self._live_size += len(line)
        index = self._appends
        self._appends += 1
        if self.fault is not None:
            self.fault.after_append(index)

    @impure(reason="fsyncs the WAL directory after metadata changes")
    def _fsync_directory(self) -> None:
        if not self.fsync_enabled:
            return
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # platforms without directory fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
