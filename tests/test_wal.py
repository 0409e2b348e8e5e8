"""Tests for the write-ahead log (repro.resilience.wal)."""

from __future__ import annotations

import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.faults import SimulatedCrash
from repro.resilience.wal import (
    WAL_SCHEMA,
    WalError,
    WalFaultPlan,
    WriteAheadLog,
    decode_entry,
    encode_entry,
)


def _write_batches(directory, batches, **kwargs):
    """Append every batch (begin + commit) and close the log."""
    wal = WriteAheadLog(directory, **kwargs)
    for batch_id, records in enumerate(batches):
        wal.append_begin(batch_id, records)
        wal.append_commit(batch_id)
    wal.close()
    return wal


def _records(batch_id, n=2):
    return [
        {"book_id": 100 * batch_id + i, "name": f"rec-{batch_id}-{i}"}
        for i in range(n)
    ]


class TestEntryCodec:
    def test_roundtrip(self):
        line = encode_entry(7, "begin", 3, {"records": [{"book_id": 1}]})
        entry = decode_entry(line)
        assert entry.seq == 7
        assert entry.kind == "begin"
        assert entry.batch_id == 3
        assert entry.payload == {"records": [{"book_id": 1}]}

    def test_rejects_garbage(self):
        with pytest.raises(WalError, match="undecodable"):
            decode_entry(b"\xff\xfe not json\n")

    def test_rejects_tampered_payload(self):
        line = encode_entry(0, "commit", 0, {})
        document = json.loads(line)
        document["batch"] = 99  # bytes decode, hash must not
        tampered = (json.dumps(document) + "\n").encode("utf-8")
        with pytest.raises(WalError, match="hash mismatch"):
            decode_entry(tampered)

    def test_rejects_wrong_schema(self):
        document = {
            "schema": WAL_SCHEMA + 1, "seq": 0, "kind": "commit",
            "batch": 0, "payload": {},
        }
        from repro.resilience.checkpoints import canonical_digest
        document["sha256"] = canonical_digest(
            {k: document[k] for k in
             ("schema", "seq", "kind", "batch", "payload")}
        )
        line = (json.dumps(document) + "\n").encode("utf-8")
        with pytest.raises(WalError, match="schema"):
            decode_entry(line)


class TestProtocol:
    def test_commit_makes_batch_durable(self, tmp_path):
        _write_batches(tmp_path / "wal", [_records(0), _records(1)])
        reopened = WriteAheadLog(tmp_path / "wal")
        ids = [batch.batch_id for batch in reopened.committed_batches()]
        assert ids == [0, 1]
        assert reopened.next_batch_id == 2
        assert reopened.recovery.torn_tail_bytes == 0
        reopened.close()

    def test_begin_while_open_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append_begin(0, _records(0))
        with pytest.raises(WalError, match="still open"):
            wal.append_begin(1, _records(1))
        wal.close()

    def test_commit_without_begin_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(WalError, match="open batch"):
            wal.append_commit(0)
        wal.close()

    def test_batch_ids_must_increase(self, tmp_path):
        wal = _write_batches(tmp_path / "wal", [_records(0), _records(1)])
        reopened = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(WalError, match="must increase"):
            reopened.append_begin(1, _records(1))
        reopened.close()

    def test_base_fingerprint_binding(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.ensure_base("aaaa")
        wal.ensure_base("aaaa")  # idempotent
        with pytest.raises(WalError, match="fingerprint mismatch"):
            wal.ensure_base("bbbb")
        wal.close()

    def test_rebind_with_history_refused(self, tmp_path):
        _write_batches(tmp_path / "wal", [_records(0)])
        (tmp_path / "wal" / "wal.meta.json").unlink(missing_ok=True)
        reopened = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(WalError, match="refusing to rebind"):
            reopened.ensure_base("cccc")
        reopened.close()

    def test_counters_shape(self, tmp_path):
        wal = _write_batches(tmp_path / "wal", [_records(0)])
        counters = wal.counters()
        assert counters == {
            "segments": 1,
            "entries": 2,
            "batches_committed": 1,
            "uncommitted_dropped": 0,
            "torn_tail_dropped": 0,
        }

    def test_one_segment_fsync_per_committed_batch(self, tmp_path, monkeypatch):
        """Only the commit is fsync'd; directory fsyncs track segment creation."""
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=400)
        for batch_id in range(8):
            before = synced.count("file")
            wal.append_begin(batch_id, _records(batch_id, n=3))
            assert synced.count("file") == before  # the begin is not synced
            wal.append_commit(batch_id)
            assert synced.count("file") == before + 1
        wal.close()
        segments = len(list((tmp_path / "wal").glob("wal-*.log")))
        assert segments >= 2
        # Each segment syncs the directory once, when it is created;
        # closing a full segment changes no directory entry.
        assert synced.count("dir") == segments


class TestRecovery:
    def test_torn_tail_truncated_and_counted(self, tmp_path):
        _write_batches(tmp_path / "wal", [_records(0), _records(1)])
        segment = next((tmp_path / "wal").glob("wal-*.log"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-10])  # tear the final commit line

        reopened = WriteAheadLog(tmp_path / "wal")
        ids = [batch.batch_id for batch in reopened.committed_batches()]
        assert ids == [0]
        assert reopened.recovery.uncommitted_batches == [1]
        assert reopened.recovery.uncommitted_records == 2
        assert reopened.recovery.torn_tail_bytes > 0
        reopened.close()
        # The tear is physically gone: the log now ends at batch 0's
        # commit newline and a further reopen drops nothing.
        again = WriteAheadLog(tmp_path / "wal")
        assert again.recovery.torn_tail_bytes == 0
        assert [b.batch_id for b in again.committed_batches()] == [0]
        again.close()

    def test_dangling_begin_dropped(self, tmp_path):
        wal = _write_batches(tmp_path / "wal", [_records(0)])
        reopened = WriteAheadLog(tmp_path / "wal")
        reopened.append_begin(1, _records(1, n=3))
        reopened.close()  # crash before commit

        recovered = WriteAheadLog(tmp_path / "wal")
        assert [b.batch_id for b in recovered.committed_batches()] == [0]
        assert recovered.recovery.uncommitted_batches == [1]
        assert recovered.recovery.uncommitted_records == 3
        assert recovered.next_batch_id == 1
        recovered.close()

    @pytest.mark.parametrize("keep_newline", [False, True])
    def test_zeroed_begin_drops_its_commit_and_the_rest(
        self, tmp_path, keep_newline
    ):
        """A begin lost to power failure (read back as zeros) is a tear.

        Its commit line is intact, yet the batch, and every batch after
        it, is dropped and counted: a commit never survives without its
        begin.
        """
        _write_batches(tmp_path / "wal", [_records(i) for i in range(4)])
        segment = next((tmp_path / "wal").glob("wal-*.log"))
        lines = segment.read_bytes().splitlines(keepends=True)
        assert decode_entry(lines[4]).kind == "begin"  # batch 2's begin
        assert decode_entry(lines[5]).kind == "commit"
        zeroed = len(lines[4]) - 1 if keep_newline else len(lines[4])
        lines[4] = bytes(zeroed) + lines[4][zeroed:]
        segment.write_bytes(b"".join(lines))
        kept = sum(len(line) for line in lines[:4])
        total = sum(len(line) for line in lines)

        recovered = WriteAheadLog(tmp_path / "wal")
        assert [b.batch_id for b in recovered.committed_batches()] == [0, 1]
        assert recovered.recovery.uncommitted_batches == []
        assert recovered.recovery.torn_tail_bytes == total - kept
        assert segment.stat().st_size == kept
        assert recovered.next_batch_id == 2
        recovered.close()

    def test_seq_gap_is_a_tear(self, tmp_path):
        _write_batches(
            tmp_path / "wal", [_records(0), _records(1), _records(2)]
        )
        segment = next((tmp_path / "wal").glob("wal-*.log"))
        lines = segment.read_bytes().splitlines(keepends=True)
        del lines[2]  # drop batch 1's begin: seq 0,1,3,4,5
        segment.write_bytes(b"".join(lines))

        recovered = WriteAheadLog(tmp_path / "wal")
        assert [b.batch_id for b in recovered.committed_batches()] == [0]
        assert recovered.recovery.torn_tail_bytes > 0
        recovered.close()

    def test_stranded_segments_past_tear_dropped(self, tmp_path):
        batches = [_records(i, n=4) for i in range(12)]
        _write_batches(tmp_path / "wal", batches, segment_max_bytes=400)
        segments = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert len(segments) > 2
        # Corrupt a line in the middle segment: everything after it —
        # including whole later segments — is unreachable history.
        victim = segments[1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2] + b"garbage\n")

        recovered = WriteAheadLog(tmp_path / "wal")
        assert recovered.recovery.dropped_segments  # later files removed
        survivors = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert survivors[-1].name <= victim.name
        # Committed prefix only, and it is still appendable.
        n_kept = len(recovered.committed_batches())
        assert 0 < n_kept < len(batches)
        recovered.append_begin(n_kept, _records(n_kept))
        recovered.append_commit(n_kept)
        recovered.close()

    def test_empty_directory_is_a_fresh_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.committed_batches() == ()
        assert wal.next_batch_id == 0
        assert wal.counters()["segments"] == 0
        wal.close()


class TestRotation:
    def test_rotation_produces_segments(self, tmp_path):
        batches = [_records(i, n=3) for i in range(10)]
        _write_batches(tmp_path / "wal", batches, segment_max_bytes=300)
        segments = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert len(segments) > 1
        reopened = WriteAheadLog(tmp_path / "wal")
        assert len(reopened.committed_batches()) == 10
        reopened.close()

    def test_fault_plan_fires_once(self, tmp_path):
        plan = WalFaultPlan(crash_after_append=1)
        wal = WriteAheadLog(tmp_path / "wal", fault=plan)
        wal.append_begin(0, _records(0))
        with pytest.raises(SimulatedCrash):
            wal.append_commit(0)
        assert plan.fired
        wal.close()
        # The commit line itself landed before the crash.
        recovered = WriteAheadLog(tmp_path / "wal")
        assert [b.batch_id for b in recovered.committed_batches()] == [0]
        recovered.close()


# -- property tests -----------------------------------------------------------

record_dicts = st.fixed_dictionaries(
    {"book_id": st.integers(0, 10**6), "name": st.text(max_size=6)}
)
batch_lists = st.lists(
    st.lists(record_dicts, min_size=1, max_size=3), min_size=1, max_size=6
)


class TestWalProperties:
    @given(batches=batch_lists, cut=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_replay_is_idempotent(self, tmp_path_factory, batches, cut):
        """Scanning a (possibly torn) log twice equals scanning it once.

        The first open may truncate; the fixed point must be reached
        immediately — the second open sees a clean log, drops nothing,
        and recovers the identical committed prefix.
        """
        directory = tmp_path_factory.mktemp("wal-idem")
        _write_batches(directory, batches)
        segment = next(directory.glob("wal-*.log"))
        data = segment.read_bytes()
        segment.write_bytes(data[: min(cut, len(data))])

        first = WriteAheadLog(directory)
        first_ids = [b.batch_id for b in first.committed_batches()]
        first.close()
        bytes_after_first = segment.read_bytes()

        second = WriteAheadLog(directory)
        assert [b.batch_id for b in second.committed_batches()] == first_ids
        assert second.recovery.torn_tail_bytes == 0
        assert second.recovery.uncommitted_batches == []
        second.close()
        assert segment.read_bytes() == bytes_after_first

    @given(
        batches=st.lists(
            st.lists(record_dicts, min_size=1, max_size=4),
            min_size=2, max_size=10,
        ),
        segment_max=st.integers(64, 600),
    )
    @settings(max_examples=40, deadline=None)
    def test_rotation_never_splits_a_batch(
        self, tmp_path_factory, batches, segment_max
    ):
        """A batch's begin and commit always land in the same segment."""
        directory = tmp_path_factory.mktemp("wal-rot")
        _write_batches(directory, batches, segment_max_bytes=segment_max)
        total = 0
        for segment in sorted(directory.glob("wal-*.log")):
            open_batch = None
            for line in segment.read_bytes().splitlines(keepends=True):
                entry = decode_entry(line)
                if entry.kind == "begin":
                    assert open_batch is None
                    open_batch = entry.batch_id
                else:
                    assert open_batch == entry.batch_id
                    open_batch = None
                    total += 1
            # Segment boundary with a batch open = a split batch.
            assert open_batch is None
        assert total == len(batches)
