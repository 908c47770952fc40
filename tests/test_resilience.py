"""Unit tests for the resilience runtime primitives.

The end-to-end fault behaviour (deadline expiry in the kernel, torn WAL
writes, failover) lives in ``test_chaos.py``; this module pins the
building blocks in isolation: the failpoint registry, ``Deadline``,
``RetryPolicy``, the checksummed delta WAL, checkpoints + ``recover``, the
structured stream reader, and the CLI surface (flag validation and the
``recover`` verb).
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

import pytest

from repro.cli import main as cli_main
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    ReproError,
    StoreFormatError,
    StreamFormatError,
    WALCorruptError,
    WALError,
)
from repro.dataflow import DataflowEngine
from repro.model.io import save_json
from repro.model.itpg import IntervalTPG
from repro.resilience import (
    Deadline,
    DeltaWAL,
    RetryPolicy,
    failpoints,
    recover,
    scan_wal,
    write_snapshot,
)
from repro.streaming import (
    DeltaBatch,
    StreamingEngine,
    parse_stream_line,
    read_delta_stream,
)
from repro.temporal.interval import Interval


def small_graph() -> IntervalTPG:
    graph = IntervalTPG((0, 9))
    graph.add_node("a", "Person", [(0, 4)])
    graph.add_node("b", "Person", [(2, 9)])
    graph.add_node("r", "Room", [(0, 9)])
    graph.add_edge("e0", "meets", "a", "b", [(2, 4)])
    graph.add_edge("v0", "visits", "a", "r", [(1, 3)])
    return graph


QUERY = "MATCH (x:Person) ON g"


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.disarm_all()
    yield
    failpoints.disarm_all()


# --------------------------------------------------------------------- #
# Failpoint registry
# --------------------------------------------------------------------- #
class TestFailpoints:
    def test_unarmed_site_is_a_noop(self):
        assert failpoints.fire("nothing.armed") is None
        assert failpoints.hits("nothing.armed") == 0

    def test_raise_kind_fires_and_counts(self):
        failpoints.arm("unit.raise", "raise", times=2, message="boom")
        with pytest.raises(InjectedFault, match="boom"):
            failpoints.fire("unit.raise")
        with pytest.raises(InjectedFault):
            failpoints.fire("unit.raise")
        # Budget spent: the third call is a no-op but still counted.
        assert failpoints.fire("unit.raise") is None
        assert failpoints.hits("unit.raise") == 3

    def test_times_zero_fires_forever(self):
        failpoints.arm("unit.forever", "raise", times=0)
        for _ in range(5):
            with pytest.raises(InjectedFault):
                failpoints.fire("unit.forever")

    def test_cooperative_kind_returns_spec(self):
        failpoints.arm("unit.coop", "torn", times=1)
        spec = failpoints.fire("unit.coop")
        assert spec is not None and spec.kind == "torn"
        assert failpoints.fire("unit.coop") is None

    def test_disarm_single_site(self):
        failpoints.arm("unit.a", "raise", times=0)
        failpoints.arm("unit.b", "raise", times=0)
        failpoints.disarm("unit.a")
        assert failpoints.fire("unit.a") is None
        with pytest.raises(InjectedFault):
            failpoints.fire("unit.b")

    def test_disarm_all_retires_registry(self):
        failpoints.arm("unit.any", "raise", times=0)
        assert failpoints.registry_dir() is not None
        failpoints.disarm_all()
        assert failpoints.registry_dir() is None
        assert failpoints.fire("unit.any") is None

    def test_registry_is_published_via_environment(self):
        failpoints.arm("unit.env", "raise")
        base = failpoints.registry_dir()
        assert base == os.environ[failpoints.ENV_VAR]
        assert os.path.exists(os.path.join(base, "unit.env.json"))


# --------------------------------------------------------------------- #
# Deadline
# --------------------------------------------------------------------- #
class TestDeadline:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1.5)

    def test_fresh_deadline_is_not_expired(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        deadline.check()  # must not raise

    def test_check_raises_structured_error_with_progress(self):
        deadline = Deadline(0.001)
        deadline.progress["steps_completed"] = 3
        while not deadline.expired():
            pass
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check()
        error = excinfo.value
        assert error.deadline_seconds == 0.001
        assert error.elapsed >= 0.001
        assert error.partial == {"steps_completed": 3}

    def test_deadline_exceeded_is_a_timeout(self):
        error = Deadline(5.0).exceeded()
        assert isinstance(error, TimeoutError)
        assert isinstance(error, ReproError)


# --------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_seeded_delays_are_deterministic(self):
        first = list(RetryPolicy(retries=4, seed=42).delays())
        second = list(RetryPolicy(retries=4, seed=42).delays())
        assert first == second
        assert len(first) == 4

    def test_delays_without_jitter_are_capped_exponential(self):
        policy = RetryPolicy(
            retries=5, base_delay=0.1, max_delay=0.5, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            retries=50, base_delay=0.1, max_delay=0.1, jitter=0.5, seed=7
        )
        for delay in policy.delays():
            assert 0.05 <= delay <= 0.15


# --------------------------------------------------------------------- #
# Delta WAL
# --------------------------------------------------------------------- #
class TestDeltaWAL:
    def _batches(self, n=3):
        return [
            DeltaBatch(sequence=i).add_existence("a", 5, 6) for i in range(1, n + 1)
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "deltas.wal"
        with DeltaWAL(path) as wal:
            for batch in self._batches(3):
                wal.append(batch)
            assert wal.last_seq == 3
            assert wal.records == 3
        scan = scan_wal(path)
        assert not scan.torn_tail
        assert [record.seq for record in scan.records] == [1, 2, 3]
        assert scan.records[0].batch.sequence == 1
        assert scan.last_seq == 3

    def test_rejected_batch_never_reaches_the_wal(self, tmp_path):
        """The WAL is the applied prefix: a batch the graph rejects stops
        the log at the last good batch."""
        path = tmp_path / "deltas.wal"
        session = StreamingEngine(small_graph())
        session.register(QUERY, name="people")
        session.attach_wal(str(path))
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        before = session.table("people").as_set()
        with pytest.raises(ReproError):
            session.apply(DeltaBatch(sequence=2).add_existence("ghost", 0, 1))
        session.wal.close()
        assert [record.seq for record in scan_wal(path).records] == [1]
        assert session.last_sequence == 1 and session.wal_seq == 1
        assert session.table("people").as_set() == before

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.wal")
        assert scan.records == () and not scan.torn_tail

    def test_append_to_closed_wal_raises(self, tmp_path):
        wal = DeltaWAL(tmp_path / "w.wal")
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.append(DeltaBatch())

    def _tear_tail(self, path):
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])

    def test_torn_tail_is_tolerated_and_repaired_on_open(self, tmp_path):
        path = tmp_path / "deltas.wal"
        with DeltaWAL(path) as wal:
            for batch in self._batches(3):
                wal.append(batch)
        self._tear_tail(path)
        scan = scan_wal(path)
        assert scan.torn_tail
        assert scan.last_seq == 2
        # Re-opening repairs: the half-line is truncated, appends resume.
        with DeltaWAL(path) as wal:
            assert wal.last_seq == 2
            assert wal.append(DeltaBatch(sequence=9)) == 3
        healed = scan_wal(path)
        assert not healed.torn_tail
        assert [record.seq for record in healed.records] == [1, 2, 3]

    def test_corruption_before_tail_is_rejected(self, tmp_path):
        path = tmp_path / "deltas.wal"
        with DeltaWAL(path) as wal:
            for batch in self._batches(3):
                wal.append(batch)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2].rstrip(b"\n") + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(WALCorruptError, match="before the tail") as excinfo:
            scan_wal(path)
        assert excinfo.value.line == 2

    def test_checksum_mismatch_mid_file_is_rejected(self, tmp_path):
        path = tmp_path / "deltas.wal"
        with DeltaWAL(path) as wal:
            for batch in self._batches(2):
                wal.append(batch)
        lines = path.read_text().splitlines()
        envelope = json.loads(lines[0])
        envelope["crc"] = (envelope["crc"] + 1) % (2**32)
        lines[0] = json.dumps(envelope)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptError):
            scan_wal(path)

    def test_out_of_order_sequence_is_corruption(self, tmp_path):
        path = tmp_path / "deltas.wal"
        with DeltaWAL(path) as wal:
            for batch in self._batches(2):
                wal.append(batch)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[1], lines[0]]) + "\n")
        with pytest.raises(WALCorruptError, match="does not follow"):
            scan_wal(path)

    def test_flipped_sequence_number_is_corruption(self, tmp_path):
        # The CRC covers the batch, not ``seq``: one bit turns the last
        # record's 4 into a 5, a number DeltaWAL never writes there.
        path = tmp_path / "deltas.wal"
        with DeltaWAL(path) as wal:
            for batch in self._batches(4):
                wal.append(batch)
        raw = path.read_bytes()
        at = raw.rindex(b'"seq":4') + len(b'"seq":')
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :])
        assert b'"seq":5' in path.read_bytes()
        with pytest.raises(WALCorruptError, match="does not follow") as excinfo:
            scan_wal(path)
        assert excinfo.value.line == 4

    def test_torn_append_failpoint_leaves_recoverable_prefix(self, tmp_path):
        path = tmp_path / "deltas.wal"
        wal = DeltaWAL(path)
        wal.append(DeltaBatch(sequence=1))
        failpoints.arm("wal.append", "torn", times=1)
        with pytest.raises(InjectedFault):
            wal.append(DeltaBatch(sequence=2))
        wal.close()
        scan = scan_wal(path)
        assert scan.torn_tail
        assert scan.last_seq == 1


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None


@functools.lru_cache(maxsize=1)
def _intact_wal() -> tuple[bytes, tuple]:
    """A four-record WAL's bytes and its ``(seq, batch dict)`` records."""
    batches = [
        DeltaBatch(sequence=1).add_existence("a", 5, 6),
        DeltaBatch(sequence=2).add_node("c", "Person", [(3, 7)]),
        DeltaBatch(sequence=3).set_property("c", "risk", "high", 3, 5),
        DeltaBatch().add_edge("e9", "meets", "a", "c", [(3, 4)]),
    ]
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "deltas.wal")
        with DeltaWAL(path, fsync=False) as wal:
            for batch in batches:
                wal.append(batch)
        with open(path, "rb") as handle:
            raw = handle.read()
    records = tuple((seq, batch.to_json_dict()) for seq, batch in enumerate(batches, 1))
    return raw, records


if st is not None:

    class TestWALByteFuzz:
        """Mutated WAL bytes land on the durable prefix or are refused.

        Each case flips 1–3 bits of an intact four-record log and maybe
        truncates it.  ``scan_wal`` must return a prefix of the intact
        records (same ``seq``, same batch) or raise
        :class:`WALCorruptError` — any other exception type is a bug.
        """

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(
            flips=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=3),
            cut=st.none() | st.integers(min_value=0, max_value=2**20),
        )
        def test_scan_returns_an_intact_prefix_or_refuses(self, flips, cut):
            raw, intact = _intact_wal()
            mutated = bytearray(raw)
            for bit in flips:
                bit %= 8 * len(raw)
                mutated[bit // 8] ^= 1 << (bit % 8)
            if cut is not None:
                del mutated[cut % (len(raw) + 1) :]
            with tempfile.TemporaryDirectory() as tmpdir:
                path = os.path.join(tmpdir, "deltas.wal")
                with open(path, "wb") as handle:
                    handle.write(mutated)
                try:
                    scan = scan_wal(path)
                except WALCorruptError:
                    return
            got = tuple((record.seq, record.batch.to_json_dict()) for record in scan.records)
            assert got == intact[: len(got)]


# --------------------------------------------------------------------- #
# Snapshots + recover
# --------------------------------------------------------------------- #
class TestDurableWrites:
    """fsync discipline: records, fresh files, and renamed snapshots.

    An atomic rename (or an appended record) that never reaches the disk
    is not durable — a power cut resurrects the old state or loses the
    file entirely.  These tests pin the fsync calls with a counting
    monkeypatch instead of pulling the plug.
    """

    def _count_fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        return calls

    def test_wal_append_fsyncs_by_default(self, tmp_path, monkeypatch):
        wal = DeltaWAL(str(tmp_path / "d.wal"))
        calls = self._count_fsyncs(monkeypatch)
        wal.append(DeltaBatch(sequence=1).add_existence("a", 5, 6))
        wal.append(DeltaBatch(sequence=2).add_existence("a", 7, 8))
        wal.close()
        assert len(calls) >= 2  # one per appended record

    def test_wal_fsync_opt_out_defers_to_sync(self, tmp_path, monkeypatch):
        wal = DeltaWAL(str(tmp_path / "d.wal"), fsync=False)
        calls = self._count_fsyncs(monkeypatch)
        wal.append(DeltaBatch(sequence=1).add_existence("a", 5, 6))
        assert calls == []  # batch style: appends only flush
        wal.sync()
        assert len(calls) == 1
        wal.close()

    def test_fresh_wal_persists_its_directory_entry(self, tmp_path, monkeypatch):
        from repro.store import format as format_module

        synced = []
        monkeypatch.setattr(
            format_module, "fsync_dir", lambda path: synced.append(str(path))
        )
        DeltaWAL(str(tmp_path / "fresh.wal")).close()
        assert synced == [str(tmp_path / "fresh.wal")]
        # Re-opening an existing WAL does not need the directory sync.
        synced.clear()
        DeltaWAL(str(tmp_path / "fresh.wal")).close()
        assert synced == []

    def test_snapshot_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        # A checkpoint is written by the artifact writer.
        from repro.store import format as format_module

        events = []
        real_fsync = os.fsync
        real_replace = os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync-file"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        monkeypatch.setattr(
            format_module, "fsync_dir", lambda path: events.append("fsync-dir")
        )
        session = StreamingEngine(small_graph())
        session.register(QUERY, name="people")
        write_snapshot(session, tmp_path / "state.snap")
        assert events == ["fsync-file", "replace", "fsync-dir"]

    def test_fsync_dir_syncs_the_parent_directory(self, tmp_path, monkeypatch):
        from repro.store.format import fsync_dir

        target = tmp_path / "some.file"
        target.write_text("x")
        fds = self._count_fsyncs(monkeypatch)
        fsync_dir(target)
        assert len(fds) == 1

    def test_attach_wal_fsync_passthrough(self, tmp_path, monkeypatch):
        session = StreamingEngine(small_graph())
        session.attach_wal(str(tmp_path / "d.wal"), fsync=False)
        calls = self._count_fsyncs(monkeypatch)
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        assert calls == []  # opted out: the batch was only flushed
        session.wal.sync()
        assert len(calls) == 1
        session.wal.close()


class TestSnapshotRecovery:
    def _session(self):
        session = StreamingEngine(small_graph())
        session.register(QUERY, name="people")
        return session

    def test_snapshot_roundtrip(self, tmp_path):
        from repro.store import attach

        path = tmp_path / "state.rix"
        meta = write_snapshot(self._session(), path)
        assert meta["queries"] == [{"name": "people", "text": QUERY}]
        attachment = attach(str(path))
        try:
            assert attachment.meta["session"] == meta
            assert meta["wal_seq"] == 0 and meta["epoch"] == 0
            assert attachment.graph.domain == Interval(0, 9)
        finally:
            attachment.close()

    def test_legacy_json_snapshot_names_the_fix(self, tmp_path):
        path = tmp_path / "state.snap"
        legacy = {"format": "repro-snapshot/1", "epoch": 1, "wal_seq": 1,
                  "sequence": 1, "queries": [], "graph": {}}
        path.write_text(json.dumps(legacy, sort_keys=True))
        with pytest.raises(StoreFormatError, match="legacy JSON snapshot") as info:
            recover(path)
        assert "Delete the file" in str(info.value)
        assert "full WAL" in str(info.value)

    def test_foreign_file_keeps_the_store_error(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text(json.dumps({"format": "something/else", "pad": "x" * 64}))
        with pytest.raises(StoreFormatError, match="bad magic"):
            recover(path)

    def test_compiled_store_recovers_as_a_fresh_session(self, tmp_path):
        from repro.store import compile_graph

        wal_path = tmp_path / "deltas.wal"
        path = str(tmp_path / "plain.rix")
        compile_graph(small_graph(), path)  # no session record
        session = self._session()
        session.attach_wal(str(wal_path))
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        session.wal.close()
        recovered, report = recover(path, wal_path)
        assert report.queries == () and report.snapshot_wal_seq == 0
        assert (report.skipped, report.replayed) == (0, 1)
        assert recovered.epoch == 1 and recovered.wal_seq == 1

    def test_snapshot_requires_query_text(self, tmp_path):
        from dataclasses import replace

        from repro.datagen.random_graphs import random_match_query

        session = StreamingEngine(small_graph())
        session.register(replace(random_match_query(38), text=None), name="opaque")
        with pytest.raises(WALError, match="MATCH text is unknown"):
            write_snapshot(session, tmp_path / "state.snap")

    def test_recover_replays_only_the_wal_tail(self, tmp_path):
        wal_path = tmp_path / "deltas.wal"
        snap_path = tmp_path / "state.snap"
        session = self._session()
        session.attach_wal(str(wal_path))
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        write_snapshot(session, snap_path)  # captures WAL position 1
        session.apply(
            DeltaBatch(sequence=2)
            .extend_domain(14)
            .add_node("c", "Person", [(10, 12)])
        )
        session.wal.close()
        recovered, report = recover(snap_path, wal_path)
        assert report.skipped == 1 and report.replayed == 1
        assert not report.torn_tail
        assert report.queries == ("people",)
        assert recovered.wal_seq == 2
        assert recovered.graph.domain == Interval(0, 14)
        assert recovered.table("people").as_set() == session.table("people").as_set()

    def test_recover_restores_the_epoch(self, tmp_path):
        wal_path = tmp_path / "deltas.wal"
        snap_path = tmp_path / "state.snap"
        session = self._session()
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))  # unlogged
        session.attach_wal(str(wal_path))
        session.apply(DeltaBatch(sequence=2).add_existence("b", 0, 1))
        write_snapshot(session, snap_path)  # epoch 2, WAL position 1
        session.apply(DeltaBatch(sequence=3).add_existence("a", 8, 9))
        session.wal.close()
        recovered, report = recover(snap_path, wal_path)
        assert (report.snapshot_sequence, report.snapshot_wal_seq) == (2, 1)
        assert report.replayed == 1
        assert recovered.epoch == session.epoch == 3

    def test_recover_without_wal_is_snapshot_only(self, tmp_path):
        snap_path = tmp_path / "state.snap"
        write_snapshot(self._session(), snap_path)
        recovered, report = recover(snap_path)
        assert report.replayed == 0 and report.wal_path is None
        assert recovered.table("people").as_set()

    def test_recovered_session_resumes_durably(self, tmp_path):
        """Recovery → reattach WAL → new appends land after the old tail."""
        wal_path = tmp_path / "deltas.wal"
        snap_path = tmp_path / "state.snap"
        session = self._session()
        session.attach_wal(str(wal_path))
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        write_snapshot(session, snap_path)
        session.wal.close()
        recovered, _report = recover(snap_path, wal_path)
        recovered.attach_wal(str(wal_path))
        recovered.apply(DeltaBatch(sequence=2).add_existence("b", 0, 1))
        recovered.wal.close()
        assert [record.seq for record in scan_wal(wal_path).records] == [1, 2]

    def test_report_to_dict_is_json_serializable(self, tmp_path):
        snap_path = tmp_path / "state.snap"
        write_snapshot(self._session(), snap_path)
        _, report = recover(snap_path)
        assert json.loads(json.dumps(report.to_dict()))["queries"] == ["people"]


# --------------------------------------------------------------------- #
# Structured stream reading
# --------------------------------------------------------------------- #
class TestStreamReader:
    def test_invalid_json_carries_position(self):
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_line("{not json", path="d.jsonl", number=4)
        error = excinfo.value
        assert error.path == "d.jsonl" and error.line == 4
        assert "d.jsonl:4: invalid JSON" in str(error)

    def test_non_object_payload_rejected(self):
        with pytest.raises(StreamFormatError, match="expected a JSON object"):
            parse_stream_line("[1, 2]", path="d.jsonl", number=1)

    def test_non_integer_sequence_rejected(self):
        with pytest.raises(StreamFormatError, match="sequence must be an"):
            parse_stream_line('{"sequence": "seven"}', path="d.jsonl", number=2)

    def test_malformed_batch_carries_sequence(self):
        line = json.dumps({"sequence": 7, "nodes": [{"bogus": True}]})
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_line(line, path="d.jsonl", number=3)
        assert excinfo.value.sequence == 7

    def test_reader_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        path.write_text(
            "# header comment\n\n"
            + json.dumps(DeltaBatch(sequence=1).to_json_dict())
            + "\n"
        )
        records = list(read_delta_stream(path))
        assert len(records) == 1
        number, batch = records[0]
        assert number == 3 and batch.sequence == 1

    def test_malformed_line_leaves_engine_state_untouched(self, tmp_path):
        session = StreamingEngine(small_graph())
        session.register(QUERY, name="people")
        before = session.table("people").as_set()
        with pytest.raises(StreamFormatError):
            parse_stream_line("{broken", path="d.jsonl", number=1)
        assert session.table("people").as_set() == before
        assert session.last_sequence is None


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCliResilience:
    def _graph(self, tmp_path):
        path = tmp_path / "graph.json"
        save_json(small_graph(), path)
        return str(path)

    def test_snapshot_requires_wal(self, tmp_path, capsys):
        # Without a WAL a checkpoint covers no crash: refused before any
        # file is touched.
        snapshot = tmp_path / "s.rix"
        code = cli_main(
            ["serve", "--graph", self._graph(tmp_path), "--snapshot", str(snapshot)]
        )
        assert code == 2
        assert "--snapshot requires --wal" in capsys.readouterr().err
        assert not snapshot.exists()

    def test_deadline_requires_dataflow_engine(self, tmp_path, capsys):
        code = cli_main(
            [
                "query", QUERY, "--graph", self._graph(tmp_path),
                "--engine", "reference", "--deadline", "5",
            ]
        )
        assert code == 2
        assert "apply to the dataflow engine only" in capsys.readouterr().err

    def test_deadline_flag_cancels_query(self, tmp_path, capsys):
        failpoints.arm("engine.step", "sleep", seconds=0.2, times=0)
        code = cli_main(
            [
                "query", QUERY, "--graph", self._graph(tmp_path),
                "--deadline", "0.05",
            ]
        )
        assert code == 2
        assert "deadline" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Engine integration: explain() exposes the deadline
# --------------------------------------------------------------------- #
class TestEngineExplain:
    def test_explain_reports_deadline(self):
        engine = DataflowEngine(small_graph(), deadline_seconds=30.0)
        plan = engine.explain(QUERY)
        assert plan["deadline_seconds"] == 30.0

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            DataflowEngine(small_graph(), deadline_seconds=-1.0)
