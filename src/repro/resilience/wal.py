"""Append-only delta write-ahead log (WAL): checksummed JSONL batches.

The durability of the streaming runtime (checkpoints,
:mod:`repro.resilience.snapshot`, only make restarts short).  Every applied
:class:`~repro.streaming.delta.DeltaBatch` is appended as one JSON line::

    {"seq": 7, "crc": 2839103841, "batch": {...}}

* ``seq`` is the WAL's own record number, consecutive from 1 — batches
  without a stream ``sequence`` still get a durable position, and a
  record whose number does not follow its predecessor's is corrupt;
* ``crc`` is the CRC-32 of the canonical (sorted-key, separator-free)
  JSON encoding of ``batch``, so bit rot and partial writes are caught
  at replay time.

Recovery semantics match what an interrupted append can actually
produce: a **torn final record** (truncated line or checksum mismatch on
the very last line) is tolerated — the log is exactly the complete
prefix — while a bad record anywhere *before* the tail means the file
cannot be trusted and raises :class:`~repro.errors.WALCorruptError` with
file/line context.  Opening a WAL for appending repairs a torn tail by
truncating it, so new records never concatenate onto half a line.

The ``wal.append`` failpoint (:mod:`repro.resilience.failpoints`,
kind ``"torn"``) simulates a crash mid-append: half the encoded record
is written and fsynced, then :class:`~repro.errors.InjectedFault` is
raised — which is precisely the state a power cut leaves behind.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.errors import InjectedFault, WALCorruptError, WALError
from repro.resilience import failpoints
from repro.streaming.delta import DeltaBatch

PathLike = Union[str, Path]


def _encode_batch(payload: dict) -> str:
    """The canonical encoding the CRC is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(encoded: str) -> int:
    return zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF


def record_frame(seq: int, payload: dict) -> dict:
    """The wire/WAL frame of one applied batch: ``{seq, crc, batch}``.

    This is byte-for-byte the envelope :meth:`DeltaWAL.append` writes, so
    WAL shipping (:mod:`repro.server.replication`) and the on-disk log
    share one format — a standby can verify a shipped frame exactly the
    way recovery verifies a stored record.
    """
    return {"seq": int(seq), "crc": _checksum(_encode_batch(payload)), "batch": payload}


def verify_frame(frame: dict) -> DeltaBatch:
    """Decode + checksum one shipped frame; raises :class:`WALCorruptError`.

    The replication-apply twin of :func:`scan_wal`'s per-line check: a
    frame whose CRC does not match its canonical batch encoding was
    corrupted in flight and must not be applied.
    """
    try:
        seq = int(frame["seq"])
        crc = int(frame["crc"])
        payload = frame["batch"]
    except (KeyError, TypeError, ValueError):
        raise WALCorruptError("malformed replication frame (missing seq/crc/batch)")
    if _checksum(_encode_batch(payload)) != crc:
        raise WALCorruptError(
            f"replication frame seq {seq} failed its checksum; refusing to apply"
        )
    try:
        return DeltaBatch.from_json_dict(payload)
    except Exception as error:
        raise WALCorruptError(
            f"replication frame seq {seq} does not decode to a delta batch: {error}"
        )


@dataclass(frozen=True)
class WALRecord:
    """One verified WAL record."""

    seq: int
    batch: DeltaBatch
    #: 1-based line number in the log file.
    line: int


@dataclass(frozen=True)
class WALScan:
    """Outcome of reading a WAL file front to back."""

    path: str
    records: tuple[WALRecord, ...]
    #: True when the final line was torn (interrupted append) and dropped.
    torn_tail: bool
    #: Byte offset of the end of the last complete record (the repair
    #: truncation point when the tail is torn).
    good_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


def scan_wal(path: PathLike) -> WALScan:
    """Read and verify ``path``; tolerate a torn tail, reject corruption."""
    path = str(path)
    records: list[WALRecord] = []
    torn = False
    good_bytes = 0
    if not os.path.exists(path):
        return WALScan(path=path, records=(), torn_tail=False, good_bytes=0)
    with open(path, "rb") as handle:
        raw = handle.read()
    offset = 0
    line_number = 0
    last_seq = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        final = newline < 0
        end = len(raw) if final else newline
        line_number += 1
        line = raw[offset:end]
        record = _verify_line(line, path, line_number, last_seq)
        if record is None:
            # Unreadable record: only acceptable as the very last line of
            # the file (an append the crash interrupted).
            if end < len(raw):
                raise WALCorruptError(
                    f"{path}:{line_number}: corrupt WAL record before the tail "
                    "(checksum or framing failure); the log cannot be trusted",
                    path=path,
                    line=line_number,
                )
            torn = True
            break
        records.append(record)
        last_seq = record.seq
        good_bytes = end + (0 if final else 1)
        offset = end + 1
    return WALScan(
        path=path, records=tuple(records), torn_tail=torn, good_bytes=good_bytes
    )


def _verify_line(
    line: bytes, path: str, line_number: int, last_seq: int
) -> Optional[WALRecord]:
    """Decode + verify one line; ``None`` means unreadable (maybe torn)."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        return None
    try:
        envelope = json.loads(text)
        seq = int(envelope["seq"])
        crc = int(envelope["crc"])
        payload = envelope["batch"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None
    if _checksum(_encode_batch(payload)) != crc:
        return None
    if seq != last_seq + 1:
        # Well-formed but out of sequence: this is real corruption — an
        # interrupted append can only lose bytes, and DeltaWAL numbers
        # its records 1, 2, 3, ...  The CRC covers the batch, not
        # ``seq``, so this check is what catches a damaged number.
        raise WALCorruptError(
            f"{path}:{line_number}: WAL record sequence {seq} does not follow "
            f"the previous record's {last_seq}",
            path=path,
            line=line_number,
        )
    try:
        batch = DeltaBatch.from_json_dict(payload)
    except Exception:
        return None
    return WALRecord(seq=seq, batch=batch, line=line_number)


class DeltaWAL:
    """An append-only, checksummed log of applied delta batches.

    ``fsync=True`` (the default) makes every append durable against
    power loss: the record is flushed *and* fsync'd before :meth:`append`
    returns, and the directory entry of a freshly created log is synced
    too.  ``fsync=False`` trades that for throughput — appends still
    survive process death (the OS holds the flushed bytes) but a machine
    crash may lose the unsynced suffix; :meth:`sync` forces the flush
    points by hand (batch-style durability).
    """

    def __init__(self, path: PathLike, *, fsync: bool = True) -> None:
        self._path = str(path)
        self._fsync = bool(fsync)
        scan = scan_wal(self._path)
        existed = os.path.exists(self._path)
        if scan.torn_tail:
            # Repair: drop the half-written tail so appends start clean.
            with open(self._path, "rb+") as handle:
                handle.truncate(scan.good_bytes)
                if self._fsync:
                    os.fsync(handle.fileno())
        self._last_seq = scan.last_seq
        self._records = len(scan.records)
        #: The ``{seq, crc, batch}`` frame of the newest :meth:`append`
        #: (``None`` before the first) — what replication ships, so the
        #: batch is encoded and checksummed once, here.
        self.last_frame: Optional[dict] = None
        self._handle = open(self._path, "a", encoding="utf-8")
        if self._fsync and not existed:
            # The log file itself must survive a power cut, not just its
            # records: persist the directory entry of a fresh WAL.  (Imported
            # here so that booting with a WAL does not load the store.)
            from repro.store.format import fsync_dir

            fsync_dir(self._path)

    @property
    def path(self) -> str:
        return self._path

    @property
    def last_seq(self) -> int:
        """The WAL sequence number of the newest durable record."""
        return self._last_seq

    @property
    def records(self) -> int:
        return self._records

    def append(self, batch: DeltaBatch) -> int:
        """Durably append one applied batch; returns its WAL sequence."""
        if self._handle.closed:
            raise WALError(f"WAL {self._path} is closed")
        seq = self._last_seq + 1
        frame = record_frame(seq, batch.to_json_dict())
        line = _encode_batch(frame)
        spec = failpoints.fire("wal.append")
        if spec is not None and spec.kind == "torn":
            # Crash simulation: half the record reaches the disk, then
            # the process "dies".  The file is left exactly as a power
            # cut would leave it.
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise InjectedFault(f"failpoint 'wal.append': {spec.message}")
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._last_seq = seq
        self._records += 1
        self.last_frame = frame
        return seq

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "DeltaWAL":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DeltaWAL({self._path!r}, records={self._records}, "
            f"last_seq={self._last_seq})"
        )
