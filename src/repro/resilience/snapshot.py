"""Streaming-state snapshots and crash recovery.

A snapshot is a self-contained JSON document capturing everything a
:class:`~repro.streaming.engine.StreamingEngine` needs to resume:

* the materialized graph (the :mod:`repro.model.io` JSON format);
* the stream position (last applied batch ``sequence``), the WAL
  position (last applied WAL record ``seq``) and the session ``epoch``;
* the registered queries (name + MATCH text).

Recovery composes the two durability halves::

    session, report = recover("snap.json", "deltas.wal")

loads the snapshot, re-registers its queries (re-deriving the per-seed
contribution caches — they are *not* serialized; they are a pure
function of graph + query, and rebuilding them from the snapshot graph
is exactly the cold-registration path the streaming oracle already
pins), then **idempotently replays the WAL tail** (:func:`replay_wal`,
also the WAL-only restart of a server host): records at or below the
session's WAL position are skipped, the rest are re-applied in order.
A torn final WAL record — the signature of a crash mid-append — is
tolerated and reported; corruption before the tail refuses recovery
(:class:`~repro.errors.WALCorruptError`).  :func:`restore` does the same
into a session the caller built (a server host keeps its own engine).

Snapshots are written atomically (temp file + ``os.replace``) and
durably (the temp file is fsync'd before the rename, the containing
directory after it), so a crash during a snapshot — process death *or*
power loss — leaves the previous snapshot intact and readable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import WALError
from repro.model.io import from_json_dict, to_json_dict
from repro.resilience.wal import fsync_dir, scan_wal

if TYPE_CHECKING:  # import cycle: streaming.engine reaches back here
    from repro.streaming.engine import StreamingEngine

PathLike = Union[str, Path]

#: Format marker embedded in (and required of) every snapshot document.
SNAPSHOT_FORMAT = "repro-snapshot/1"


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` did, for operators and the CLI verb."""

    snapshot_path: str
    wal_path: Optional[str]
    #: Stream position restored from the snapshot.
    snapshot_sequence: Optional[int]
    snapshot_wal_seq: int
    #: WAL records skipped as already captured by the snapshot.
    skipped: int
    #: WAL records replayed on top of the snapshot.
    replayed: int
    torn_tail: bool
    queries: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "snapshot_path": self.snapshot_path,
            "wal_path": self.wal_path,
            "snapshot_sequence": self.snapshot_sequence,
            "snapshot_wal_seq": self.snapshot_wal_seq,
            "skipped": self.skipped,
            "replayed": self.replayed,
            "torn_tail": self.torn_tail,
            "queries": list(self.queries),
        }

    def summary(self) -> str:
        torn = ", torn final WAL record dropped" if self.torn_tail else ""
        return (
            f"recovered from {self.snapshot_path} "
            f"(wal position {self.snapshot_wal_seq}): "
            f"{self.replayed} WAL record(s) replayed, {self.skipped} already "
            f"in the snapshot{torn}; {len(self.queries)} quer(y/ies) registered"
        )


def write_snapshot(session: StreamingEngine, path: PathLike) -> dict:
    """Atomically write a snapshot of ``session`` to ``path``.

    Returns the document's metadata (everything but the graph payload).
    """
    path = str(path)
    queries = []
    for name in session.query_names():
        text = session.query_text(name)
        if text is None:
            raise WALError(
                f"query {name!r} was registered from a compiled object whose "
                "MATCH text is unknown; snapshots need the text to re-register "
                "it on recovery"
            )
        queries.append({"name": name, "text": text})
    document = {
        "format": SNAPSHOT_FORMAT,
        "sequence": session.last_sequence,
        "wal_seq": session.wal_seq,
        "epoch": session.epoch,
        "queries": queries,
        "graph": to_json_dict(session.graph),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    # The rename is atomic but not durable until the directory entry
    # reaches the disk: without this a power cut can resurrect the old
    # snapshot — or leave none at all if it was the first.
    fsync_dir(path)
    return {key: value for key, value in document.items() if key != "graph"}


def load_snapshot(path: PathLike) -> dict:
    """Read and validate a snapshot document (raises on format mismatch)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != SNAPSHOT_FORMAT:
        raise WALError(
            f"{path}: not a streaming snapshot "
            f"(format {document.get('format')!r}, expected {SNAPSHOT_FORMAT!r})"
        )
    return document


def recover(
    snapshot_path: PathLike,
    wal_path: Optional[PathLike] = None,
    *,
    queries: Optional[dict] = None,
) -> tuple[StreamingEngine, RecoveryReport]:
    """Rebuild a streaming session: load snapshot, replay the WAL tail.

    Replay is idempotent by WAL position: records with ``seq`` at or
    below the snapshot's recorded position are skipped (the snapshot
    already contains their effects), so recovering from any snapshot
    along the stream converges to the same state.  The recovered
    session's WAL position advances past the replayed records, so a
    subsequent :func:`write_snapshot` + WAL reattachment resumes cleanly.

    ``queries`` optionally maps a registered name to the query object to
    re-register under that name, overriding the snapshot's stored MATCH
    text — the escape hatch for sessions whose queries were constructed
    programmatically (a :class:`~repro.lang.parser.MatchQuery` built by
    hand has no parseable text to replay).
    """
    from repro.streaming.engine import StreamingEngine

    document = load_snapshot(snapshot_path)
    session = StreamingEngine(from_json_dict(document["graph"]))
    report = restore(session, document, snapshot_path, wal_path, queries=queries)
    return session, report


def restore(
    session: StreamingEngine,
    document: dict,
    snapshot_path: PathLike,
    wal_path: Optional[PathLike] = None,
    *,
    queries: Optional[dict] = None,
) -> RecoveryReport:
    """The body of :func:`recover`, into a fresh ``session`` over the
    document's graph: restore the positions and the epoch (a document
    without ``epoch`` resumes at its WAL position), register the queries
    once, replay the WAL tail."""
    wal_seq = int(document.get("wal_seq", 0))
    session.restore_positions(
        last_sequence=document.get("sequence"),
        wal_seq=wal_seq,
        epoch=int(document.get("epoch", wal_seq)),
    )
    names = []
    overrides = queries or {}
    for entry in document.get("queries", ()):
        name = entry["name"]
        session.register(overrides.get(name, entry["text"]), name=name)
        names.append(name)
    skipped = replayed = 0
    torn = False
    if wal_path is not None:
        skipped, replayed, torn = replay_wal(session, wal_path)
    return RecoveryReport(
        snapshot_path=str(snapshot_path),
        wal_path=None if wal_path is None else str(wal_path),
        snapshot_sequence=document.get("sequence"),
        snapshot_wal_seq=wal_seq,
        skipped=skipped,
        replayed=replayed,
        torn_tail=torn,
        queries=tuple(names),
    )


def replay_wal(session: StreamingEngine, wal_path: PathLike) -> tuple[int, int, bool]:
    """Apply the WAL records past the session's WAL position, in order.

    Returns ``(skipped, replayed, torn_tail)``: records at or below the
    position are already in the session's state and are skipped.  The
    session's WAL position follows the replayed records, so a WAL
    attached afterwards appends after them.
    """
    scan = scan_wal(wal_path)
    base = session.wal_seq
    skipped = replayed = 0
    for record in scan.records:
        if record.seq <= base:
            skipped += 1
            continue
        session.apply(record.batch)
        session.restore_positions(wal_seq=record.seq)
        replayed += 1
    return skipped, replayed, scan.torn_tail
