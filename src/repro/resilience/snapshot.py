"""Checkpoints and crash recovery.

Durability lives in the fsynced delta WAL (:mod:`repro.resilience.wal`):
every applied batch is on disk before its apply returns.  A checkpoint
only makes a restart short.  It is a ``repro-index/1`` store artifact
(:func:`repro.store.compile_graph`) whose header carries a ``session``
record:

* the stream position (last applied batch ``sequence``), the WAL
  position (last applied WAL record ``wal_seq``) and the session
  ``epoch``;
* the registered queries (name + MATCH text).

Recovery is one boot path — attach, then the WAL tail::

    session, report = recover("state.rix", "deltas.wal")

attaches the artifact (:func:`repro.store.attach` builds the graph),
restores the positions, re-registers its queries (plans only: answers
are a pure function of graph + query, computed on the first read), then
**idempotently replays the WAL tail** (:func:`replay_wal`, also the
WAL-only restart of a server host): records at or below the session's
WAL position are skipped, the rest are re-applied in order.  An artifact
without a ``session`` record (a plain ``repro compile`` output) restores
as epoch 0 at WAL position 0 with no queries.  A torn final WAL record —
the signature of a crash mid-append — is tolerated and reported;
corruption before the tail refuses recovery
(:class:`~repro.errors.WALCorruptError`).  :func:`restore` does the same
into a session the caller built over the attached graph (a server host
keeps its own engine).

A checkpoint is written like every artifact: temp file, fsync,
``os.replace``, directory fsync — so a crash mid-checkpoint leaves the
previous checkpoint intact and readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import StoreFormatError, WALError
from repro.resilience.wal import scan_wal

if TYPE_CHECKING:  # import cycle: streaming.engine reaches back here
    from repro.store import Attachment
    from repro.streaming.engine import StreamingEngine

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` did (a server boot reports :meth:`to_dict`)."""

    snapshot_path: str
    wal_path: Optional[str]
    #: Stream position restored from the checkpoint.
    snapshot_sequence: Optional[int]
    snapshot_wal_seq: int
    #: WAL records skipped as already captured by the checkpoint.
    skipped: int
    #: WAL records replayed on top of the checkpoint.
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


def write_snapshot(session: StreamingEngine, path: PathLike) -> dict:
    """Atomically write a checkpoint of ``session`` to ``path``.

    Returns the ``session`` record stored in the artifact's header.
    """
    from repro.store import compile_graph

    queries = []
    for name in session.query_names():
        text = session.query_text(name)
        if text is None:
            raise WALError(
                f"query {name!r} was registered from a compiled object whose "
                "MATCH text is unknown; checkpoints need the text to "
                "re-register it on recovery"
            )
        queries.append({"name": name, "text": text})
    record = {
        "sequence": session.last_sequence,
        "wal_seq": session.wal_seq,
        "epoch": session.epoch,
        "queries": queries,
    }
    compile_graph(session.graph, str(path), session=record)
    return record


def attach_checkpoint(path: PathLike) -> Attachment:
    """:func:`repro.store.attach`, naming the fix for a legacy JSON snapshot."""
    from repro.store import attach

    path = str(path)
    try:
        return attach(path)
    except StoreFormatError as error:
        try:
            with open(path, "rb") as handle:
                legacy = b"repro-snapshot/1" in handle.read(256)
        except OSError:
            legacy = False
        if not legacy:
            raise error
        raise StoreFormatError(
            f"{path}: a legacy JSON snapshot (repro-snapshot/1); checkpoints "
            "are repro-index artifacts now. Delete the file: the host then "
            "restarts from --graph/--store plus the full WAL",
            path=path,
        ) from None


def recover(
    snapshot_path: PathLike,
    wal_path: Optional[PathLike] = None,
    *,
    queries: Optional[dict] = None,
) -> tuple[StreamingEngine, RecoveryReport]:
    """Rebuild a streaming session: attach the checkpoint, replay the WAL tail.

    Replay is idempotent by WAL position: records with ``seq`` at or
    below the checkpoint's recorded position are skipped (the checkpoint
    already contains their effects), so recovering from any checkpoint
    along the stream converges to the same state.  The recovered
    session's WAL position advances past the replayed records, so a
    subsequent :func:`write_snapshot` + WAL reattachment resumes cleanly.

    ``queries`` optionally maps a registered name to the query object to
    re-register under that name, overriding the checkpoint's stored MATCH
    text — the escape hatch for sessions whose queries were constructed
    programmatically (a :class:`~repro.lang.parser.MatchQuery` built by
    hand has no parseable text to replay).
    """
    from repro.streaming.engine import StreamingEngine

    attachment = attach_checkpoint(snapshot_path)
    session = StreamingEngine(attachment.graph)
    report = restore(session, attachment, wal_path, queries=queries)
    return session, report


def restore(
    session: StreamingEngine,
    attachment: Attachment,
    wal_path: Optional[PathLike] = None,
    *,
    queries: Optional[dict] = None,
) -> RecoveryReport:
    """The body of :func:`recover`, into a fresh ``session`` over the
    attached graph: restore the positions and the epoch from the header's
    ``session`` record, register the queries once, replay the WAL tail."""
    record = attachment.meta.get("session") or {}
    wal_seq = int(record.get("wal_seq", 0))
    session.restore_positions(
        last_sequence=record.get("sequence"),
        wal_seq=wal_seq,
        epoch=int(record.get("epoch", 0)),
    )
    names = []
    overrides = queries or {}
    for entry in record.get("queries", ()):
        name = entry["name"]
        session.register(overrides.get(name, entry["text"]), name=name)
        names.append(name)
    skipped = replayed = 0
    torn = False
    if wal_path is not None:
        skipped, replayed, torn = replay_wal(session, wal_path)
    return RecoveryReport(
        snapshot_path=attachment.path,
        wal_path=None if wal_path is None else str(wal_path),
        snapshot_sequence=record.get("sequence"),
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
