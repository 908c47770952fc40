"""Persistent compiled-graph store: ``repro-index/1`` artifacts.

Loading a graph and indexing it is the dominant startup cost of every
cold process — a server restart reloads and re-indexes it.  This
package makes the graph a *persistent* artifact instead:

* :func:`compile_graph` writes the graph as flat tables (dense-id object
  table, labels, endpoints, adjacency, existence and property interval
  families) plus the index's candidate buckets into one checksummed
  file atomically (:mod:`repro.store.format`);
* :func:`attach` mmaps an artifact read-only, builds the graph from its
  records once (a plain :class:`~repro.model.itpg.IntervalTPG`) and
  installs its :class:`~repro.perf.graph_index.GraphIndex` with the
  artifact's object order and buckets, so nothing is re-indexed
  (:mod:`repro.store.artifact`);
* :func:`repro.server.state.GraphHost.from_files` accepts a store and
  attaches on restart instead of recompiling;
* a checkpoint (:func:`repro.resilience.write_snapshot`) is such an
  artifact whose header ``meta`` carries a ``session`` record (stream
  and WAL positions, epoch, registered queries): the one persistent
  graph format, and every restart is attach + the WAL tail.

Format invariants (``repro-index/1``) — the contract every reader and
writer in this package maintains:

* **Self-describing header.**  An artifact opens with a fixed magic +
  format version + the SHA-256 of its header JSON; anything else is
  rejected up front (:class:`~repro.errors.StoreFormatError` for
  not-an-artifact/malformed, :class:`~repro.errors.StoreVersionError`
  for an incompatible version).
* **Checksummed sections.**  The body is named flat sections, each
  carrying a CRC-32 verified on first access (attach reads every
  section but ``adj``; ``--verify`` checks them all); interval data is
  struct-packed little-endian ``<qq`` pairs behind ``u64`` offset
  indexes, adjacency is dense-``u32`` id lists (``out_count`` prefix,
  then out- then in-edge ids).  Any checksum or truncation failure
  raises :class:`~repro.errors.StoreCorruptError` — corruption is never
  silently decoded.
* **Atomic visibility.**  Writes go to a temp file, fsync, then
  ``os.replace`` + directory fsync: a crashed compile never leaves a
  partial artifact under the final name.
* **Interval families are canonical on disk** — sorted, disjoint,
  gap-coalesced — so the reader consumes them without re-normalizing.
* **Header length is bounded by the file size.**  The fixed header's
  u64 length field is checked against the file before the header is
  read, so a damaged field raises
  :class:`~repro.errors.StoreCorruptError` instead of an oversized
  read.
* **The graph is stored once.**  The per-object ``exist`` / ``adj`` /
  ``props`` records and the head tables are the whole graph; there is
  no second, pickled copy (an older ``/1`` artifact's ``graph`` section
  is ignored).
* **Attachments are read-only.**  The attached graph is built in
  memory from the records (:meth:`~repro.store.artifact.AttachedCore.to_graph`),
  so writes (the streaming delta path) go there, never to the mmap.

See docs/ARCHITECTURE.md (the graph lifecycle), PERFORMANCE.md
(``store.*`` costs) and RELIABILITY.md for the operational discipline.
"""

from repro.store.artifact import (
    AttachedCore,
    Attachment,
    attach,
    compile_graph,
)
from repro.store.format import FORMAT, VERSION, Artifact, write_artifact

__all__ = [
    "Artifact",
    "AttachedCore",
    "Attachment",
    "FORMAT",
    "VERSION",
    "attach",
    "compile_graph",
    "write_artifact",
]
