"""Resident server state: graphs, compiled indexes, sessions, plan cache.

A :class:`GraphHost` is everything the service keeps warm for one named
graph:

* the graph itself and its compiled
  :class:`~repro.perf.graph_index.GraphIndex` (shared via
  :func:`~repro.perf.graph_index.graph_index_for`, so condition tables
  amortize across the whole query mix);
* one :class:`~repro.dataflow.executor.DataflowEngine` configured with
  the server's worker count — with ``workers > 1`` its dispatches land
  on the warm shared :class:`~repro.parallel.pool.WorkerPool`;
* a :class:`~repro.streaming.engine.StreamingEngine` session driving the
  same engine: it applies deltas, answers registered queries from their
  cached plans (one kernel run per query per epoch, on the first read),
  and (with an attached WAL / snapshot path) makes the resident state
  recoverable across restarts.

Consistency model: the host lock is the session's
:class:`~repro.streaming.lock.SharedLock`.  Reads — :meth:`GraphHost.query`,
:meth:`~GraphHost.table`, :meth:`~GraphHost.stats` and
:meth:`~GraphHost.registered_queries` — take its shared side and run
alongside each other; writes — :meth:`~GraphHost.apply_delta`,
:meth:`~GraphHost.apply_frame` and :meth:`~GraphHost.register` — take
the exclusive side and overlap nothing.  A waiting writer stops new
readers from entering, so reads cannot starve a delta.  Requests
therefore see either the state before a batch or after it, never a torn
half-applied one, and every answer is labelled with the session
``epoch`` it was computed at: per-graph serializability.  Hosts are
independent: requests against different graphs run concurrently.

Readers share the lock, so every structure a reader *writes* is either
built then published with one assignment (a racing reader builds an
equal value, and the last assignment wins) or guarded by a lock of its
own.  Only a writer iterates or patches these structures, under the
exclusive side:

* ``GraphIndex._table_cache`` and ``_static_cache`` entries — build
  then publish;
* ``ColumnarContext._conditions`` and ``_hulls`` — build then publish;
* the lazy ``GraphIndex.columnar_context()`` — locked, built once;
* :class:`~repro.server.plans.PlanCache` — locked (a racing miss
  prepares twice and stores one of two equal plans);
* ``StreamingEngine._answers`` — a registered query's ``(table,
  epoch)``, build then publish (racing first readers after a write each
  run the kernel once and store equal tables);
* ``WorkerPool._warm`` — single ``setdefault``/``add`` calls; a stale
  read costs at most a payload resend;
* ``plan_for`` (one parallel token per graph state) and ``shared_pool``
  (one pool per key) — locked; ``ExecutionPlan.payload`` — build then
  publish;
* a compiled store's lazy maps — whole-section fills locked, per-key
  decodes build then publish — and ``AttachedGraph``'s materialization,
  locked.

Answer payloads are encoded after the lock is released: a table is
never patched in place once returned (the kernel builds fresh arrays
and lists; a registered query's next epoch gets a new table).
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.dataflow.executor import DataflowEngine, MatchResult
from repro.errors import EvaluationError, ServerError
from repro.eval.bindings import IntervalBindingTable
from repro.model import contact_tracing_example, graph_statistics
from repro.model.io import from_json_dict, load_json
from repro.resilience.retry import RetryPolicy
from repro.resilience.snapshot import load_snapshot, replay_wal, restore
from repro.server.plans import PlanCache
from repro.server.protocol import encode_families, encode_rows, normalize_query
from repro.streaming.delta import DeltaBatch
from repro.streaming.engine import StreamingEngine


class GraphHost:
    """One resident graph with its warm engine, session and durability."""

    def __init__(
        self,
        name: str,
        graph,
        *,
        workers: int = 1,
        plans: Optional[PlanCache] = None,
        wal: Optional[str] = None,
        snapshot: Optional[str] = None,
        snapshot_every: int = 1,
        wal_fsync: bool = True,
    ) -> None:
        self.name = name
        self.engine = DataflowEngine(graph, workers=workers)
        self.graph = self.engine.graph
        self.index = self.engine.index
        self.session = StreamingEngine(engine=self.engine)
        self.plans = plans if plans is not None else PlanCache()
        #: The session lock doubles as the host lock (see module docstring).
        self.lock = self.session.lock
        #: Replication taps: callables invoked (under the exclusive host
        #: lock, so frames observe apply order) with each applied WAL frame
        #: ``{seq, crc, batch}`` — the hub ships these to standbys.
        self.on_applied: list = []
        #: Registration taps: callables invoked with ``(name, text)``
        #: when a continuously-answered query is registered, so standbys
        #: mirror the registered set (registrations are not WAL records).
        self.on_registered: list = []
        if wal is not None:
            self.session.attach_wal(wal, fsync=wal_fsync)
        if snapshot is not None:
            self.session.configure_snapshots(snapshot, every=snapshot_every)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_files(
        cls,
        name: str,
        graph_path: Optional[str],
        *,
        wal: Optional[str] = None,
        snapshot: Optional[str] = None,
        snapshot_every: int = 1,
        store: Optional[str] = None,
        **config,
    ) -> tuple["GraphHost", Optional[dict]]:
        """Build a host, recovering from ``snapshot`` + ``wal`` when present.

        Recovery-on-restart semantics: an existing snapshot wins over
        both ``store`` and ``graph_path`` — the snapshot graph plus the
        WAL tail *is* the state the previous process durably reached,
        and the host's own session is the one recovery restores: its
        queries registered once, its epoch where the previous process
        left it, so continuous answers resume where they left off.
        Otherwise a ``store`` (compiled ``repro-index`` artifact, see
        :func:`repro.store.attach`) is attached in O(1) instead of
        loading + recompiling ``graph_path`` — the restart skips index
        compilation entirely, and a WAL tail still replays on top
        (materializing the attached graph and patching the index in
        place).  Either way the WAL and snapshot attach only after the
        replay, so replayed batches are not logged a second time.
        Returns ``(host, recovery_report_dict | None)``.
        """
        recovery = None
        if snapshot is not None and os.path.exists(snapshot):
            document = load_snapshot(snapshot)
            host = cls(name, from_json_dict(document["graph"]), **config)
            recovery = restore(host.session, document, snapshot, wal).to_dict()
        else:
            if store is not None:
                from repro.store import attach

                graph = attach(store).graph
            elif graph_path is None:
                graph = contact_tracing_example()
            else:
                graph = load_json(graph_path)
            host = cls(name, graph, **config)
            if wal is not None:
                replay_wal(host.session, wal)
        if wal is not None:
            host.session.attach_wal(wal)
        if snapshot is not None:
            host.session.configure_snapshots(snapshot, every=snapshot_every)
        return host, recovery

    # ------------------------------------------------------------------ #
    # Request execution (reads share the host lock, writes hold it alone)
    # ------------------------------------------------------------------ #
    def query(
        self,
        text: str,
        *,
        deadline: Optional[float] = None,
        retries: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Evaluate one ad-hoc query through the compiled-plan cache."""
        normalized = normalize_query(text)
        retry = None if retries is None else RetryPolicy(retries=retries)
        start = time.perf_counter()
        with self.lock.shared():
            plan = self.plans.get(normalized)
            outcome = "hit" if plan is not None else "miss"
            if plan is None:
                plan = self.engine.prepare(normalized)
                self.plans.put(normalized, plan)
            result: MatchResult = self.engine.match_with_stats(
                plan, deadline_seconds=deadline, retry=retry
            )
            epoch = self.session.epoch
        payload = self._table_payload(result.table, limit)
        payload["interval_seconds"] = result.interval_seconds
        payload["total_seconds"] = result.total_seconds
        payload["degradation"] = result.degradation
        return {
            "result": payload,
            "server": {
                "graph": self.name,
                "epoch": epoch,
                "plan": outcome,
                "seconds": time.perf_counter() - start,
            },
        }

    def register(self, text: str, name: Optional[str] = None) -> dict:
        """Register a continuously-answered query on the resident session."""
        if name is None:
            from repro.dataflow import PAPER_QUERIES

            # "register Q5" should be readable back as table("Q5"), not
            # under the spelled-out MATCH text the alias resolves to.
            if text in PAPER_QUERIES:
                name = text
        with self.lock:
            normalized = normalize_query(text)
            registered = self.session.register(normalized, name=name)
            epoch = self.session.epoch
            for callback in tuple(self.on_registered):
                callback(registered, normalized)
        return {
            "result": {"name": registered, "queries": list(self.session.query_names())},
            "server": {"graph": self.name, "epoch": epoch},
        }

    def table(
        self,
        name: str,
        *,
        deadline: Optional[float] = None,
        retries: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Read a registered query's answer at the current epoch (the
        first read after a write runs its plan under ``deadline`` /
        ``retries``)."""
        retry = None if retries is None else RetryPolicy(retries=retries)
        with self.lock.shared():
            table = self.session.table(name, deadline_seconds=deadline, retry=retry)
            epoch = self.session.epoch
        payload = self._table_payload(table, limit)
        return {
            "result": payload,
            "server": {"graph": self.name, "epoch": epoch},
        }

    def apply_delta(self, payload: dict) -> dict:
        """Apply one delta batch (cached plans are graph-independent and
        keep serving: they read the patched index at execution time)."""
        batch = DeltaBatch.from_json_dict(payload)
        with self.lock:
            applied = self.session.apply(batch)
            epoch = self.session.epoch
            if self.on_applied and self.session.wal is not None:
                # Hand the frame the WAL just recorded to the replication
                # taps while still holding the lock, so standbys receive
                # frames in apply order.
                self._notify_applied(self.session.wal.last_frame)
        return {
            "result": {
                "sequence": applied.sequence,
                "new_nodes": applied.new_nodes,
                "new_edges": applied.new_edges,
                "touched": applied.touched_objects,
                "horizon_advanced": applied.horizon_advanced,
                "seconds": applied.seconds,
            },
            "server": {"graph": self.name, "epoch": epoch},
        }

    def apply_frame(self, frame: dict) -> dict:
        """Apply one shipped WAL frame (the standby's apply path).

        The frame is checksum-verified exactly like a stored WAL record,
        then applied through the normal :meth:`apply_delta` machinery —
        epoch labelling and registered-query answers all work
        unchanged, which is what makes a promoted
        standby answer epoch-identically to a never-crashed primary.
        When the standby logs to its own WAL the applied record lands
        there with the same sequence; without one the session's WAL
        position is advanced to the shipped ``seq`` so lag accounting
        and a later promotion still line up.
        """
        from repro.resilience.wal import record_frame, verify_frame

        batch = verify_frame(frame)
        seq = int(frame["seq"])
        with self.lock:
            self.session.apply(batch)
            if self.session.wal is None:
                self.session.restore_positions(wal_seq=seq)
            epoch = self.session.epoch
            if self.on_applied:
                # Chained standbys (and post-promotion subscribers) see
                # the same frame flow regardless of who applied it.
                self._notify_applied(record_frame(seq, batch.to_json_dict()))
        return {"seq": seq, "epoch": epoch}

    def _notify_applied(self, frame: dict) -> None:
        for callback in tuple(self.on_applied):
            callback(frame)

    def registered_queries(self) -> dict:
        """``{name: query text}`` of the continuously-answered queries."""
        with self.lock.shared():
            return {
                name: self.session.query_text(name)
                for name in self.session.query_names()
            }

    def stats(self) -> dict:
        with self.lock.shared():
            stats = graph_statistics(self.graph).as_row()
            return {
                "graph": dict(stats),
                "epoch": self.session.epoch,
                "index_epoch": self.index.epoch,
                "queries": list(self.session.query_names()),
                "plan_cache": self.plans.stats(),
                "plans": [text for text, _plan in self.plans.entries()],
                "workers": self.engine.workers,
                "wal": None if self.session.wal is None else self.session.wal.path,
                "wal_seq": self.session.wal_seq,
                "last_sequence": self.session.last_sequence,
            }

    def close(self) -> None:
        wal = self.session.wal
        if wal is not None:
            wal.close()

    @staticmethod
    def _table_payload(table, limit: Optional[int]) -> dict:
        """The wire form of an answer table: the canonical answer is
        written once here, as bytes ``protocol.encode`` splices in."""
        if isinstance(table, IntervalBindingTable):
            return {
                "kind": "families",
                "families": encode_families(table.families, limit),
                "num_families": table.num_families(),
                "output_size": len(table),
            }
        return {
            "kind": "rows",
            "rows": encode_rows(table, limit),
            "num_rows": len(table),
            "output_size": len(table),
        }


class ServerState:
    """The named-graph registry plus server-wide configuration."""

    def __init__(
        self,
        *,
        workers: int = 1,
        plan_capacity: int = 128,
    ) -> None:
        self.workers = workers
        self.plan_capacity = plan_capacity
        self.hosts: dict[str, GraphHost] = {}
        self.started = time.time()

    def add_graph(
        self,
        name: str,
        graph_path: Optional[str] = None,
        *,
        wal: Optional[str] = None,
        snapshot: Optional[str] = None,
        snapshot_every: int = 1,
        store: Optional[str] = None,
    ) -> Optional[dict]:
        """Load (or recover) a graph under ``name``; returns the recovery
        report when a snapshot/WAL restart path was taken.  ``store``
        attaches a compiled artifact instead of loading ``graph_path``."""
        if name in self.hosts:
            raise ServerError(f"graph {name!r} is already resident", kind="ServerError")
        host, recovery = GraphHost.from_files(
            name,
            graph_path,
            wal=wal,
            snapshot=snapshot,
            snapshot_every=snapshot_every,
            store=store,
            workers=self.workers,
            plans=PlanCache(self.plan_capacity),
        )
        self.hosts[name] = host
        return recovery

    def host(self, name: str) -> GraphHost:
        found = self.hosts.get(name)
        if found is None:
            raise EvaluationError(
                f"graph {name!r} is not resident (loaded: "
                f"{', '.join(sorted(self.hosts)) or 'none'})"
            )
        return found

    def stats(self) -> dict:
        return {
            "uptime_seconds": time.time() - self.started,
            "workers": self.workers,
            "graphs": {name: host.stats() for name, host in self.hosts.items()},
        }

    def close(self) -> None:
        for host in self.hosts.values():
            host.close()
