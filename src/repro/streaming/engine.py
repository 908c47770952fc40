"""Continuously answered MATCH queries over growing time domains.

:class:`StreamingEngine` keeps registered queries answered while
:class:`~repro.streaming.delta.DeltaBatch` updates are applied to the
graph.  A registered query is a cached plan plus at most one answer per
epoch:

* ``register`` prepares the query's
  :class:`~repro.dataflow.executor.QueryPlan` and stores it;
* ``apply`` applies the batch atomically, patches the shared
  :class:`~repro.perf.graph_index.GraphIndex` in place, logs the batch
  and bumps the epoch — it re-derives nothing, and the epoch bump alone
  invalidates every cached answer;
* ``table`` / ``results`` return the cached answer when it belongs to
  the current epoch, and otherwise run the plan once on the query kernel
  (the call an ad-hoc query makes) and publish ``(answer, epoch)``.

A kernel run over the patched index costs less than working out which
part of an answer a batch could have changed, so there is no dirty-set
bookkeeping.  Batches applied out of ``sequence`` order raise
:class:`~repro.errors.EvaluationError` before anything is mutated.  The
streaming differential oracle (``tests/test_streaming_oracle.py``)
compares every maintained answer with a cold evaluation of a pristine
copy of the graph.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union as TypingUnion

from repro.errors import EvaluationError
from repro.eval.bindings import BindingTable, IntervalBindingTable
from repro.lang.parser import MatchQuery
from repro.lang.translate import CompiledMatch
from repro.model.itpg import IntervalTPG
from repro.streaming.delta import DeltaBatch, apply_delta
from repro.streaming.lock import SharedLock

if TYPE_CHECKING:  # dataflow -> resilience -> wal -> streaming at import time
    from repro.dataflow.executor import QueryPlan

QueryLike = TypingUnion[str, MatchQuery, CompiledMatch]
Table = TypingUnion[BindingTable, IntervalBindingTable]


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of :meth:`StreamingEngine.apply` for one batch."""

    sequence: Optional[int]
    new_nodes: int
    new_edges: int
    touched_objects: int
    horizon_advanced: bool
    seconds: float

    # The end-to-end benchmark's stream probe still reads these three;
    # they go with that probe (ROADMAP item 1(b)).  ``apply`` re-derives
    # nothing, so there is nothing to count.
    affected_seeds = total_seeds = property(lambda self: 0)
    queries = property(lambda self: ())


class StreamingEngine:
    """Continuously answered MATCH queries over a growing ITPG.

    Wraps a fresh :class:`~repro.dataflow.executor.DataflowEngine` for
    ``graph``, or (``engine=...``) drives an existing one and shares its
    delta-maintained index — how the server and ``repro query --stream``
    attach a session.  Reads run on that engine like an ad-hoc query.
    """

    def __init__(self, graph: Optional[IntervalTPG] = None, *, engine=None) -> None:
        if engine is None:
            if graph is None:
                raise ValueError("StreamingEngine needs a graph or an engine")
            from repro.dataflow.executor import DataflowEngine

            engine = DataflowEngine(graph)
        self._engine = engine
        self._graph: IntervalTPG = engine.graph
        self._plans: dict[str, QueryPlan] = {}
        #: ``name → (table, epoch)`` of the last read, each entry
        #: published as one tuple: never a table paired with another epoch.
        self._answers: dict[str, tuple[Table, int]] = {}
        self._last_sequence: Optional[int] = None
        #: Reads take the shared side and overlap; ``apply`` and
        #: ``register`` take the exclusive side, so a concurrent caller
        #: sees the state before a batch or after it, never half of one.
        self._lock = SharedLock()
        #: +1 per applied batch: labels which graph state an answer
        #: belongs to; a cached answer is valid for one epoch.
        self._epoch = 0
        #: Durability state (``attach_wal``).
        self._wal = None
        self._wal_seq = 0

    @property
    def graph(self) -> IntervalTPG:
        return self._graph

    @property
    def engine(self):
        return self._engine

    @property
    def last_sequence(self) -> Optional[int]:
        return self._last_sequence

    @property
    def lock(self) -> SharedLock:
        """The session's shared (read) / exclusive (apply) lock."""
        return self._lock

    @property
    def epoch(self) -> int:
        """Number of successfully applied batches (graph-state counter)."""
        return self._epoch

    @property
    def wal_seq(self) -> int:
        """WAL sequence number of the last batch this session applied."""
        return self._wal_seq

    @property
    def wal(self):
        return self._wal

    def query_names(self) -> tuple[str, ...]:
        return tuple(self._plans)

    def query_text(self, name: str) -> Optional[str]:
        """The MATCH text ``name`` was registered from (``None`` if unknown)."""
        return self._plan(name).text

    # ------------------------------------------------------------------ #
    # Durability (repro.resilience)
    # ------------------------------------------------------------------ #
    def attach_wal(self, wal, *, fsync: bool = True) -> None:
        """Log every subsequently applied batch to ``wal`` (path or DeltaWAL).

        The WAL records batches *after* they apply, so the log is exactly
        the applied prefix of the stream.  Attaching a WAL with records
        positions the session after them (recovery replayed them).
        ``fsync`` (paths only) controls per-append power-loss durability.
        """
        if isinstance(wal, (str, os.PathLike)):
            from repro.resilience.wal import DeltaWAL

            wal = DeltaWAL(wal, fsync=fsync)
        self._wal = wal
        self._wal_seq = max(self._wal_seq, wal.last_seq)

    def restore_positions(
        self,
        last_sequence: Optional[int] = None,
        wal_seq: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Set the stream/WAL positions and the epoch (checkpoint recovery)."""
        if last_sequence is not None:
            self._last_sequence = last_sequence
        if wal_seq is not None:
            self._wal_seq = wal_seq
        if epoch is not None:
            self._epoch = epoch
            self._answers.clear()

    # ------------------------------------------------------------------ #
    # Registration and reads
    # ------------------------------------------------------------------ #
    def register(self, query: QueryLike, name: Optional[str] = None) -> str:
        """Register a query (idempotent): prepare its plan, evaluate nothing.

        Returns the name — by default the query text — :meth:`table` and
        :meth:`results` read it under.
        """
        if name is None:
            name = query.text if isinstance(query, (MatchQuery, CompiledMatch)) else str(query)
        with self._lock:
            if name not in self._plans:
                self._plans[name] = self._engine.prepare(query)
            return name

    def results(self, name: str, **options) -> list:
        """The coalesced families of a registered query (``options`` as
        for :meth:`table`): what the engine's ``match_intervals`` answers
        for the same plan — the same families, or the same error."""
        self._plan(name).require_families()
        return list(self.table(name, **options).families)

    def table(
        self,
        name: str,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> Table:
        """The binding table of a registered query at the current epoch.

        The first read after a write runs the plan under
        ``deadline_seconds`` (as ``match_with_stats`` takes it); later reads at that epoch return the same table object.
        The shared lock keeps the epoch still meanwhile; racing first
        readers build equal tables, and the last published tuple wins.
        """
        with self._lock.shared():
            plan = self._plan(name)
            epoch = self._epoch
            cached = self._answers.get(name)
            if cached is not None and cached[1] == epoch:
                return cached[0]
            table = self._engine.match_with_stats(
                plan, deadline_seconds=deadline_seconds
            ).table
            self._answers[name] = (table, epoch)
            return table

    def _plan(self, name: str) -> QueryPlan:
        plan = self._plans.get(name)
        if plan is None:
            raise EvaluationError(
                f"query {name!r} is not registered with this streaming session"
            )
        return plan

    def apply(self, batch: DeltaBatch) -> ApplyResult:
        """Apply one batch, patch the index, log it and bump the epoch.

        A ``sequence`` not above the last applied one raises
        :class:`EvaluationError` (unsequenced batches are always
        accepted); like a batch :func:`~repro.streaming.delta.apply_delta`
        rejects, it leaves the graph and the stream position untouched.
        """
        start = time.perf_counter()
        with self._lock:
            if batch.sequence is not None and self._last_sequence is not None:
                if batch.sequence <= self._last_sequence:
                    raise EvaluationError(
                        f"delta batch applied out of order: sequence {batch.sequence} "
                        f"after {self._last_sequence}; batches must arrive in strictly "
                        "increasing sequence order"
                    )
            effects = None
            if not batch.is_empty():
                effects = apply_delta(self._graph, batch)
                self._engine.index.apply_delta(effects)
            if batch.sequence is not None:
                self._last_sequence = batch.sequence
            self._epoch += 1
            if self._wal is not None:
                # WAL-after, not ahead: the log is the applied prefix
                # (see :meth:`attach_wal`).
                self._wal_seq = self._wal.append(batch)
            return ApplyResult(
                sequence=batch.sequence,
                new_nodes=0 if effects is None else len(effects.new_nodes),
                new_edges=0 if effects is None else len(effects.new_edges),
                touched_objects=0 if effects is None else len(effects.touched),
                horizon_advanced=effects is not None and effects.horizon_advanced,
                seconds=time.perf_counter() - start,
            )
