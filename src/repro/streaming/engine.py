"""Delta-maintained MATCH answers over growing time domains.

:class:`StreamingEngine` keeps a set of registered queries continuously
answered while :class:`~repro.streaming.delta.DeltaBatch` updates are
applied to the graph.  The central idea is *per-seed result caching*:

* Registration evaluates the query once, seed by seed, and caches each
  seed's contribution — the coalesced ``(bindings, times)`` families (or
  point tuples, for group-spanning outputs) derived from the chain run
  anchored at that seed.  The merged answer is the per-binding union of
  all contributions, which is exactly what the batch engine's global
  family merge computes.
* :meth:`apply` applies the batch atomically, maintains the shared
  :class:`~repro.perf.graph_index.GraphIndex` in place, and then
  re-derives **only the affected seeds**: seeds inside the dirty set's
  structural closure (radius = the chain's structural move count) whose
  cached seed times intersect the delta's temporal footprint dilated by
  the chain's temporal radius.  Everything outside that ball provably
  cannot have changed — a chain run reads only objects within its
  structural radius of the seed, and can only look at times within its
  temporal radius of a seed time.
* Advancing the time horizon recomputes every seed of every query:
  condition satisfaction is clamped to the domain (``¬φ``, label tests,
  ``time < c`` are all domain-wide), so no per-seed surgery is sound
  there.  The common streaming shape — appends inside a fixed study
  horizon — stays on the per-seed path.

Batches carry an optional ``sequence`` number; applying them out of
order raises :class:`~repro.errors.EvaluationError` before anything is
mutated.  Correctness of the whole scheme is pinned by the streaming
differential oracle (``tests/test_streaming_oracle.py``): after every
batch the maintained answer must equal a cold evaluation on a pristine
copy of the materialized graph.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Hashable, Optional, Union as TypingUnion

# Module imports: the dataflow package may still be initializing when
# this module loads (dataflow -> resilience -> wal -> streaming).
from repro.dataflow import interpreted
from repro.dataflow.frontier import Group, Row
from repro.dataflow.steps import (
    ChainStep,
    chain_structural_radius,
    chain_temporal_radius,
)
from repro.errors import EvaluationError
from repro.eval.bindings import BindingTable, IntervalBindingTable
from repro.lang.parser import MatchQuery
from repro.lang.translate import CompiledMatch
from repro.model.itpg import IntervalTPG
from repro.streaming.delta import DeltaBatch, DeltaEffects, apply_delta
from repro.streaming.lock import SharedLock
from repro.temporal.intervalset import IntervalSet, IntervalSetAccumulator

ObjectId = Hashable
QueryLike = TypingUnion[str, MatchQuery, CompiledMatch]
#: One seed's cached contribution: interval families or point tuples.
Contribution = TypingUnion[list, tuple]


@dataclass
class _QueryState:
    """Cached evaluation state of one registered query."""

    name: str
    chain: tuple[ChainStep, ...]
    variables: tuple[str, ...]
    mode: str  # "families" | "points"
    struct_radius: int
    temporal_radius: Optional[int]
    #: The MATCH text the query was registered from (``None`` when it
    #: arrived pre-compiled) — snapshots need it to re-register.
    text: Optional[str] = None
    #: The chain after any leading test absorbed into the seed table
    #: (fixed at registration — absorption depends only on chain shape).
    rest: tuple[ChainStep, ...] = ()
    #: Times of *every* current seed row (affected-seed time filter).
    seed_times: dict[ObjectId, IntervalSet] = field(default_factory=dict)
    #: Non-empty per-seed outputs (families or point tuples).
    contributions: dict[ObjectId, Contribution] = field(default_factory=dict)
    #: Merged output, rebuilt lazily after contributions change — by a
    #: reader under the shared lock, so it is built whole, then assigned.
    merged: Optional[TypingUnion[BindingTable, IntervalBindingTable]] = None


@dataclass(frozen=True)
class QueryUpdate:
    """Per-query outcome of one applied batch."""

    name: str
    affected_seeds: int
    total_seeds: int
    recomputed_all: bool


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of :meth:`StreamingEngine.apply` for one batch."""

    sequence: Optional[int]
    new_nodes: int
    new_edges: int
    touched_objects: int
    horizon_advanced: bool
    queries: tuple[QueryUpdate, ...]
    seconds: float

    @property
    def affected_seeds(self) -> int:
        return sum(update.affected_seeds for update in self.queries)

    @property
    def total_seeds(self) -> int:
        return sum(update.total_seeds for update in self.queries)


class StreamingEngine:
    """Continuously answered MATCH queries over a growing ITPG.

    Either wraps a fresh
    :class:`~repro.dataflow.executor.DataflowEngine` built for ``graph``
    or (``engine=...``) drives an existing one, sharing its graph and
    delta-maintained index — that is how the server and ``repro query
    --stream`` attach a session.  The worker pool is irrelevant here:
    per-seed runs are sequential by construction (each one processes a
    single-row frontier).
    """

    def __init__(
        self,
        graph: Optional[IntervalTPG] = None,
        *,
        engine=None,
    ) -> None:
        if engine is None:
            if graph is None:
                raise ValueError("StreamingEngine needs a graph or an engine")
            from repro.dataflow.executor import DataflowEngine

            engine = DataflowEngine(graph)
        self._engine = engine
        self._graph: IntervalTPG = engine.graph
        self._queries: dict[str, _QueryState] = {}
        self._last_sequence: Optional[int] = None
        #: Reads (:meth:`table`, :meth:`results`) take the shared side and
        #: overlap; :meth:`apply` and :meth:`register` take the exclusive
        #: side, so a concurrent caller (the server's per-graph request
        #: threads) sees the state before a batch or after it, never a
        #: half-applied one.
        self._lock = SharedLock()
        #: Monotone state counter: +1 per successfully applied batch.
        #: Readers capture it under the lock to label which graph state
        #: an answer belongs to.
        self._epoch = 0
        #: Durability state (attached via :meth:`attach_wal` /
        #: :meth:`configure_snapshots`, or restored by recovery).
        self._wal = None
        self._wal_seq = 0
        self._snapshot_path: Optional[str] = None
        self._snapshot_every: Optional[int] = None
        self._applies_since_snapshot = 0

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
        return tuple(self._queries)

    def query_text(self, name: str) -> Optional[str]:
        """The MATCH text ``name`` was registered from (``None`` if unknown)."""
        return self._state(name).text

    # ------------------------------------------------------------------ #
    # Durability (repro.resilience)
    # ------------------------------------------------------------------ #
    def attach_wal(self, wal, *, fsync: bool = True) -> None:
        """Log every subsequently applied batch to ``wal`` (path or DeltaWAL).

        The WAL records batches *after* they apply successfully, so the
        log is always exactly the applied prefix of the stream; a
        rejected batch never reaches it.  Attaching a WAL with existing
        records positions the session after them (the normal resume
        case: recovery replayed them already).  ``fsync`` (paths only —
        a ready-made :class:`DeltaWAL` keeps its own setting) controls
        per-append power-loss durability; see
        :class:`repro.resilience.wal.DeltaWAL`.
        """
        if isinstance(wal, (str, os.PathLike)):
            from repro.resilience.wal import DeltaWAL

            wal = DeltaWAL(wal, fsync=fsync)
        self._wal = wal
        self._wal_seq = max(self._wal_seq, wal.last_seq)

    def configure_snapshots(self, path: str, every: int = 1) -> None:
        """Write a snapshot to ``path`` after every ``every`` applied batches."""
        if every < 1:
            raise ValueError(f"snapshot interval must be >= 1, got {every}")
        self._snapshot_path = str(path)
        self._snapshot_every = int(every)
        self._applies_since_snapshot = 0

    def snapshot(self, path: Optional[str] = None) -> dict:
        """Write a snapshot now; returns its metadata (see resilience.snapshot)."""
        from repro.resilience.snapshot import write_snapshot

        target = path or self._snapshot_path
        if target is None:
            raise EvaluationError(
                "no snapshot path: pass one or call configure_snapshots first"
            )
        return write_snapshot(self, target)

    def restore_positions(
        self,
        last_sequence: Optional[int] = None,
        wal_seq: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Set the stream/WAL positions and the epoch (snapshot recovery)."""
        if last_sequence is not None:
            self._last_sequence = last_sequence
        if wal_seq is not None:
            self._wal_seq = wal_seq
        if epoch is not None:
            self._epoch = epoch

    # ------------------------------------------------------------------ #
    # Registration and reads
    # ------------------------------------------------------------------ #
    def register(self, query: QueryLike, name: Optional[str] = None) -> str:
        """Register a query (idempotent) and cold-evaluate it seed by seed.

        Returns the registration name — by default the query text — used
        by :meth:`results` / :meth:`table` and reported by :meth:`apply`.
        """
        if name is None:
            name = query.text if isinstance(query, (MatchQuery, CompiledMatch)) else str(query)
        with self._lock:
            existing = self._queries.get(name)
            if existing is not None:
                return name
            plan = self._engine.prepare(query)
            state = _QueryState(
                name=name,
                chain=plan.chain,
                variables=plan.variables,
                mode=plan.mode,
                struct_radius=chain_structural_radius(plan.chain),
                temporal_radius=chain_temporal_radius(plan.chain),
                text=plan.text,
            )
            seed_map, state.rest = self._seed_table(state)
            self._recompute_seeds(state, seed_map)
            self._queries[name] = state
            return name

    def results(self, name: str):
        """The merged coalesced families of a registered ``families`` query."""
        with self._lock.shared():
            state = self._state(name)
            if state.mode != "families":
                raise EvaluationError(
                    "interval (coalesced) output is only defined when every "
                    "variable is bound within a single temporal group"
                )
            return list(self._merged(state).families)

    def table(self, name: str) -> TypingUnion[BindingTable, IntervalBindingTable]:
        """The merged binding table of a registered query."""
        with self._lock.shared():
            return self._merged(self._state(name))

    def _state(self, name: str) -> _QueryState:
        state = self._queries.get(name)
        if state is None:
            raise EvaluationError(
                f"query {name!r} is not registered with this streaming session"
            )
        return state

    # ------------------------------------------------------------------ #
    # Delta application
    # ------------------------------------------------------------------ #
    def apply(self, batch: DeltaBatch) -> ApplyResult:
        """Apply one batch and refresh every registered query's affected seeds.

        Ordering is enforced first: a batch whose ``sequence`` is not
        strictly greater than the last applied one raises
        :class:`EvaluationError` (unsequenced batches are always
        accepted and do not advance the stream position).  Validation
        failures inside :func:`~repro.streaming.delta.apply_delta` also
        leave both the graph and the stream position untouched.
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
            if batch.is_empty():
                if batch.sequence is not None:
                    self._last_sequence = batch.sequence
                self._epoch += 1
                self._log_applied(batch)
                return ApplyResult(
                    sequence=batch.sequence,
                    new_nodes=0,
                    new_edges=0,
                    touched_objects=0,
                    horizon_advanced=False,
                    queries=tuple(
                        QueryUpdate(state.name, 0, len(state.seed_times), False)
                        for state in self._queries.values()
                    ),
                    seconds=time.perf_counter() - start,
                )
            effects = apply_delta(self._graph, batch)
            if batch.sequence is not None:
                self._last_sequence = batch.sequence
            self._engine.index.apply_delta(effects)
            updates = tuple(
                self._update_query(state, effects) for state in self._queries.values()
            )
            # Epoch first: a snapshot the log takes records this batch.
            self._epoch += 1
            self._log_applied(batch)
            return ApplyResult(
                sequence=batch.sequence,
                new_nodes=len(effects.new_nodes),
                new_edges=len(effects.new_edges),
                touched_objects=len(effects.touched),
                horizon_advanced=effects.horizon_advanced,
                queries=updates,
                seconds=time.perf_counter() - start,
            )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _log_applied(self, batch: DeltaBatch) -> None:
        """Record a successfully applied batch durably (WAL-after, not
        ahead: the log is the applied prefix — see :meth:`attach_wal`)."""
        if self._wal is not None:
            self._wal_seq = self._wal.append(batch)
        if self._snapshot_every is not None:
            self._applies_since_snapshot += 1
            if self._applies_since_snapshot >= self._snapshot_every:
                self.snapshot()
                self._applies_since_snapshot = 0

    def _update_query(self, state: _QueryState, effects: DeltaEffects) -> QueryUpdate:
        if effects.horizon_advanced:
            # Domain-clamped condition families shift for every object;
            # only a full re-derivation is sound.
            seed_map, state.rest = self._seed_table(state)
            self._recompute_seeds(state, seed_map)
            return QueryUpdate(state.name, len(seed_map), len(seed_map), True)
        # Only the dirty closure is ever inspected, so a small batch
        # costs O(closure), not O(total seeds): fresh seed rows are
        # looked up for the dirty objects alone, and untouched affected
        # seeds rebuild their rows from the cached (still valid,
        # object-local) satisfaction times.
        closure = self._engine.index.structural_closure(
            effects.dirty, state.struct_radius
        )
        fresh = interpreted.seed_rows_for(
            self._engine.index,
            state.chain,
            [obj for obj in closure if obj in effects.dirty],
        )
        affected = self._affected_seeds(state, effects, closure, fresh)
        for obj in affected:
            if obj in effects.dirty:
                row = fresh.get(obj)
                if row is None:
                    # The object no longer seeds this chain (e.g. a
                    # condition stopped holding under negation).
                    state.seed_times.pop(obj, None)
                    if state.contributions.pop(obj, None) is not None:
                        state.merged = None
                    continue
                state.seed_times[obj] = row.last.times
            else:
                row = Row((Group((), obj, state.seed_times[obj]),), ())
            contribution = self._eval_seed(state, row, state.rest)
            if contribution:
                state.contributions[obj] = contribution
            else:
                state.contributions.pop(obj, None)
            state.merged = None
        return QueryUpdate(state.name, len(affected), len(state.seed_times), False)

    def _seed_table(
        self, state: _QueryState
    ) -> tuple[dict[ObjectId, Row], tuple[ChainStep, ...]]:
        """The full fresh seed table and the chain remainder."""
        seeds, rest = interpreted.seed_rows(self._engine.index, state.chain)
        return {row.last.current: row for row in seeds}, rest

    def _affected_seeds(
        self,
        state: _QueryState,
        effects: DeltaEffects,
        closure: set[ObjectId],
        fresh: dict[ObjectId, Row],
    ) -> set[ObjectId]:
        if state.temporal_radius is None:
            window: Optional[IntervalSet] = None  # unbounded: time filter off
        else:
            radius = state.temporal_radius
            window = effects.dirty_times.dilate(radius, radius, self._graph.domain)
        affected: set[ObjectId] = set()
        for obj in closure:
            if obj in effects.dirty:
                # The object's own families/adjacency changed: its seed
                # row (existence, satisfaction times) may appear, move
                # or vanish regardless of the cached time filter — but
                # only seeds (old or new) contribute anything.
                if obj in fresh or obj in state.seed_times:
                    affected.add(obj)
                continue
            times = state.seed_times.get(obj)
            if times is None:
                # Untouched object that never was a seed: its static
                # condition times are object-local, hence unchanged.
                continue
            if window is None or times.overlaps(window):
                affected.add(obj)
        return affected

    def _recompute_seeds(
        self, state: _QueryState, seed_map: dict[ObjectId, Row]
    ) -> None:
        """Re-derive every seed's contribution from the full seed table.

        The full-table path: registration and horizon advances.  (Batch
        updates take the closure-bounded path in :meth:`_update_query`.)
        """
        state.seed_times = {obj: row.last.times for obj, row in seed_map.items()}
        state.contributions = {}
        for obj, row in seed_map.items():
            contribution = self._eval_seed(state, row, state.rest)
            if contribution:
                state.contributions[obj] = contribution
        state.merged = None

    def _eval_seed(
        self, state: _QueryState, row: Row, rest: tuple[ChainStep, ...]
    ) -> Contribution:
        # The per-row walk, not the query kernel: a one-row frontier is
        # below the columnar kernel's break-even (fixed per-op array
        # overhead, nothing to sweep).  Families or point tuples per the
        # query's output mode, exactly as in batch Step 3.
        data, _rows, _merged = interpreted.run_rows(
            self._engine.index, rest, [row], state.variables, state.mode
        )
        return data

    def _merged(
        self, state: _QueryState
    ) -> TypingUnion[BindingTable, IntervalBindingTable]:
        if state.merged is not None:
            return state.merged
        if state.mode == "families":
            accumulators: dict[tuple, IntervalSetAccumulator] = {}
            for contribution in state.contributions.values():
                for bindings, times in contribution:
                    accumulator = accumulators.get(bindings)
                    if accumulator is None:
                        accumulator = accumulators[bindings] = IntervalSetAccumulator()
                    accumulator.add(times)
            families = [
                (bindings, accumulator.build())
                for bindings, accumulator in accumulators.items()
            ]
            state.merged = IntervalBindingTable(state.variables, families)
        else:
            rows: set[tuple] = set()
            for contribution in state.contributions.values():
                rows.update(contribution)
            state.merged = BindingTable.build(state.variables, rows)
        return state.merged
