"""Frontier rows, the coalescing frontier and interval-native Step 3.

A frontier :class:`Row` tracks one partial match while a chain is
processed left to right.  It consists of *groups*: maximal stretches of
the match during which no temporal navigation occurred.  All variables
bound within a group are valid simultaneously, so a single set of
candidate time intervals per group suffices (Step 1/2 of the paper's
evaluation).  Each temporal-navigation step closes the current group and
opens a new one on the same object; the relationship between the two
groups' time points is recorded as a :class:`TemporalLink` and enforced
when the row is materialized into bindings (Step 3).

A flat ``list[Row]`` threaded through the chain would grow one row per
traversed edge: two distinct paths reaching the same object with the
same bindings give two rows that differ only in their validity
intervals, and bounded temporal navigation (Q11/Q12) multiplies the
per-row work again — the point-style blow-up the paper's interval
representation (Theorem C.1) exists to avoid.  Two structures prevent
it:

* :class:`Frontier` — a set-at-a-time collector that keys rows by their
  *binding signature* (everything observable about a row except the last
  group's validity times: bindings, current objects, earlier groups'
  times and the temporal links) and eagerly merges the validity
  ``IntervalSet``\\ s of signature-equal rows.  After every step the
  frontier holds at most one live row per signature, and every stored
  interval family is coalesced.
* :class:`IntervalMaterializer` — Step 3 without a point-by-point
  ``TemporalLink.admits`` walk.  A backward *alive* pass prunes, with
  pure interval arithmetic, every time point that cannot complete the
  chain; a forward *reach* pass propagates admissible times across
  groups.  Groups that bind no variable are projected out wholesale
  (their times never get enumerated), and rows whose variables all live
  in one temporal group produce a coalesced ``(bindings, IntervalSet)``
  *family* directly — the representation behind
  :meth:`~repro.dataflow.executor.DataflowEngine.match_intervals`, from
  which the point-based row table is derived.

:class:`RowFrontier` is the non-merging collector the per-row walk
(:mod:`repro.dataflow.interpreted`) uses for chain steps that are
injective on signatures (Test, Bind, Temporal), where the signature
bookkeeping could never find anything to merge.
:meth:`Row.enumerate_times` and :meth:`TemporalLink.admits` are the
point-wise definition of Step 3 that the tests compare the materializer
against.

Merging only the *last* group's times is exact: materialization
enumerates group times left to right and the link predicate is pointwise
in the last time, so for rows agreeing on everything else the outputs of
the merged row are exactly the union of the outputs of the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from repro.errors import EvaluationError
from repro.model.itpg import IntervalTPG
from repro.perf.graph_index import GraphIndex
from repro.temporal.alignment import reachable_sources, reachable_window
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet, IntervalSetAccumulator

ObjectId = Hashable
#: One coalesced output entry: variable bindings plus shared validity times.
IntervalFamily = tuple[tuple[tuple[str, ObjectId], ...], IntervalSet]


@dataclass(frozen=True)
class Group:
    """Bindings sharing a single (still interval-valued) matching time."""

    bindings: tuple[tuple[str, ObjectId], ...]
    current: ObjectId
    times: IntervalSet

    def bind(self, variable: str) -> "Group":
        return Group(self.bindings + ((variable, self.current),), self.current, self.times)

    def with_current(self, obj: ObjectId, times: IntervalSet) -> "Group":
        return Group(self.bindings, obj, times)

    def with_times(self, times: IntervalSet) -> "Group":
        return Group(self.bindings, self.current, times)


@dataclass(frozen=True)
class TemporalLink:
    """Constraint between the times of two adjacent groups.

    The link is carried by the object ``obj`` (temporal navigation never
    changes the object).  If ``t`` is the time of the earlier group and
    ``t'`` the time of the later group then the constraint is
    ``lower <= delta <= upper`` with ``delta = t' - t`` when ``forward``
    and ``delta = t - t'`` otherwise; ``upper`` ``None`` means unbounded.
    When ``contiguous`` is set, every time point between ``t`` and ``t'``
    must belong to the existence of ``obj``.
    """

    obj: ObjectId
    forward: bool
    lower: int
    upper: Optional[int]
    contiguous: bool

    def admits(self, graph: IntervalTPG, t_from: int, t_to: int) -> bool:
        """Point-level check used during materialization.

        ``contiguous`` requires every *visited* point to exist — the
        anchor ``t_from`` itself is excluded (``(N/∃)[n, m]`` semantics),
        so the existence run is looked up at the first visited point.
        """
        delta = (t_to - t_from) if self.forward else (t_from - t_to)
        if delta < self.lower:
            return False
        if self.upper is not None and delta > self.upper:
            return False
        if self.contiguous and delta > 0:
            first = t_from + 1 if self.forward else t_from - 1
            run = graph.existence(self.obj).interval_containing(first)
            if run is None or t_to not in run:
                return False
        return True


@dataclass(frozen=True)
class Row:
    """One partial match: a sequence of groups joined by temporal links."""

    groups: tuple[Group, ...]
    links: tuple[TemporalLink, ...]

    @property
    def last(self) -> Group:
        return self.groups[-1]

    def replace_last(self, group: Group) -> "Row":
        return Row(self.groups[:-1] + (group,), self.links)

    def append_group(self, group: Group, link: TemporalLink) -> "Row":
        return Row(self.groups + (group,), self.links + (link,))

    def is_alive(self) -> bool:
        """A row stays in the frontier only while its last group has candidate times."""
        return not self.last.times.is_empty()

    def variable_positions(self) -> dict[str, tuple[int, ObjectId]]:
        """Map each bound variable to its group index and bound object."""
        positions: dict[str, tuple[int, ObjectId]] = {}
        for index, group in enumerate(self.groups):
            for variable, obj in group.bindings:
                positions[variable] = (index, obj)
        return positions

    def enumerate_times(self, graph: IntervalTPG) -> Iterator[tuple[int, ...]]:
        """Enumerate the group-time assignments consistent with every link.

        This is the point-wise expansion of Step 3: each yielded tuple
        assigns one time point per group.
        """
        yield from self._enumerate(graph, 0, ())

    def _enumerate(
        self, graph: IntervalTPG, index: int, prefix: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        if index == len(self.groups):
            yield prefix
            return
        group = self.groups[index]
        for t in group.times.points():
            if index > 0 and not self.links[index - 1].admits(graph, prefix[-1], t):
                continue
            yield from self._enumerate(graph, index + 1, prefix + (t,))


def initial_row(obj: ObjectId, domain_times: IntervalSet) -> Row:
    """A fresh frontier row anchored at ``obj`` with the full temporal domain."""
    return Row((Group((), obj, domain_times),), ())


def row_signature(
    row: Row, object_id: Optional[Mapping[ObjectId, int]] = None
) -> tuple:
    """The binding signature of a frontier row.

    Two rows with equal signatures are interchangeable for every later
    chain step and for materialization, except for their last group's
    validity times — which is precisely the component the coalescing
    frontier merges.  With a :class:`~repro.perf.graph_index.GraphIndex`
    available, objects are interned through its dense ``object_id``
    table so signatures hash over small integers instead of raw
    identifiers.
    """
    groups = row.groups
    if len(groups) == 1:
        # Pre-temporal-navigation rows (the hot case): no links, no head
        # groups — the signature is just bindings + current object.
        last = groups[0]
        if object_id is None:
            return (last.bindings, last.current)
        return (
            tuple((name, object_id[obj]) for name, obj in last.bindings),
            object_id[last.current],
        )
    if object_id is None:
        parts = [(g.bindings, g.current, g.times) for g in groups[:-1]]
        last = groups[-1]
        parts.append((last.bindings, last.current, None))
    else:
        parts = [
            (
                tuple((name, object_id[obj]) for name, obj in g.bindings),
                object_id[g.current],
                g.times,
            )
            for g in groups[:-1]
        ]
        last = groups[-1]
        parts.append(
            (
                tuple((name, object_id[obj]) for name, obj in last.bindings),
                object_id[last.current],
                None,
            )
        )
    return (tuple(parts), row.links)


class RowFrontier:
    """A non-merging collector: a flat list that keeps every produced row.

    Sound only where no two produced rows can share a signature — the
    per-row walk's ``ChainWalk.collector_for`` routes the injective
    steps here.
    """

    __slots__ = ("_rows", "rows_added")

    def __init__(self) -> None:
        self._rows: list[Row] = []
        self.rows_added = 0

    @property
    def rows_merged(self) -> int:
        return 0

    def add(self, row: Row) -> None:
        self.rows_added += 1
        self._rows.append(row)

    def rows(self) -> list[Row]:
        return self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)


class Frontier:
    """A set-at-a-time frontier keyed by binding signature.

    ``add`` either stores a new row or merges the incoming row's last
    validity family into the signature's accumulator; merged families
    are coalesced once per signature when the rows are next read (an
    amortized single pass via :class:`IntervalSetAccumulator` instead of
    repeated pairwise unions).  The frontier therefore maintains two
    invariants between steps:

    * no two live rows share a binding signature;
    * every stored interval family satisfies the FC (coalesced)
      invariant.
    """

    __slots__ = ("_rows", "_pending", "_object_id", "rows_added", "rows_merged")

    def __init__(self, object_id: Optional[Mapping[ObjectId, int]] = None) -> None:
        self._rows: dict[tuple, Row] = {}
        self._pending: dict[tuple, IntervalSetAccumulator] = {}
        self._object_id = object_id
        self.rows_added = 0
        self.rows_merged = 0

    def add(self, row: Row) -> None:
        self.rows_added += 1
        key = row_signature(row, self._object_id)
        existing = self._rows.get(key)
        if existing is None:
            self._rows[key] = row
            return
        self.rows_merged += 1
        accumulator = self._pending.get(key)
        if accumulator is None:
            accumulator = IntervalSetAccumulator()
            accumulator.add(existing.last.times)
            self._pending[key] = accumulator
        accumulator.add(row.last.times)

    def _flush(self) -> None:
        if not self._pending:
            return
        for key, accumulator in self._pending.items():
            row = self._rows[key]
            self._rows[key] = row.replace_last(
                row.last.with_times(accumulator.build())
            )
        self._pending.clear()

    def rows(self) -> list[Row]:
        self._flush()
        return list(self._rows.values())

    def signatures(self) -> list[tuple]:
        """The live signatures (test hook for the uniqueness invariant)."""
        return list(self._rows)

    def __iter__(self) -> Iterator[Row]:
        self._flush()
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)


class IntervalMaterializer:
    """Interval-native Step 3: from frontier rows to bindings.

    All link reasoning happens through
    :func:`~repro.temporal.alignment.reachable_window`, whose aggregate
    union is exact, so the passes below never consult the point-level
    :meth:`TemporalLink.admits` predicate:

    * :meth:`alive_sets` — backward pass; ``alive[i]`` is the subset of
      group ``i``'s times from which the remaining links can all be
      satisfied.  Enumerating only alive points makes every recursion
      branch productive (no dead-end prefixes).
    * :meth:`row_family` — when at most one group binds variables, the
      forward pass stays aggregated end to end and the row's entire
      output is one coalesced ``(bindings, IntervalSet)`` family.
    * :meth:`row_points` — the general case enumerates points only for
      groups that bind variables; unbound groups are projected through
      as whole interval sets.
    """

    def __init__(self, index: GraphIndex) -> None:
        self._existence = index.existence
        self._domain = index.graph.domain

    # ------------------------------------------------------------------ #
    # Link propagation primitives
    # ------------------------------------------------------------------ #
    def link_targets(self, link: TemporalLink, anchors: IntervalSet) -> IntervalSet:
        """All times reachable from any anchor time through ``link``."""
        existence = self._existence[link.obj]
        accumulator = IntervalSetAccumulator()
        for anchor in anchors:
            for _piece, window in reachable_window(
                anchor,
                existence,
                link.lower,
                link.upper,
                link.forward,
                link.contiguous,
                self._domain,
            ):
                accumulator.add_interval(window)
        return accumulator.build()

    def link_sources(self, link: TemporalLink, targets: IntervalSet) -> IntervalSet:
        """All times from which some target time is reachable through ``link``.

        Uses :func:`~repro.temporal.alignment.reachable_sources` — for
        contiguous links the inverse is *not* a direction flip, because
        the visited points exclude the anchor but include the endpoint.
        """
        existence = self._existence[link.obj]
        accumulator = IntervalSetAccumulator()
        for piece in targets:
            for window in reachable_sources(
                piece,
                existence,
                link.lower,
                link.upper,
                link.forward,
                link.contiguous,
                self._domain,
            ):
                accumulator.add_interval(window)
        return accumulator.build()

    def _point_next(
        self, link: TemporalLink, t: int, restrict: IntervalSet
    ) -> IntervalSet:
        """Exact targets reachable from the single point ``t``, ∩ ``restrict``.

        The hot inner call of bound-group enumeration: a point anchor
        touches at most one existence run, so the window arithmetic is
        done inline with one binary-search run lookup instead of the
        general per-family machinery of :meth:`link_targets`.
        """
        lo, hi, forward = link.lower, link.upper, link.forward
        domain = self._domain
        if not link.contiguous:
            if forward:
                window_lo = t + lo
                window_hi = domain.end if hi is None else t + hi
            else:
                window_hi = t - lo
                window_lo = domain.start if hi is None else t - hi
            window_lo = max(window_lo, domain.start)
            window_hi = min(window_hi, domain.end)
            if window_lo > window_hi:
                return IntervalSet.empty()
            return restrict.intersect_interval(Interval(window_lo, window_hi))
        pieces: list[Interval] = []
        min_moves = max(lo, 1)
        if hi is None or hi >= 1:
            # All visited points share the run containing the first one.
            first = t + 1 if forward else t - 1
            run = self._existence[link.obj].interval_containing(first)
            if run is not None:
                if forward:
                    window_lo = t + min_moves
                    window_hi = run.end if hi is None else min(run.end, t + hi)
                else:
                    window_hi = t - min_moves
                    window_lo = run.start if hi is None else max(run.start, t - hi)
                if window_lo <= window_hi:
                    pieces.extend(
                        restrict.intersect_interval(
                            Interval(window_lo, window_hi)
                        ).intervals
                    )
        if lo == 0 and restrict.contains_point(t):
            pieces.append(Interval.point(t))
        if not pieces:
            return IntervalSet.empty()
        if len(pieces) == 1:
            return IntervalSet._from_coalesced(pieces)
        return IntervalSet(pieces)

    # ------------------------------------------------------------------ #
    # Backward (alive) and forward (reach) passes
    # ------------------------------------------------------------------ #
    def alive_sets(self, row: Row) -> list[IntervalSet]:
        """Per group, the times from which the suffix of links is satisfiable."""
        groups = row.groups
        alive: list[IntervalSet] = [IntervalSet.empty()] * len(groups)
        alive[-1] = groups[-1].times
        for i in range(len(groups) - 2, -1, -1):
            successors = alive[i + 1]
            if successors.is_empty():
                alive[i] = IntervalSet.empty()
                continue
            alive[i] = groups[i].times.intersect(
                self.link_sources(row.links[i], successors)
            )
        return alive

    def _bound_groups(
        self, row: Row, variables: tuple[str, ...]
    ) -> tuple[dict[str, tuple[int, ObjectId]], list[int]]:
        positions = row.variable_positions()
        missing = [v for v in variables if v not in positions]
        if missing:
            raise EvaluationError(f"variables {missing} were never bound")
        return positions, sorted({positions[v][0] for v in variables})

    def row_family(
        self, row: Row, variables: tuple[str, ...]
    ) -> Optional[IntervalFamily]:
        """The row's coalesced output family, or ``None`` if it has no output.

        Defined only when every variable is bound within a single
        temporal group (all bindings then share one matching time);
        raises :class:`EvaluationError` otherwise — those rows cannot be
        coalesced, as discussed in Section VI.
        """
        positions, bound = self._bound_groups(row, variables)
        if len(bound) > 1:
            raise EvaluationError(
                "interval (coalesced) output is only defined when every variable "
                "is bound within a single temporal group"
            )
        bindings = tuple((v, positions[v][1]) for v in variables)
        if len(row.groups) == 1:
            times = row.last.times
            return (bindings, times) if not times.is_empty() else None
        alive = self.alive_sets(row)
        reach = alive[0]
        target = bound[0] if bound else 0
        for i in range(target):
            if reach.is_empty():
                return None
            reach = self.link_targets(row.links[i], reach).intersect(alive[i + 1])
        if reach.is_empty():
            return None
        return bindings, reach

    def row_points(
        self, row: Row, variables: tuple[str, ...]
    ) -> Iterator[tuple[tuple[ObjectId, int], ...]]:
        """The row's point-based output tuples (general Step 3).

        Deduplicated per bound-group assignment: unbound groups never
        multiply the yielded rows.
        """
        positions, bound = self._bound_groups(row, variables)
        if len(bound) <= 1:
            family = self.row_family(row, variables)
            if family is None:
                return
            bindings, times = family
            if not variables:
                # No columns: one empty row records that the chain matched.
                yield ()
                return
            # All variables share one group, so every binding carries the
            # same matching time.
            objects = tuple(obj for _name, obj in bindings)
            for t in times.points():
                yield tuple((obj, t) for obj in objects)
            return

        alive = self.alive_sets(row)
        if alive[0].is_empty():
            return
        bound_set = set(bound)
        last_bound = bound[-1]
        var_slots = tuple((positions[v][0], positions[v][1]) for v in variables)
        chosen: dict[int, int] = {}

        def emit() -> tuple[tuple[ObjectId, int], ...]:
            return tuple((obj, chosen[g]) for g, obj in var_slots)

        def recurse(i: int, times: IntervalSet) -> Iterator[tuple]:
            if i in bound_set:
                for t in times.points():
                    chosen[i] = t
                    if i == last_bound:
                        # alive-intersected times guarantee the suffix of
                        # links is satisfiable; nothing left to check.
                        yield emit()
                        continue
                    nxt = self._point_next(row.links[i], t, alive[i + 1])
                    if not nxt.is_empty():
                        yield from recurse(i + 1, nxt)
            else:
                nxt = self.link_targets(row.links[i], times).intersect(alive[i + 1])
                if not nxt.is_empty():
                    yield from recurse(i + 1, nxt)

        yield from recurse(0, alive[0])

    # ------------------------------------------------------------------ #
    # Frontier-level drivers
    # ------------------------------------------------------------------ #
    def families(
        self, rows: Iterable[Row], variables: tuple[str, ...]
    ) -> list[IntervalFamily]:
        """Coalesced per-binding families for a whole frontier.

        Families of rows with equal bindings (reached through different
        unbound paths) are merged, so the result has exactly one entry
        per distinct binding tuple.
        """
        merged: dict[tuple, list[IntervalSet]] = {}
        for row in rows:
            family = self.row_family(row, variables)
            if family is None:
                continue
            bindings, times = family
            merged.setdefault(bindings, []).append(times)
        return [
            (bindings, IntervalSet.union_many(families))
            for bindings, families in merged.items()
        ]

    def points(
        self, rows: Iterable[Row], variables: tuple[str, ...]
    ) -> list[tuple[tuple[ObjectId, int], ...]]:
        """Point-based output tuples for a whole frontier."""
        out: list[tuple[tuple[ObjectId, int], ...]] = []
        for row in rows:
            out.extend(self.row_points(row, variables))
        return out
