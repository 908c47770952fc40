"""Columnar (vectorized) evaluation kernel for dataflow step chains.

This is the one kernel ``DataflowEngine(graph)`` runs a query on — ad
hoc and for a streaming session's registered queries alike.  This
module plans a chain into sequences of *columnar ops* executed
as NumPy sweeps over flat arrays:

* the frontier is a struct-of-arrays: ``cur`` (dense object ids, one
  per row), one int64 column per bound variable, and the per-row
  validity families as three parallel int64 arrays ``(owner, start,
  end)`` — ``owner`` is the row index, sorted ascending, and each
  owner's intervals form a coalesced family (sorted, pairwise disjoint,
  non-adjacent);
* the graph image is a :class:`ColumnarContext`, owned by the
  :class:`~repro.perf.graph_index.GraphIndex` (one per graph) and
  patched in place by its delta maintenance: CSR adjacency and
  existence over the dense ids, read from the graph's own accessors,
  and per-condition CSR tables decoded from the index's memoized
  condition tables;
* interval algebra happens on a *global axis*: an interval ``[s, e]``
  of row ``r`` maps to ``r * stride + (s - domain.start)`` with
  ``stride = domain span + 2``.  The two-point guard gap means
  coalescing (which merges intervals with gap <= 1) can never fuse
  intervals across rows, and the ±1 shifts of contiguous temporal
  navigation stay inside a row's band.  Intersection of two coalesced
  global families is a ``searchsorted`` expansion; coalescing is one
  argsort plus ``maximum.reduceat``.

The kernel covers every dataflow chain.  An op sequence holds Test /
Struct / Bind / temporal-free Alt steps, with TemporalSteps anywhere on
its outer chain; each structural or temporal move is one op together
with the tests on what it lands on (:func:`_fold`, the one place where
tests fuse into moves).  A TemporalStep *freezes* the
frontier: the state it navigated from stays behind as a closed temporal
group (bindings + family + the step as link), each surviving row keeps
an index into it, and the reached times become the row's current family.
An alternation whose branches navigate through time would make that
group structure branch-dependent, so :func:`compile_ops` distributes it
at compile time — ``X·(A|B)·Y`` becomes the *leaves* ``X·A·Y`` and
``X·B·Y`` — and the entry points union the leaves' answers.  Output
mode is a property of the projection, not of an op: variables bound in
one group come out as :class:`FamilyTable` families, variables spanning
groups as a :class:`PointTable` whose linked ``(t, t')`` pairs are
expanded in array form.  A plan also holds the chain's converse, and
each run seeds from whichever end holds fewer points (:func:`choose`).
Every answer is differential-fuzzed against the point-based
:class:`~repro.eval.engine.ReferenceEngine`, in both directions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.dataflow.steps import (
    FAMILIES_UNDEFINED,
    AltStep,
    BindStep,
    ChainStep,
    StructStep,
    TemporalStep,
    TestStep,
    chain_has_temporal_step,
    converse_chain,
)
from repro.errors import EvaluationError
from repro.eval.bindings import BindingTable, IntervalBindingTable
from repro.lang.ast import AndTest, Test, and_
from repro.resilience import failpoints
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable


# --------------------------------------------------------------------- #
# Plan: chain -> columnar ops
# --------------------------------------------------------------------- #
class ColumnarPlan:
    """A full-query columnar plan: seed spec + the compiled leaves.

    ``chain_steps`` counts the chain steps after the seed's tests, and
    ``converse`` is the plan of the chain read from its far end (see
    :func:`plan_query`), or ``None``.
    """

    __slots__ = ("seed_condition", "leaves", "chain_steps", "converse")

    def __init__(
        self,
        seed_condition: Optional[Test],
        leaves: "Leaves",
        chain_steps: int = 0,
        converse: Optional["ColumnarPlan"] = None,
    ) -> None:
        self.seed_condition = seed_condition
        self.leaves = leaves
        self.chain_steps = chain_steps
        self.converse = converse


class Leaves:
    """A compiled chain's *leaves*: op sequences whose answers union to
    the chain's, built one at a time as they are iterated.

    ``k`` two-way temporal alternations in sequence make ``2**k``
    leaves, so the plan keeps only the per-alternation branch structure
    (linear in the chain) and :func:`_run_leaves` builds each next leaf
    after a deadline check.  ``count`` is the number of leaves; a
    one-leaf chain — every chain without a temporal alternation — keeps
    its op sequence as ``single``.
    """

    __slots__ = ("_parts", "count", "single")

    def __init__(self, parts: tuple) -> None:
        self._parts = parts
        self.count = _count(parts)
        self.single = _leaf(next(_expand(parts))) if self.count == 1 else None

    def __iter__(self):
        if self.single is not None:
            return iter((self.single,))
        return (_leaf(ops) for ops in _expand(self._parts))


def compile_ops(chain: Sequence[ChainStep]) -> Leaves:
    """Compile a chain into its :class:`Leaves`.

    Each struct or temporal op takes the tests on what it lands on into
    its own op (:func:`_fold`).  A TemporalStep closes the current
    temporal group (see :meth:`_Kernel._op_temporal`), which only the
    outer chain of an op sequence can do: an alternation whose branches
    navigate through time is distributed instead, ``X·(A|B)·Y`` into the
    leaves ``X·A·Y`` and ``X·B·Y`` (recursively; equal branches run
    once).  A temporal-free alternation stays one ``alt`` op, so most
    chains are a single leaf.
    """
    return Leaves(_parts(chain))


def _parts(chain: Sequence[ChainStep]) -> tuple:
    """The chain as ``("ops", ops)`` runs and, per temporal alternation,
    a ``("fork", branches)`` of its distinct branches' parts."""
    parts: list = []
    ops: list = []
    for step in chain:
        if isinstance(step, AltStep) and chain_has_temporal_step((step,)):
            if ops:
                parts.append(("ops", tuple(ops)))
                ops = []
            branches = dict.fromkeys(_parts(alt) for alt in step.alternatives)
            parts.append(("fork", tuple(branches)))
        else:
            ops.extend(_ops(step))
    if ops:
        parts.append(("ops", tuple(ops)))
    return tuple(parts)


def _ops(step: ChainStep) -> list:
    """The ops of one step outside a temporal alternation."""
    if isinstance(step, TestStep):
        return [("test", step.condition)]
    if isinstance(step, StructStep):
        return [("struct", step.forward)]
    if isinstance(step, BindStep):
        return [("bind", step.variable)]
    if isinstance(step, TemporalStep):
        return [("temporal", step)]
    if isinstance(step, AltStep):
        # Temporal-free: every branch is exactly one op sequence.
        branches = (tuple(op for s in alt for op in _ops(s)) for alt in step.alternatives)
        return [("alt", tuple(branches))]
    raise TypeError(f"unknown chain step {step!r}")


def _count(parts: tuple) -> int:
    """How many leaves :func:`_expand` yields for ``parts``."""
    count = 1
    for kind, payload in parts:
        if kind == "fork":
            count *= sum(_count(branch) for branch in payload)
    return count


def _expand(parts: tuple, prefix: tuple = ()):
    """Yield ``prefix`` + each leaf of ``parts``, bounds not yet pushed."""
    if not parts:
        yield prefix
        return
    (kind, payload), rest = parts[0], parts[1:]
    if kind == "ops":
        yield from _expand(rest, prefix + payload)
        return
    for branch in payload:
        for head in _expand(branch, prefix):
            yield from _expand(rest, head)


def _leaf(ops: Sequence) -> tuple:
    """One leaf's op sequence as the kernel runs it: folded, then bounded."""
    return _push_bounds(_fold(ops), ())


def _fold(ops: Sequence) -> tuple:
    """Fold every run of tests into the move it directly follows.

    A run of tests first drops each test another one implies
    (:func:`_absorb`).  A struct or temporal op then takes the run as
    ``(tag, move, tests)`` (``tests`` empty when no test follows it), so
    the kernel meets the landing conditions before it merges (see
    :meth:`_Kernel._op_struct`) or opens the next temporal group (see
    :meth:`_Kernel._op_temporal`).  Runs of tests after any other op
    stay ``("test", condition)`` ops.
    """
    out: list = []
    run: list = []
    for op in (*ops, None):
        if op is not None and op[0] == "test":
            run.append(op[1])
            continue
        if run:
            tests = _absorb(run)
            if out and out[-1][0] in _MOVES:
                out[-1] = (*out[-1][:2], tests)
            else:
                out.extend(("test", condition) for condition in tests)
            run = []
        if op is None:
            break
        if op[0] in _MOVES:
            op = (*op, ())
        elif op[0] == "alt":
            op = ("alt", tuple(_fold(branch) for branch in op[1]))
        out.append(op)
    return tuple(out)


#: The ops that fold the tests after them (:func:`_fold`).
_MOVES = ("struct", "temporal")


def _absorb(conditions: Sequence[Test]) -> tuple:
    """``conditions`` without each one another of them implies.

    A condition implies another when the other's conjuncts are a subset
    of its own, so it holds on a subset of the other's times and the
    run's intersection does not change; of equal conditions the first
    stays.
    """
    parts = [_conjuncts(condition) for condition in conditions]
    return tuple(
        condition
        for i, condition in enumerate(conditions)
        if not any(
            parts[i] < parts[j] or (parts[i] == parts[j] and j < i)
            for j in range(len(conditions))
        )
    )


def _conjuncts(condition: Test) -> frozenset:
    if isinstance(condition, AndTest):
        return frozenset(condition.parts)
    return frozenset((condition,))


def _push_bounds(ops: Sequence, bounds: tuple) -> tuple:
    """Hand every move the time bounds its targets are about to face.

    Walking backwards over folded ops (:func:`_fold`), ``bounds``
    collects ``(condition, low shift, high shift)`` for the tests — a
    struct's own, and a temporal op's own, shifted by its reach — that
    apply to the object a move (or an alternation branch) lands on, so
    ``_op_struct`` never replicates families to targets those ops are
    about to reject, and ``_op_temporal`` drops the rows whose object
    its tests rule out before any window arithmetic.  A move comes out
    as ``(tag, move, tests, bounds)``.
    """
    out = list(ops)
    for position in range(len(out) - 1, -1, -1):
        tag, payload = out[position][:2]
        if tag == "test":
            bounds = ((payload, 0, 0),) + bounds
        elif tag == "temporal":
            low, high = payload.lower, payload.upper
            if payload.forward == payload.converse:  # back in time
                low, high = None if high is None else -high, -low
            tests = out[position][2]
            bounds = tuple((c, low, high) for c in tests)
            out[position] = ("temporal", payload, tests, bounds)
        elif tag == "struct":
            tests = out[position][2]
            bounds = tuple((c, 0, 0) for c in tests) + bounds
            out[position] = ("struct", payload, tests, bounds)
            bounds = ()
        elif tag == "alt":
            out[position] = ("alt", tuple(_push_bounds(b, bounds) for b in payload))
            bounds = ()
    return tuple(out)


def describe_ops(ops: Sequence) -> list[str]:
    """A planned leaf's ops as short strings, e.g. ``struct B
    [(:visits AND EXISTS)]`` (what ``explain()["ops"]`` reports)."""
    return [_describe(op) for op in ops]


def _describe(op: tuple) -> str:
    tag = op[0]
    if tag in _MOVES:
        tests = f" [{', '.join(map(repr, op[2]))}]" if op[2] else ""
        if tag == "struct":
            return f"struct {'F' if op[1] else 'B'}{tests}"
        step = op[1]
        upper = "_" if step.upper is None else step.upper
        return (
            f"temporal {'N' if step.forward else 'P'}[{step.lower},{upper}]"
            + ("" if step.require_existence else " unchecked")
            + (" converse" if step.converse else "")
            + tests
        )
    if tag == "test":
        return f"test {op[1]!r}"
    if tag == "bind":
        return f"bind {op[1]}"
    branches = (" · ".join(describe_ops(branch)) for branch in op[1])
    return f"alt ({' | '.join(branches)})"


def plan_query(chain: tuple[ChainStep, ...]) -> ColumnarPlan:
    """Plan a full compiled chain and, when it has one, its converse.

    Each direction seeds from the conjunction of its leading tests,
    those another one implies dropped (:func:`_absorb`):
    :func:`run_query` seeds from its condition table.  The converse
    (:func:`~repro.dataflow.steps.converse_chain`) denotes the same
    answers, so which one runs is a cost choice made per run
    (:func:`choose`); a chain without a move, or whose far end has no
    test to seed from, has none.

    Nothing caches the result here: the
    :class:`~repro.dataflow.executor.QueryPlan` that
    :meth:`~repro.dataflow.executor.DataflowEngine.prepare` builds holds
    it."""
    plan = _plan_direction(chain)
    if any(not isinstance(step, (TestStep, BindStep)) for step in chain):
        far = converse_chain(chain)
        if isinstance(far[0], TestStep):
            plan.converse = _plan_direction(far)
    return plan


def _plan_direction(chain: Sequence[ChainStep]) -> ColumnarPlan:
    lead = 0
    while lead < len(chain) and isinstance(chain[lead], TestStep):
        lead += 1
    seed = and_(*_absorb([step.condition for step in chain[:lead]])) if lead else None
    return ColumnarPlan(seed, compile_ops(chain[lead:]), len(chain) - lead)


# --------------------------------------------------------------------- #
# Context: one GraphIndex as flat arrays
# --------------------------------------------------------------------- #
class ColumnarContext:
    """Dense-array image of one indexed graph, maintained in place.

    One image per graph: the index owns it
    (:meth:`GraphIndex.columnar_context`), so every engine on the graph
    shares it — the graph's adjacency (rows ascending by dense
    id) and existence as int64 CSR over dense object ids, edge
    endpoints as flat successor arrays, and
    per-condition CSR tables materialized on first use from the index's
    memoized condition tables.  Delta maintenance patches it
    (:meth:`patch`) instead of rebuilding: dense ids are
    append-only, so new objects extend the tails and only the dirty
    rows are re-derived in Python and re-spliced.
    """

    def __init__(self, index) -> None:
        self._index = index
        self._set_domain()
        self.object_id = index.object_id
        empty = np.empty(0, dtype=np.int64)
        self.is_node = np.empty(0, dtype=bool)
        self.succ_fwd = self.succ_bwd = empty
        self._conditions: dict[Test, tuple] = {}
        self._hulls: dict[Test, tuple] = {}
        self._points: dict[Test, int] = {}
        origin = np.zeros(1, dtype=np.int64)
        self.ex_indptr, self.ex_start, self.ex_end = origin, empty, empty
        self.out_indptr, self.out_ids = origin, empty
        self.in_indptr, self.in_ids = origin, empty
        graph = index.graph
        nodes = list(graph.nodes())
        self._derive(
            index.objects,
            {node: graph.out_edges(node) for node in nodes},
            {node: graph.in_edges(node) for node in nodes},
            {},
        )

    def _set_domain(self) -> None:
        domain = self._index.domain
        self.domain_start = int(domain.start)
        self.domain_end = int(domain.end)
        #: Global-axis row stride: domain span plus a 2-wide guard gap so
        #: coalescing (gap <= 1 merges) and ±1 contiguous-navigation
        #: shifts can never cross row bands.
        self.stride = self.domain_end - self.domain_start + 2

    # -- graph tables ---------------------------------------------------- #
    def _derive(self, existence, out_edges: dict, in_edges: dict, conditions: dict) -> None:
        """(Re-)derive the named objects' rows of the image from the graph.

        The one Python walk behind both the initial build (every object)
        and a delta patch: objects past the current tails append their
        ``is_node``/``succ_*`` slots and every CSR grows to the new
        object count; then exactly the named rows change — the
        ``existence`` objects' rows are re-spliced, each ``out_edges`` /
        ``in_edges`` key's adjacency row gains the edges it maps to, in
        ascending dense id (adjacency only grows, and new edges have the
        highest ids, so every row stays ascending), and per cached
        condition the objects ``conditions`` lists for it are re-spliced.
        The condition CSRs are walked over a snapshot: a reader may cache
        a new one meanwhile, already current.
        """
        index = self._index
        graph = index.graph
        objects = self.objects = index.objects
        n = self.num_objects = len(objects)
        object_id = self.object_id
        nodes = index.nodes()
        appended = objects[self.is_node.size :]
        if appended:
            ends = [None if o in nodes else graph.endpoints(o) for o in appended]

            def successors(side):
                return np.array(
                    [-1 if pair is None else object_id[pair[side]] for pair in ends],
                    dtype=np.int64,
                )

            node = np.array([pair is None for pair in ends], dtype=bool)
            self.is_node = np.concatenate((self.is_node, node))
            self.succ_fwd = np.concatenate((self.succ_fwd, successors(1)))
            self.succ_bwd = np.concatenate((self.succ_bwd, successors(0)))

        def rows(objs):
            return [object_id[obj] for obj in objs]

        def grow(csr, additions):
            ids = [sorted(object_id[edge] for edge in row) for row in additions.values()]
            return _splice(
                csr,
                n,
                rows(additions),
                [len(row) for row in ids],
                [i for row in ids for i in row],
                append=True,
            )

        self.ex_indptr, self.ex_start, self.ex_end = _splice(
            (self.ex_indptr, self.ex_start, self.ex_end),
            n,
            rows(existence),
            *_family_rows(graph.existence(obj) for obj in existence),
        )
        self.out_indptr, self.out_ids = grow((self.out_indptr, self.out_ids), out_edges)
        self.in_indptr, self.in_ids = grow((self.in_indptr, self.in_ids), in_edges)
        for condition, arrays in list(self._conditions.items()):
            table = index.condition_table(condition)
            changed = conditions.get(condition, ())
            self._conditions[condition] = _splice(
                arrays, n, rows(changed), *_family_rows(table.get(obj) for obj in changed)
            )

    def patch(
        self, horizon_advanced: bool, existence, out_edges, in_edges, conditions: dict
    ) -> None:
        """Patch the image; :meth:`GraphIndex.apply_delta` calls this last
        with the objects whose rows changed and the edges new to each
        endpoint (see :meth:`_derive`).

        A horizon advance re-clamps every condition family to the new
        domain, so the condition arrays (and ``stride``) drop and rebuild
        on next use; existence and adjacency are never clamped.
        """
        if horizon_advanced:
            self._set_domain()
            self._conditions.clear()
        self._hulls.clear()
        self._points.clear()
        self._derive(existence, out_edges, in_edges, conditions)

    # -- condition tables ------------------------------------------------- #
    def condition_arrays(self, condition: Test) -> tuple:
        """``(indptr, starts, ends)`` CSR over dense ids for one condition.

        Decoded once per condition from the index's memoized table
        (objects absent from the table get an empty row: a test kills
        them) and patched with the rest of the image afterwards.
        """
        cached = self._conditions.get(condition)
        if cached is None:
            table = self._index.condition_table(condition)
            object_id = self.object_id
            origin = np.zeros(1, dtype=np.int64)
            empty = np.empty(0, dtype=np.int64)
            cached = self._conditions[condition] = _splice(
                (origin, empty, empty),
                self.num_objects,
                [object_id[obj] for obj in table],
                *_family_rows(table.values()),
            )
        return cached

    def seed_points(self, condition: Optional[Test]) -> int:
        """How many ``(object, time)`` points a frontier seeded from
        ``condition`` holds (every object under domain times for
        ``None``): the size :func:`choose` compares."""
        if condition is None:
            return self.num_objects * (self.domain_end - self.domain_start + 1)
        points = self._points.get(condition)
        if points is None:
            _indptr, starts, ends = self.condition_arrays(condition)
            points = self._points[condition] = int((ends - starts).sum()) + starts.size
        return points

    def condition_hull(self, condition: Test) -> tuple:
        """Per-object ``(first start, last end)`` of a condition's family.

        Objects the condition never holds on get an inverted hull, which
        no interval overlaps.
        """
        hull = self._hulls.get(condition)
        if hull is None:
            indptr, starts, ends = self.condition_arrays(condition)
            filled = np.flatnonzero(np.diff(indptr))
            bounds = np.iinfo(np.int64)
            low = np.full(self.num_objects, bounds.max, dtype=np.int64)
            high = np.full(self.num_objects, bounds.min, dtype=np.int64)
            low[filled] = starts[indptr[filled]]
            high[filled] = ends[indptr[filled + 1] - 1]
            hull = self._hulls[condition] = (low, high)
        return hull


# --------------------------------------------------------------------- #
# Array primitives
# --------------------------------------------------------------------- #
def _ranges(starts, counts):
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    first = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return np.arange(total, dtype=np.int64) + first


def _family_rows(families) -> tuple[list, list, list]:
    """``(counts, starts, ends)`` of a run of families, flat (``None`` =
    empty family) — plain int lists, so a build allocates no per-interval
    container for the collector to chase."""
    counts: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    for family in families:
        intervals = family.intervals if family is not None else ()
        counts.append(len(intervals))
        for interval in intervals:
            starts.append(interval.start)
            ends.append(interval.end)
    return counts, starts, ends


def _splice(csr: tuple, n: int, rows, counts, *fresh, append: bool = False) -> tuple:
    """Replace ``rows`` of a CSR ``(indptr, *columns)`` and grow it to ``n``.

    ``rows`` are distinct dense ids in any order (ids past the old tail
    append; rows between the old tail and ``n`` that are not named come
    out empty); row ``rows[i]`` gets ``counts[i]`` new entries, taken in
    order from the flat ``fresh`` sequences (one per column) — after its
    old entries with ``append``, instead of them otherwise.  Ranges are
    only expanded for the named rows: every other entry moves over in
    one masked copy, and with no named rows only ``indptr`` grows.
    """
    indptr, *columns = csr
    old_n = indptr.size - 1
    if not len(rows):
        if n == old_n:
            return csr
        return (np.concatenate((indptr, np.full(n - old_n, indptr[-1]))), *columns)
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    sizes[:old_n] = np.diff(indptr)
    keep = np.ones(int(indptr[-1]), dtype=bool)
    if append:
        sizes[rows] += counts
    else:
        replaced = rows[rows < old_n]
        keep[_ranges(indptr[replaced], sizes[replaced])] = False
        sizes[rows] = counts
    out_indptr = np.concatenate(([0], np.cumsum(sizes)))
    placed = _ranges(out_indptr[rows + 1] - counts, counts)
    moved = np.ones(int(out_indptr[-1]), dtype=bool)
    moved[placed] = False
    out = [out_indptr]
    for column, values in zip(columns, fresh):
        merged = np.empty(moved.size, dtype=np.int64)
        merged[moved] = column[keep]
        merged[placed] = values
        out.append(merged)
    return tuple(out)


def _pairs(a_gs, a_ge, b_gs, b_ge):
    """Index pairs ``(i, j)`` with ``A_i`` overlapping ``B_j``.

    Both sides are global-axis coalesced families sorted by start; the
    expansion is two ``searchsorted`` passes plus a ragged gather.
    """
    if a_gs.size == 0 or b_gs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    lo = np.searchsorted(b_ge, a_gs, side="left")
    hi = np.searchsorted(b_gs, a_ge, side="right")
    counts = np.maximum(hi - lo, 0)
    a_idx = np.repeat(np.arange(a_gs.size, dtype=np.int64), counts)
    b_idx = _ranges(lo, counts)
    return a_idx, b_idx


def _coalesce(stride, domain_start, owner, start, end):
    """Sort + union-merge ``(owner, start, end)`` into canonical form.

    Returns owner-sorted arrays where each owner's intervals are a
    coalesced family.  The guard gap in ``stride`` guarantees the merge
    sweep never unions intervals of different owners.
    """
    if owner.size <= 1:
        return owner, start, end
    gs = owner * stride + (start - domain_start)
    ge = owner * stride + (end - domain_start)
    order = np.argsort(gs, kind="stable")
    gs = gs[order]
    ge = ge[order]
    run_end = np.maximum.accumulate(ge)
    fresh = np.empty(gs.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = gs[1:] > run_end[:-1] + 1
    heads = np.flatnonzero(fresh)
    out_gs = gs[heads]
    out_ge = np.maximum.reduceat(ge, heads)
    out_owner = out_gs // stride
    base = out_owner * stride - domain_start
    return out_owner, out_gs - base, out_ge - base


def _intersect_global(a_gs, a_ge, b_gs, b_ge):
    """Pairwise intersection of two sorted coalesced global families.

    Returns ``(gs, ge, a_idx)``: the (still sorted, still coalesced)
    intersection plus, per output interval, the index of the A-side
    interval it came from (to recover owners without decoding).
    """
    a_idx, b_idx = _pairs(a_gs, a_ge, b_gs, b_ge)
    if a_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.maximum(a_gs[a_idx], b_gs[b_idx]),
        np.minimum(a_ge[a_idx], b_ge[b_idx]),
        a_idx,
    )


def _group_rows(keys: list, count: int):
    """Group rows by the tuple of key columns, first-occurrence ordered.

    Returns ``(group_of, reps)``: per-row group ids and, per group, the
    index of its first member — the representative a coalescing merge
    of signature-equal rows keeps.
    """
    if not keys:
        return (
            np.zeros(count, dtype=np.int64),
            np.zeros(1 if count else 0, dtype=np.int64),
        )
    order = np.lexsort(tuple(keys))
    fresh = np.zeros(count, dtype=bool)
    fresh[:1] = True
    for key in keys:
        sorted_key = key[order]
        fresh[1:] |= sorted_key[1:] != sorted_key[:-1]
    group_sorted = np.cumsum(fresh) - 1
    group_of = np.empty(count, dtype=np.int64)
    group_of[order] = group_sorted
    # lexsort is stable, so the first entry of each sorted group is that
    # group's earliest original row; reorder group ids by it.
    reps_sorted = order[fresh]
    perm = np.argsort(reps_sorted, kind="stable")
    rank = np.empty(perm.size, dtype=np.int64)
    rank[perm] = np.arange(perm.size, dtype=np.int64)
    return rank[group_of], reps_sorted[perm]


# --------------------------------------------------------------------- #
# Frontier state
# --------------------------------------------------------------------- #
class _State:
    """Struct-of-arrays frontier.

    Invariants: ``owner`` ascending; per owner the ``(start, end)``
    intervals form a coalesced family; every row owns >= 1 interval
    (rows whose times empty out are compacted away).

    After a temporal step ``link`` is ``(frozen state, step)`` — the
    closed temporal group the rows navigated from — and ``src`` the
    per-row index into that frozen state (``None`` in group 0).  Binding
    columns of every group travel with the live rows.
    """

    __slots__ = ("cur", "names", "cols", "owner", "start", "end", "link", "src")

    def __init__(
        self, cur, names, cols, owner, start, end, link=None, src=None
    ) -> None:
        self.cur = cur
        self.names = names
        self.cols = cols
        self.owner = owner
        self.start = start
        self.end = end
        self.link = link
        self.src = src

    @property
    def rows(self) -> int:
        return int(self.cur.size)

    @property
    def family(self) -> tuple:
        return self.owner, self.start, self.end

    def with_family(self, owner, start, end) -> "_State":
        return _State(
            self.cur, self.names, self.cols, owner, start, end, self.link, self.src
        )

    def gather(self, rows, cur, owner, start, end) -> "_State":
        """Per-row columns taken at ``rows`` (indices or mask) under a
        new ``cur`` and family."""
        return _State(
            cur,
            self.names,
            [column[rows] for column in self.cols],
            owner,
            start,
            end,
            self.link,
            None if self.src is None else self.src[rows],
        )

    def hulls(self) -> tuple:
        """``(indptr, first start, last end)`` of the per-row families."""
        indptr = _indptr(self.owner, self.rows)
        return indptr, self.start[indptr[:-1]], self.end[indptr[1:] - 1]


def _indptr(owner, count: int):
    """CSR offsets of an ascending ``owner`` array over ``count`` rows."""
    return np.searchsorted(owner, np.arange(count + 1, dtype=np.int64), side="left")


def _take(family: tuple, count: int, rows) -> tuple:
    """Families of ``rows`` out of a ``count``-row family set, re-owned
    ``0..len(rows)-1`` (a ragged gather; ``rows`` may repeat)."""
    owner, start, end = family
    indptr = _indptr(owner, count)
    counts = indptr[rows + 1] - indptr[rows]
    pos = _ranges(indptr[rows], counts)
    return (
        np.repeat(np.arange(rows.size, dtype=np.int64), counts),
        start[pos],
        end[pos],
    )


def _empty_state(names: tuple[str, ...]) -> _State:
    empty = np.empty(0, dtype=np.int64)
    return _State(empty, names, [empty] * len(names), empty, empty, empty)


def _survivors(owner, count: int) -> tuple:
    """``(alive, owner)``: the mask of the ``count`` rows that still own
    an interval (``None`` when all do) and ``owner`` renumbered densely
    over them."""
    alive = np.zeros(count, dtype=bool)
    alive[owner] = True
    if alive.all():
        return None, owner
    return alive, (np.cumsum(alive) - 1)[owner]


def _compact(state: _State, owner, start, end) -> _State:
    """Re-pack after an op dropped intervals: owners renumber densely."""
    alive, owner = _survivors(owner, state.rows)
    if alive is None:
        return state.with_family(owner, start, end)
    return state.gather(alive, state.cur[alive], owner, start, end)


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
class _Kernel:
    """One columnar evaluation: ops over a context, deadline-aware."""

    def __init__(self, ctx: ColumnarContext, deadline=None) -> None:
        self.ctx = ctx
        self.deadline = deadline
        self.rows_merged = 0
        #: Structural moves that skipped :meth:`_merge` (node → edge).
        self.merges_skipped = 0

    # -- helpers --------------------------------------------------------- #
    def _globals(self, owner, start, end):
        ctx = self.ctx
        gs = owner * ctx.stride + (start - ctx.domain_start)
        return gs, gs + (end - start)

    def _meet(self, a: tuple, b: tuple) -> tuple:
        """Per-owner intersection of two ``(owner, start, end)`` family
        sets (``b`` owner-sorted and coalesced; the result is too when
        ``a`` is)."""
        gs, ge, a_idx = _intersect_global(*self._globals(*a), *self._globals(*b))
        owner = a[0][a_idx]
        base = owner * self.ctx.stride - self.ctx.domain_start
        return owner, gs - base, ge - base

    def _gather_condition(self, condition, cur) -> tuple:
        """Per-row condition intervals, owned by the position in ``cur``."""
        indptr, starts, ends = self.ctx.condition_arrays(condition)
        lo = indptr[cur]
        counts = indptr[cur + 1] - lo
        row = np.repeat(np.arange(cur.size, dtype=np.int64), counts)
        pos = _ranges(lo, counts)
        return row, starts[pos], ends[pos]

    def _within(self, cur, rows, first, last, bounds: tuple):
        """Mask of objects ``cur`` whose every bounding condition's hull
        meets the family hull ``[first, last][rows]`` (``rows`` may be
        ``...``) shifted by the bound's reach (``None`` = unbounded)."""
        keep = np.ones(cur.size, dtype=bool)
        for condition, low_shift, high_shift in bounds:
            low, high = self.ctx.condition_hull(condition)
            if high_shift is not None:
                keep &= low[cur] <= last[rows] + high_shift
            if low_shift is not None:
                keep &= high[cur] >= first[rows] + low_shift
        return keep

    # -- ops ------------------------------------------------------------- #
    def run(self, state: _State, ops: tuple) -> _State:
        deadline = self.deadline
        for completed, op in enumerate(ops):
            if state.rows == 0:
                break
            # One chaos-hook fire and deadline check per columnar op.
            failpoints.fire("engine.step")
            if deadline is not None:
                deadline.progress["steps_completed"] = completed
                deadline.progress["frontier_rows"] = state.rows
                deadline.check()
            tag = op[0]
            if tag == "test":
                state = self._op_test(state, op[1])
            elif tag == "struct":
                state = self._op_struct(state, *op[1:])
            elif tag == "temporal":
                state = self._op_temporal(state, *op[1:])
            elif tag == "bind":
                state = _State(
                    state.cur,
                    state.names + (op[1],),
                    state.cols + [state.cur],
                    *state.family,
                    state.link,
                    state.src,
                )
            else:  # "alt"
                state = self._op_alt(state, op[1])
        return state

    def _op_test(self, state: _State, condition: Test) -> _State:
        owner, start, end = self._meet(
            state.family, self._gather_condition(condition, state.cur)
        )
        if owner.size == 0:
            return _empty_state(state.names)
        return _compact(state, owner, start, end)

    def _op_struct(
        self, state: _State, forward: bool, tests: tuple, bounds: tuple
    ) -> _State:
        """One structural move, keeping only the targets within ``bounds``
        (see :func:`_push_bounds`) and their times under every landing
        condition in ``tests`` (see :func:`_fold`)."""
        ctx = self.ctx
        cur = state.cur
        rows = state.rows
        indptr = ctx.out_indptr if forward else ctx.in_indptr
        ids = ctx.out_ids if forward else ctx.in_ids
        succ = ctx.succ_fwd if forward else ctx.succ_bwd
        node = ctx.is_node[cur]
        degree = np.where(node, indptr[cur + 1] - indptr[cur], 1)
        offsets = np.concatenate(([0], np.cumsum(degree)))
        total = int(offsets[-1])
        new_cur = np.empty(total, dtype=np.int64)
        node_rows = np.flatnonzero(node)
        out_pos = _ranges(offsets[node_rows], degree[node_rows])
        adj_pos = _ranges(indptr[cur[node_rows]], degree[node_rows])
        new_cur[out_pos] = ids[adj_pos]
        edge_rows = np.flatnonzero(~node)
        new_cur[offsets[edge_rows]] = succ[cur[edge_rows]]
        del out_pos, adj_pos  # fan-out-sized; keep the transient peak low
        src_row = np.repeat(np.arange(rows, dtype=np.int64), degree)
        if bounds:
            # The ops that follow would empty every other row, and ∩
            # distributes over the merge below, so dropping them first
            # changes no answer — it only spares replicating families a
            # hub fans out by the thousand.
            _indptr, first, last = state.hulls()
            keep = self._within(new_cur, src_row, first, last, bounds)
            new_cur = new_cur[keep]
            src_row = src_row[keep]
        if new_cur.size == 0:
            return _empty_state(state.names)
        # Replicate each source row's interval family to its fan-out and
        # meet the landing conditions there: a test reads only ``cur``,
        # which the merge signature holds, so ∩ distributes over the
        # merge's union and the merge only sees surviving rows.
        family = _take(state.family, rows, src_row)
        for condition in tests:
            family = self._meet(family, self._gather_condition(condition, new_cur))
        if family[0].size == 0:
            return _empty_state(state.names)
        if tests:
            alive, owner = _survivors(family[0], new_cur.size)
            family = (owner, family[1], family[2])
            if alive is not None:
                new_cur, src_row = new_cur[alive], src_row[alive]
        fanned = state.gather(src_row, new_cur, *family)
        if node.all():
            # Node → edge: the frontier is signature-unique at every op
            # boundary, and an edge has one endpoint on this side, so no
            # two of these rows share a signature — there is nothing to
            # merge.
            self.merges_skipped += 1
            return fanned
        return self._merge(fanned)

    def _op_alt(self, state: _State, branches: tuple) -> _State:
        parts = [self.run(state, branch) for branch in branches]
        parts = [part for part in parts if part.rows]
        if not parts:
            return _empty_state(state.names)
        owners = []
        offset = 0
        for part in parts:
            owners.append(part.owner + offset)
            offset += part.rows
        # Branches are temporal-free, so every part still hangs off the
        # frozen group ``state`` does.
        stacked = _State(
            np.concatenate([part.cur for part in parts]),
            state.names,
            [
                np.concatenate([part.cols[i] for part in parts])
                for i in range(len(state.names))
            ],
            np.concatenate(owners),
            np.concatenate([part.start for part in parts]),
            np.concatenate([part.end for part in parts]),
            state.link,
            None if state.src is None else np.concatenate([part.src for part in parts]),
        )
        return self._merge(stacked)

    def _merge(self, state: _State) -> _State:
        """Coalescing-frontier merge: union families of signature-equal
        rows (same bindings, current object and frozen source group)."""
        rows = state.rows
        if rows <= 1:
            return state
        keys = [*state.cols, state.cur]
        if state.src is not None:
            keys.append(state.src)
        group_of, reps = _group_rows(keys, rows)
        groups = reps.size
        if groups == rows:
            return state
        self.rows_merged += rows - groups
        ctx = self.ctx
        owner, start, end = _coalesce(
            ctx.stride, ctx.domain_start, group_of[state.owner], state.start, state.end
        )
        return state.gather(reps, state.cur[reps], owner, start, end)

    # -- temporal navigation ---------------------------------------------- #
    def _runs(self, obj) -> tuple:
        """Existence runs of ``obj[i]``, owned by ``i``."""
        ctx = self.ctx
        lo = ctx.ex_indptr[obj]
        counts = ctx.ex_indptr[obj + 1] - lo
        pos = _ranges(lo, counts)
        return (
            np.repeat(np.arange(obj.size, dtype=np.int64), counts),
            ctx.ex_start[pos],
            ctx.ex_end[pos],
        )

    def _windows(self, pieces: list) -> tuple:
        """Coalesce ``(owner, lo, hi)`` window pieces, clipped to the
        domain (empty and outside windows drop)."""
        ctx = self.ctx
        d0, d1 = ctx.domain_start, ctx.domain_end
        owner, lo, hi = (np.concatenate(column) for column in zip(*pieces))
        keep = (lo <= hi) & (hi >= d0) & (lo <= d1)
        return _coalesce(
            ctx.stride, d0, owner[keep], np.clip(lo[keep], d0, d1), np.clip(hi[keep], d0, d1)
        )

    def _targets(self, step: TemporalStep, obj, owner, s, e) -> tuple:
        """Per owner, every time reachable from its family through ``step``
        on object ``obj[owner]`` — the vectorized union of
        :func:`~repro.temporal.alignment.reachable_window`.  A converse
        step reaches what the unmarked step's :meth:`_sources` are."""
        if step.converse:
            return self._sources(replace(step, converse=False), obj, owner, s, e)
        lower, upper, forward = step.lower, step.upper, step.forward
        if not step.require_existence:
            ctx = self.ctx
            if forward:
                lo = s + lower
                hi = np.full_like(e, ctx.domain_end) if upper is None else e + upper
            else:
                hi = e - lower
                lo = np.full_like(s, ctx.domain_start) if upper is None else s - upper
            return self._windows([(owner, lo, hi)])
        pieces = [(owner, s, e)] if lower == 0 else []
        if upper is None or upper >= 1:
            min_moves = max(lower, 1)
            # Every visited point shares the run holding the first one,
            # so anchors pair with the runs shifted onto them.
            shift = -1 if forward else 1
            run_row, run_s, run_e = self._runs(obj)
            ai, bi = _pairs(
                *self._globals(owner, s, e),
                *self._globals(run_row, run_s + shift, run_e + shift),
            )
            run_s, run_e = run_s[bi], run_e[bi]
            anchor_s = np.maximum(s[ai], run_s + shift)
            anchor_e = np.minimum(e[ai], run_e + shift)
            if forward:
                lo = anchor_s + min_moves
                hi = run_e if upper is None else np.minimum(run_e, anchor_e + upper)
            else:
                hi = anchor_e - min_moves
                lo = run_s if upper is None else np.maximum(run_s, anchor_s - upper)
            pieces.append((owner[ai], lo, hi))
        return self._windows(pieces)

    def _sources(self, step: TemporalStep, obj, owner, s, e) -> tuple:
        """Per owner, every time from which ``step`` reaches its family —
        the vectorized ``reachable_sources`` (for contiguous steps not a
        direction flip: visited points exclude the anchor, include the
        endpoint).  A converse step's sources are the unmarked step's
        :meth:`_targets`."""
        if step.converse:
            return self._targets(replace(step, converse=False), obj, owner, s, e)
        lower, upper, forward = step.lower, step.upper, step.forward
        if not step.require_existence:
            ctx = self.ctx
            if forward:
                hi = e - lower
                lo = np.full_like(s, ctx.domain_start) if upper is None else s - upper
            else:
                lo = s + lower
                hi = np.full_like(e, ctx.domain_end) if upper is None else e + upper
            return self._windows([(owner, lo, hi)])
        pieces = [(owner, s, e)] if lower == 0 else []
        if upper is None or upper >= 1:
            min_moves = max(lower, 1)
            run_row, run_s, run_e = self._runs(obj)
            ai, bi = _pairs(
                *self._globals(owner, s, e), *self._globals(run_row, run_s, run_e)
            )
            run_s, run_e = run_s[bi], run_e[bi]
            piece_s = np.maximum(s[ai], run_s)
            piece_e = np.minimum(e[ai], run_e)
            if forward:
                lo = run_s - 1 if upper is None else np.maximum(run_s - 1, piece_s - upper)
                hi = piece_e - min_moves
            else:
                lo = piece_s + min_moves
                hi = run_e + 1 if upper is None else np.minimum(run_e + 1, piece_e + upper)
            pieces.append((owner[ai], lo, hi))
        return self._windows(pieces)

    def _op_temporal(
        self, state: _State, step: TemporalStep, tests: tuple, bounds: tuple
    ) -> _State:
        """Temporal navigation: close the current group, open the next.

        Per row with validity ``T`` the new family is ``targets(T) ∩
        tests`` (the landing conditions :func:`_fold` gave the op), after
        dropping the rows whose object ``bounds`` rules out.  The
        state navigated from is frozen behind the survivors (``link`` +
        ``src``) with ``T`` untouched: which of its times can complete
        the chain is the projection's backward pass to decide.
        """
        if bounds:
            _indptr, first, last = state.hulls()
            keep = self._within(state.cur, ..., first, last, bounds)[state.owner]
            if not keep.any():
                return _empty_state(state.names)
            state = _compact(state, state.owner[keep], state.start[keep], state.end[keep])
        reached = self._targets(step, state.cur, *state.family)
        for condition in tests:
            if reached[0].size == 0:
                break
            reached = self._meet(reached, self._gather_condition(condition, state.cur))
        if reached[0].size == 0:
            return _empty_state(state.names)
        # The next group starts as the same rows, each pointing at itself
        # in the state just frozen; compaction keeps the pointers right.
        opened = _State(
            state.cur,
            state.names,
            state.cols,
            *state.family,
            (state, step),
            np.arange(state.rows, dtype=np.int64),
        )
        return _compact(opened, *reached)

    # -- output ----------------------------------------------------------- #
    def project(self, state: _State, variables: tuple[str, ...], mode: str):
        """Step 3 in array form: the interval-native materializer.

        ``mode="families"`` returns a :class:`FamilyTable`, one family per
        binding tuple (variables bound in at most one temporal group);
        ``mode="points"`` a :class:`PointTable`.
        Both run two passes per live row over its chain of frozen
        groups, from the first group that binds a variable on: backward,
        ``alive[j] = T_j ∩ sources(alive[j+1])`` prunes every time that
        cannot complete the chain; forward, ``targets(·) ∩ alive[j+1]``
        carries the admissible times up to the last bound group —
        expanded to points (``np.repeat``/``arange``) at each group that
        binds a variable, kept as aggregated intervals at those that
        bind none.  The groups before the first bound one need neither
        pass: every time the run reached in a group it reached from the
        group before it, so they would prune nothing there.  (A chain
        read from its far end binds late, so its passes are short.)
        """
        if state.rows == 0:
            if mode == "points":
                return PointTable(variables, (), [], [])
            empty = [state.cur] * len(variables)  # an empty id column per variable
            return _family_table(self.ctx, variables, empty, 0, *state.family)
        missing = [v for v in variables if v not in state.names]
        if missing:
            raise EvaluationError(f"variables {missing} were never bound")
        # Root-first frozen levels, each with the per-live-row ancestor.
        levels: list = []
        link, anc = state.link, state.src
        while link is not None:
            frozen, step = link
            levels.append((frozen, step, anc))
            link, anc = frozen.link, None if frozen.src is None else frozen.src[anc]
        levels.reverse()
        # A name's group is the number of levels frozen before its bind
        # (later binds win).
        position = {name: i for i, name in enumerate(state.names)}
        group_of = {
            v: sum(len(frozen.names) <= position[v] for frozen, _step, _anc in levels)
            for v in variables
        }
        bound = sorted(set(group_of.values()))
        if mode == "families" and len(bound) > 1:
            raise EvaluationError(FAMILIES_UNDEFINED)
        deadline = self.deadline
        rows = state.rows
        first = bound[0] if bound else 0
        alive = [state.family] * (len(levels) + 1)
        for j in range(len(levels) - 1, first - 1, -1):
            if deadline is not None:
                deadline.check()
            frozen, step, anc = levels[j]
            alive[j] = self._meet(
                _take(frozen.family, frozen.rows, anc),
                self._sources(step, frozen.cur[anc], *alive[j + 1]),
            )
        row = np.arange(rows, dtype=np.int64)  # entry -> live row
        family = alive[first]  # owned by entry
        chosen: dict[int, object] = {}  # bound group -> time per entry
        last = bound[-1] if bound else 0
        for j in range(first, last + 1):
            if deadline is not None:
                deadline.check()
            if mode == "points" and j in bound:
                owner, start, end = family
                counts = end - start + 1
                times = _ranges(start, counts)
                entry = np.repeat(owner, counts)
                row = row[entry]
                chosen = {group: t[entry] for group, t in chosen.items()}
                chosen[j] = times
                family = (np.arange(times.size, dtype=np.int64), times, times)
            if j == last:
                break
            frozen, step, anc = levels[j]
            family = self._meet(
                self._targets(step, frozen.cur[anc[row]], *family),
                _take(alive[j + 1], rows, row),
            )
        if mode == "points":
            ids = [state.cols[position[v]][row] for v in variables]
            _group, keep = _group_rows(ids + [chosen[g] for g in bound], row.size)
            return PointTable(
                variables,
                self.ctx.objects,
                [column[keep] for column in ids],
                [chosen[group_of[v]][keep] for v in variables],
                keep.size,
            )
        return _family_table(
            self.ctx, variables, [state.cols[position[v]] for v in variables], rows, *family
        )


class PointTable(BindingTable):
    """A point-mode answer held as arrays until it is read.

    The :class:`~repro.eval.bindings.BindingTable` of an output that
    spans temporal groups, as the kernel produces it: one ``(dense
    object id, time)`` int64 column pair per variable, rows already
    deduplicated.  ``len`` is the array length; the sorted Python
    ``rows`` — and with them every inherited read method — are built,
    once, only when something actually reads them, so neither the engine
    nor the served path (:meth:`arrays` feeds the wire writer) pays
    the per-point object detour.  Without variables there are no
    columns, and ``size`` (0 or 1: the chain matched or not) is the
    answer.
    """

    def __init__(self, variables, objects, ids: list, times: list, size: int = 0) -> None:
        for name, value in (
            ("variables", tuple(variables)),
            ("_objects", objects),
            ("_ids", ids),
            ("_times", times),
            ("_size", int(ids[0].size) if ids else size),
            ("_rows", None),
        ):
            object.__setattr__(self, name, value)  # frozen dataclass

    def __len__(self) -> int:
        return self._size

    def arrays(self) -> tuple:
        """``(objects, ids, times)``: the answer as arrays."""
        return self._objects, self._ids, self._times

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            objects = self._objects
            cells = [
                zip([objects[i] for i in ids.tolist()], times.tolist())
                for ids, times in zip(self._ids, self._times)
            ]
            points = zip(*cells) if cells else [()] * self._size
            built = BindingTable.build(self.variables, points).rows
            object.__setattr__(self, "_rows", built)
        return self._rows

    def __bool__(self) -> bool:
        return len(self) > 0

    def is_empty(self) -> bool:
        return len(self) == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BindingTable):
            return self.variables == other.variables and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.variables, self.rows))

    def __repr__(self) -> str:
        return f"PointTable({len(self)} rows)"


class FamilyTable(IntervalBindingTable):
    """A families answer as the kernel produces it: per family a dense
    object id per variable, its coalesced times as CSR ``indptr`` over
    flat ``start``/``end``.  Counts read the arrays; :attr:`families`
    (and every point-row read) is built once, on first read, so the
    served path (:meth:`arrays` feeds the wire writer) never builds it.
    """

    __slots__ = ("_objects", "_ids", "_indptr", "_start", "_end")

    def __init__(self, variables, objects, ids: list, indptr, start, end) -> None:
        super().__init__(variables, ())
        self._families = None
        self._objects, self._ids, self._indptr = objects, ids, indptr
        self._start, self._end = start, end

    def arrays(self) -> tuple:
        """``(objects, ids, indptr, start, end)``: the answer as arrays."""
        return self._objects, self._ids, self._indptr, self._start, self._end

    @property
    def families(self) -> tuple:
        if self._families is None:
            objects, start, end = self._objects, self._start.tolist(), self._end.tolist()
            indptr = self._indptr.tolist()
            named = [
                [(v, objects[i]) for i in ids.tolist()]
                for v, ids in zip(self.variables, self._ids)
            ]
            family = IntervalSet._from_coalesced
            self._families = tuple(
                (bindings, family(tuple(map(Interval, start[lo:hi], end[lo:hi]))))
                for bindings, lo, hi in zip(
                    zip(*named) if named else [()] * self.num_families(), indptr, indptr[1:]
                )
            )
        return self._families

    def num_families(self) -> int:
        return self._indptr.size - 1

    def num_intervals(self) -> int:
        return int(self._start.size)

    def __len__(self) -> int:
        if not self.variables:
            return min(self.num_families(), 1)
        return int((self._end - self._start).sum()) + self.num_intervals()


def _family_table(ctx, variables, columns: list, count: int, owner, start, end):
    """The :class:`FamilyTable` of ``count`` rows: rows with equal id
    ``columns`` form one family with the coalesced union of their
    ``(owner, start, end)`` intervals, dropped if it has none."""
    group, reps = _group_rows(columns, count)
    owner, start, end = _coalesce(ctx.stride, ctx.domain_start, group[owner], start, end)
    present, sizes = np.unique(owner, return_counts=True)
    return FamilyTable(
        variables,
        ctx.objects,
        [column[reps[present]] for column in columns],
        np.concatenate(([0], np.cumsum(sizes))),
        start,
        end,
    )


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def run_query(
    ctx: ColumnarContext,
    plan: ColumnarPlan,
    variables: tuple[str, ...],
    mode: str,
    deadline=None,
) -> tuple[object, int, int]:
    """Evaluate a planned full query: ``(output, frontier_rows, merged)``
    with ``output`` a :class:`FamilyTable` (``mode="families"``) or a
    :class:`PointTable` (``mode="points"``).

    The plan or its converse runs, whichever seeds from fewer points on
    the current image (:func:`choose`): the direction is a cost choice
    and never changes an answer, only the order of its families.
    Seeds come straight from the context's condition CSR (or the object
    range under domain times), never materializing per-row Python
    objects — which keeps even cheap full-scan queries cheap.
    """
    return _run(ctx, choose(ctx, plan), variables, mode, deadline)


def choose(ctx: ColumnarContext, plan: ColumnarPlan) -> ColumnarPlan:
    """The direction of ``plan`` that :func:`run_query` runs on ``ctx``:
    its converse when that seeds from strictly fewer points
    (:meth:`ColumnarContext.seed_points`), else the plan as written."""
    converse = plan.converse
    if converse is None:
        return plan
    fewer = ctx.seed_points(converse.seed_condition) < ctx.seed_points(plan.seed_condition)
    return converse if fewer else plan


def _run(ctx, plan: ColumnarPlan, variables, mode, deadline):
    """:func:`run_query` in the direction ``plan`` is written."""
    single = plan.leaves.single
    if (
        plan.seed_condition is not None
        and single is not None
        and all(op[0] == "bind" for op in single)
    ):
        # Degenerate chain (Q1–Q4 shapes): the whole query is one
        # absorbed condition plus binds: its rows ARE the answer.  A
        # cached CSR is read, but none is cached here (patch splices each).
        names = tuple(op[1] for op in single)
        if variables and all(v in names for v in variables):
            # One chaos-hook fire + deadline check, like the one bind op
            # the kernel would run for this chain.
            failpoints.fire("engine.step")
            if deadline is not None:
                deadline.check()
            cached = ctx._conditions.get(plan.seed_condition)
            if cached is not None:
                indptr, starts, ends = cached
                cur = np.flatnonzero(np.diff(indptr))
                indptr = np.concatenate(([0], indptr[cur + 1]))
            else:
                held = ctx._index.condition_table(plan.seed_condition)
                counts, starts, ends = _family_rows(held.values())
                starts = np.array(starts, np.int64)
                ends = np.array(ends, np.int64)
                indptr = np.cumsum([0, *counts], dtype=np.int64)
                cur = np.fromiter(map(ctx.object_id.__getitem__, held), np.int64, len(held))
            columns = [cur] * len(variables)
            table = FamilyTable(variables, ctx.objects, columns, indptr, starts, ends)
            return table, int(cur.size), 0
    state = seed_state(ctx, plan)
    return _run_leaves(ctx, plan.leaves, state, variables, mode, deadline)


def seed_state(ctx: ColumnarContext, plan: ColumnarPlan) -> _State:
    """The frontier a plan's leaves start from: one row per object that
    meets the seed condition, under its satisfaction times (every
    object under domain times without one)."""
    if plan.seed_condition is not None:
        indptr, starts, ends = ctx.condition_arrays(plan.seed_condition)
        counts = np.diff(indptr)
        cur = np.flatnonzero(counts).astype(np.int64)
        counts = counts[cur]
        owner = np.repeat(np.arange(cur.size, dtype=np.int64), counts)
        pos = _ranges(indptr[cur], counts)
        return _State(cur, (), [], owner, starts[pos], ends[pos])
    cur = np.arange(ctx.num_objects, dtype=np.int64)
    return _State(
        cur,
        (),
        [],
        np.arange(cur.size, dtype=np.int64),
        np.full(cur.size, ctx.domain_start, dtype=np.int64),
        np.full(cur.size, ctx.domain_end, dtype=np.int64),
    )


def _run_leaves(ctx, leaves, state: _State, variables, mode, deadline):
    """Run every leaf from ``state`` and union the answers:
    ``(output, frontier_rows, rows_merged)``.

    Each leaf projects on its own (its frozen groups are its own); a
    points answer is a :class:`PointTable` union deduplicated with
    :func:`_group_rows`, a families answer the per-binding union of
    :func:`_union_families`.  Building a leaf is linear in the chain and
    the deadline is checked before each one runs, so it bounds a chain
    of exponentially many leaves even when they run dry at once.
    """
    kernel = _Kernel(ctx, deadline)
    outputs = []
    frontier_rows = 0
    for ops in leaves:
        if deadline is not None:
            deadline.check()
        final = kernel.run(state, ops)
        frontier_rows += final.rows
        outputs.append(kernel.project(final, variables, mode))
    if len(outputs) == 1:
        union = outputs[0]
    elif mode == "families":
        union = _union_families(ctx, outputs, variables)
    else:
        union = _union_points(ctx, outputs, variables)
    return union, frontier_rows, kernel.rows_merged


def _union_families(ctx, tables: list, variables) -> FamilyTable:
    """One :class:`FamilyTable` from several: a binding tuple reached by
    several leaves gets the coalesced union of their times."""
    ids = [np.concatenate(column) for column in zip(*(t._ids for t in tables))]
    sizes = np.concatenate([np.diff(t._indptr) for t in tables])
    owner = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    start = np.concatenate([t._start for t in tables])
    end = np.concatenate([t._end for t in tables])
    return _family_table(ctx, variables, ids, sizes.size, owner, start, end)


def _union_points(ctx, tables: list, variables) -> "PointTable":
    """One deduplicated :class:`PointTable` from several."""
    tables = [table for table in tables if len(table)] or tables[:1]
    if len(tables) == 1:
        return tables[0]
    ids = [np.concatenate(column) for column in zip(*(t._ids for t in tables))]
    times = [np.concatenate(column) for column in zip(*(t._times for t in tables))]
    _group, keep = _group_rows(ids + times, sum(len(t) for t in tables))
    return PointTable(
        variables,
        ctx.objects,
        [column[keep] for column in ids],
        [column[keep] for column in times],
        keep.size,
    )
