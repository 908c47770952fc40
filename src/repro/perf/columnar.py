"""Columnar (vectorized) evaluation kernel for fused step chains.

This is the one kernel ``DataflowEngine(graph)`` runs a query on — ad
hoc, for a streaming session's registered queries and in the worker
pool alike.  This module compiles a fused chain into sequences of
*columnar ops* executed as NumPy sweeps over flat arrays:

* the frontier is a struct-of-arrays: ``cur`` (dense object ids, one
  per row), one int64 column per bound variable, and the per-row
  validity families as three parallel int64 arrays ``(owner, start,
  end)`` — ``owner`` is the row index, sorted ascending, and each
  owner's intervals form a coalesced family (sorted, pairwise disjoint,
  non-adjacent);
* the graph image is a :class:`ColumnarContext`, owned by the
  :class:`~repro.perf.graph_index.GraphIndex` (one per graph) and
  patched in place by its delta maintenance: CSR adjacency and
  existence over the dense ids, per-condition CSR tables decoded from
  the index's memoized condition tables, and — when the graph is
  attached from a ``repro-index/1`` store at epoch 0 —
  existence/adjacency decoded straight out of the artifact's
  struct-packed sections;
* interval algebra happens on a *global axis*: an interval ``[s, e]``
  of row ``r`` maps to ``r * stride + (s - domain.start)`` with
  ``stride = domain span + 2``.  The two-point guard gap means
  coalescing (which merges intervals with gap <= 1) can never fuse
  intervals across rows, and the ±1 shifts of contiguous temporal
  navigation stay inside a row's band.  Intersection of two coalesced
  global families is a ``searchsorted`` expansion; coalescing is one
  argsort plus ``maximum.reduceat``.

The kernel covers every dataflow chain.  An op sequence holds Test /
Struct / fused-Hop / Bind / temporal-free Alt steps, with TemporalSteps
anywhere on its outer chain.  A TemporalStep *freezes* the frontier: the
state it navigated from stays behind as a closed temporal group
(bindings + family + the step as link), each surviving row keeps an
index into it, and the reached times become the row's current family.
An alternation whose branches navigate through time would make that
group structure branch-dependent, so :func:`compile_ops` distributes it
at compile time — ``X·(A|B)·Y`` becomes the *leaves* ``X·A·Y`` and
``X·B·Y`` — and the entry points union the leaves' answers.  Output
mode is a property of the projection, not of an op: variables bound in
one group come out as interval-native ``families``, variables spanning
groups as a :class:`PointTable` whose linked ``(t, t')`` pairs are
expanded in array form.  Every answer is differential-fuzzed against
the point-based :class:`~repro.eval.engine.ReferenceEngine`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.dataflow.steps import (
    AltStep,
    BindStep,
    ChainStep,
    HopStep,
    StructStep,
    TemporalStep,
    TestStep,
    chain_has_temporal_step,
)
from repro.errors import EvaluationError
from repro.eval.bindings import BindingTable
from repro.lang.ast import Test
from repro.parallel.merge import merge_family_chunks
from repro.resilience import failpoints
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable


# --------------------------------------------------------------------- #
# Plan: chain -> columnar ops
# --------------------------------------------------------------------- #
class ColumnarPlan:
    """A full-query columnar plan: seed spec + the compiled leaves."""

    __slots__ = ("seed_condition", "leaves")

    def __init__(self, seed_condition: Optional[Test], leaves: "Leaves") -> None:
        self.seed_condition = seed_condition
        self.leaves = leaves


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
        self.single = _push_bounds(next(_expand(parts)), ()) if self.count == 1 else None

    def __iter__(self):
        if self.single is not None:
            return iter((self.single,))
        return (_push_bounds(ops, ()) for ops in _expand(self._parts))


def compile_ops(chain: Sequence[ChainStep]) -> Leaves:
    """Compile a chain into its :class:`Leaves`.

    Fused hops decompose into struct/test passes (signature-merged after
    each struct), which is relation-equal to the fused hop's relation.
    A TemporalStep closes the current temporal group (see
    :meth:`_Kernel._op_temporal`), which only the outer chain of an op
    sequence can do: an alternation whose branches navigate through time
    is distributed instead, ``X·(A|B)·Y`` into the leaves ``X·A·Y`` and
    ``X·B·Y`` (recursively; equal branches run once).  A temporal-free
    alternation stays one ``alt`` op, so most chains are a single leaf.
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
    if isinstance(step, HopStep):
        return [
            ("struct", step.forward_in),
            *(("test", condition) for condition in step.mid_conditions),
            ("struct", step.forward_out),
            *(("test", condition) for condition in step.target_conditions),
        ]
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


def _push_bounds(ops: Sequence, bounds: tuple) -> tuple:
    """Hand every struct the time bounds its targets are about to face.

    Walking backwards, ``bounds`` collects ``(condition, low shift, high
    shift)`` for the tests — and the final temporal step's fused
    conditions, shifted by its reach — that apply to the object a struct
    (or an alternation branch) lands on, so ``_op_struct`` never
    replicates families to targets those ops are about to reject.
    """
    out = list(ops)
    for position in range(len(out) - 1, -1, -1):
        tag, payload = out[position][:2]
        if tag == "test":
            bounds = ((payload, 0, 0),) + bounds
        elif tag == "temporal":
            low, high = payload.lower, payload.upper
            if not payload.forward:
                low, high = None if high is None else -high, -low
            bounds = tuple((c, low, high) for c in payload.target_conditions)
            out[position] = ("temporal", payload, bounds)
        elif tag == "struct":
            out[position] = ("struct", payload, bounds)
            bounds = ()
        elif tag == "alt":
            out[position] = ("alt", tuple(_push_bounds(b, bounds) for b in payload))
            bounds = ()
    return tuple(out)


@lru_cache(maxsize=256)
def plan_query(chain: tuple[ChainStep, ...]) -> ColumnarPlan:
    """Plan a full compiled chain, absorbing a leading TestStep as the
    seed condition: :func:`run_query` seeds from its condition table."""
    if chain and isinstance(chain[0], TestStep):
        return ColumnarPlan(chain[0].condition, compile_ops(chain[1:]))
    return ColumnarPlan(None, compile_ops(chain))


# --------------------------------------------------------------------- #
# Context: one GraphIndex as flat arrays
# --------------------------------------------------------------------- #
class ColumnarContext:
    """Dense-array image of one :class:`GraphIndex`, maintained in place.

    One image per graph: the index owns it
    (:meth:`GraphIndex.columnar_context`), so every engine and worker on
    the graph shares it — adjacency and existence as int64 CSR over
    dense object ids, edge endpoints as flat successor arrays, and
    per-condition CSR tables materialized on first use from the index's
    memoized condition tables.  Delta maintenance patches it
    (:meth:`apply_delta`) instead of rebuilding: dense ids are
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
        origin = np.zeros(1, dtype=np.int64)
        decoded = self._decode_store_sections(index)
        (
            self.ex_indptr,
            self.ex_start,
            self.ex_end,
            self.out_indptr,
            self.out_ids,
            self.in_indptr,
            self.in_ids,
        ) = decoded or (origin, empty, empty, origin, empty, origin, empty)
        self._derive(range(len(index.objects)), graph_tables=decoded is None)

    def _set_domain(self) -> None:
        domain = self._index.domain
        self.domain_start = int(domain.start)
        self.domain_end = int(domain.end)
        #: Global-axis row stride: domain span plus a 2-wide guard gap so
        #: coalescing (gap <= 1 merges) and ±1 contiguous-navigation
        #: shifts can never cross row bands.
        self.stride = self.domain_end - self.domain_start + 2

    # -- graph tables ---------------------------------------------------- #
    @staticmethod
    def _decode_store_sections(index):
        """Zero-copy-decode existence/adjacency from an attached store.

        Only valid for a pristine attachment (epoch 0): after delta
        maintenance the lazy-map overlays shadow the on-disk records, so
        the index's maps are the source of truth instead.
        """
        if index.epoch != 0:
            return None
        sections = getattr(index.core, "columnar_sections", None)
        if sections is None:
            return None
        exist_idx, exist_dat, adj_idx, adj_dat = sections()
        # Copies, deliberately: frombuffer views would pin the store's
        # mmap open (attachment.close() raises on exported buffers).
        ex_offsets = np.frombuffer(exist_idx, dtype="<u8").astype(np.int64)
        ex_pairs = np.frombuffer(exist_dat, dtype="<i8").astype(np.int64)
        ex_indptr = ex_offsets // 16
        ex_start = ex_pairs[0::2].copy()
        ex_end = ex_pairs[1::2].copy()

        offsets = np.frombuffer(adj_idx, dtype="<u8").astype(np.int64)
        words = np.frombuffer(adj_dat, dtype="<u4").astype(np.int64)
        rec_start = offsets[:-1] // 4
        rec_len = (offsets[1:] - offsets[:-1]) // 4
        filled = rec_len > 0
        out_count = np.zeros(rec_len.size, dtype=np.int64)
        out_count[filled] = words[rec_start[filled]]
        in_count = np.where(filled, rec_len - 1 - out_count, 0)
        out_indptr = np.concatenate(([0], np.cumsum(out_count)))
        in_indptr = np.concatenate(([0], np.cumsum(in_count)))
        out_ids = words[_ranges(rec_start + 1, out_count)]
        in_ids = words[_ranges(rec_start + 1 + out_count, in_count)]
        return ex_indptr, ex_start, ex_end, out_indptr, out_ids, in_indptr, in_ids

    def _derive(self, ids, graph_tables: bool = True) -> None:
        """(Re-)derive rows ``ids`` of every per-object table from the index.

        The one Python walk behind both the initial build (every id) and
        a delta patch (the dirty ids): objects past the current tails
        append their ``is_node``/``succ_*`` slots, and the named rows of
        the existence, adjacency and cached condition CSRs are re-spliced.
        """
        index = self._index
        objects = self.objects = index.objects
        n = self.num_objects = len(objects)
        object_id = self.object_id
        nodes = index.nodes()
        appended = objects[self.is_node.size :]
        if appended:

            def successors(endpoint):
                return np.array(
                    [-1 if o in nodes else object_id[endpoint[o]] for o in appended],
                    dtype=np.int64,
                )

            node = np.array([obj in nodes for obj in appended], dtype=bool)
            self.is_node = np.concatenate((self.is_node, node))
            self.succ_fwd = np.concatenate((self.succ_fwd, successors(index.edge_target)))
            self.succ_bwd = np.concatenate((self.succ_bwd, successors(index.edge_source)))
        touched = [objects[position] for position in ids]
        if graph_tables:

            def edge_rows(adjacency):
                edges = [adjacency.get(obj) or () for obj in touched]
                return (
                    [len(row) for row in edges],
                    [object_id[edge] for row in edges for edge in row],
                )

            self.ex_indptr, self.ex_start, self.ex_end = _splice(
                (self.ex_indptr, self.ex_start, self.ex_end),
                n,
                ids,
                *_family_rows(index.existence[obj] for obj in touched),
            )
            self.out_indptr, self.out_ids = _splice(
                (self.out_indptr, self.out_ids), n, ids, *edge_rows(index.out_adjacency)
            )
            self.in_indptr, self.in_ids = _splice(
                (self.in_indptr, self.in_ids), n, ids, *edge_rows(index.in_adjacency)
            )
        for condition, arrays in self._conditions.items():
            table = index.condition_table(condition)
            self._conditions[condition] = _splice(
                arrays, n, ids, *_family_rows(table.get(obj) for obj in touched)
            )

    def apply_delta(self, effects) -> None:
        """Patch the image; :meth:`GraphIndex.apply_delta` calls this last.

        A horizon advance re-clamps every condition family to the new
        domain, so the condition arrays (and ``stride``) drop and rebuild
        on next use; existence and adjacency are never clamped.
        """
        if effects.horizon_advanced:
            self._set_domain()
            self._conditions.clear()
        self._hulls.clear()
        self._derive([self.object_id[obj] for obj in effects.dirty])

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


def _splice(csr: tuple, n: int, rows, counts, *fresh) -> tuple:
    """Replace ``rows`` of a CSR ``(indptr, *columns)`` and grow it to ``n``.

    ``rows`` are distinct dense ids (ids past the old tail append);
    row ``rows[i]`` gets ``counts[i]`` new entries, taken in order from
    the flat ``fresh`` sequences (one per column).  Every other row is
    copied over with one gather.
    """
    indptr, *columns = csr
    rows = np.asarray(rows, dtype=np.int64)
    old_n = indptr.size - 1
    kept = np.zeros(n, dtype=np.int64)
    kept[:old_n] = np.diff(indptr)
    kept[rows] = 0
    sizes = kept.copy()
    sizes[rows] = counts
    out_indptr = np.concatenate(([0], np.cumsum(sizes)))
    old_at = np.zeros(n, dtype=np.int64)
    old_at[:old_n] = indptr[:-1]
    source = _ranges(old_at, kept)
    target = _ranges(out_indptr[:-1], kept)
    fresh_target = _ranges(out_indptr[rows], sizes[rows])
    out = [out_indptr]
    for column, values in zip(columns, fresh):
        merged = np.empty(int(out_indptr[-1]), dtype=np.int64)
        merged[target] = column[source]
        merged[fresh_target] = values
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
    fresh[0] = True
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


def _compact(state: _State, owner, start, end) -> _State:
    """Re-pack after an op dropped intervals: owners renumber densely."""
    alive = np.zeros(state.rows, dtype=bool)
    alive[owner] = True
    if alive.all():
        return state.with_family(owner, start, end)
    remap = np.cumsum(alive) - 1
    return state.gather(alive, state.cur[alive], remap[owner], start, end)


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
class _Kernel:
    """One columnar evaluation: ops over a context, deadline-aware."""

    def __init__(self, ctx: ColumnarContext, deadline=None) -> None:
        self.ctx = ctx
        self.deadline = deadline
        self.rows_merged = 0

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
                state = self._op_struct(state, op[1], op[2])
            elif tag == "bind":
                state = _State(
                    state.cur,
                    state.names + (op[1],),
                    state.cols + [state.cur],
                    *state.family,
                    state.link,
                    state.src,
                )
            elif tag == "alt":
                state = self._op_alt(state, op[1])
            else:  # "temporal"
                state = self._op_temporal(state, op[1], op[2])
        return state

    def _op_test(self, state: _State, condition: Test) -> _State:
        owner, start, end = self._meet(
            state.family, self._gather_condition(condition, state.cur)
        )
        if owner.size == 0:
            return _empty_state(state.names)
        return _compact(state, owner, start, end)

    def _op_struct(self, state: _State, forward: bool, bounds: tuple) -> _State:
        """One structural move, keeping only the targets within ``bounds``
        (see :func:`_push_bounds`)."""
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
        # Replicate each source row's interval family to its fan-out.
        fanned = state.gather(src_row, new_cur, *_take(state.family, rows, src_row))
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
        :func:`~repro.temporal.alignment.reachable_window`."""
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
        endpoint)."""
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

    def _op_temporal(self, state: _State, step: TemporalStep, bounds: tuple) -> _State:
        """Temporal navigation: close the current group, open the next.

        Per row with validity ``T`` the new family is ``targets(T) ∩
        fused conditions`` — the vectorized ``_apply_temporal``.  The
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
        for condition in step.target_conditions:
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

        ``mode="families"`` returns the canonical ``(bindings, family)``
        list, one entry per binding tuple (variables bound in at most
        one temporal group); ``mode="points"`` a :class:`PointTable`.
        Both run two passes per live row over its chain of frozen
        groups: backward, ``alive[j] = T_j ∩ sources(alive[j+1])`` prunes
        every time that cannot complete the chain; forward, ``targets(·)
        ∩ alive[j+1]`` carries the admissible times up to the last bound
        group — expanded to points (``np.repeat``/``arange``) at each
        group that binds a variable, kept as aggregated intervals at
        those that bind none.
        """
        if state.rows == 0:
            return [] if mode == "families" else PointTable(variables, (), [], [])
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
            raise EvaluationError(
                "interval (coalesced) output is only defined when every variable "
                "is bound within a single temporal group"
            )
        deadline = self.deadline
        rows = state.rows
        alive = [state.family] * (len(levels) + 1)
        for j in range(len(levels) - 1, -1, -1):
            if deadline is not None:
                deadline.check()
            frozen, step, anc = levels[j]
            alive[j] = self._meet(
                _take(frozen.family, frozen.rows, anc),
                self._sources(step, frozen.cur[anc], *alive[j + 1]),
            )
        row = np.arange(rows, dtype=np.int64)  # entry -> live row
        family = alive[0]  # owned by entry
        chosen: dict[int, object] = {}  # bound group -> time per entry
        last = bound[-1] if bound else 0
        for j in range(last + 1):
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
        columns = [state.cols[position[v]] for v in variables]
        group, reps = _group_rows(columns, rows)
        groups = reps.size
        ctx = self.ctx
        owner, start, end = _coalesce(
            ctx.stride, ctx.domain_start, group[family[0]], family[1], family[2]
        )
        indptr = _indptr(owner, groups).tolist()
        start, end = start.tolist(), end.tolist()
        objects = ctx.objects
        named = [
            [(v, objects[i]) for i in column[reps].tolist()]
            for v, column in zip(variables, columns)
        ]
        return [
            (
                bindings,
                IntervalSet._from_coalesced(
                    tuple(Interval(start[k], end[k]) for k in range(lo, hi))
                ),
            )
            for bindings, lo, hi in zip(
                zip(*named) if named else [()] * groups, indptr, indptr[1:]
            )
            if lo < hi  # rows whose times cannot complete the chain
        ]


class PointTable(BindingTable):
    """A point-mode answer held as arrays until it is read.

    The :class:`~repro.eval.bindings.BindingTable` of an output that
    spans temporal groups, as the kernel produces it: one ``(dense
    object id, time)`` int64 column pair per variable, rows already
    deduplicated.  ``len`` is the array length; the sorted Python
    ``rows`` — and with them every inherited read method — are built,
    once, only when something actually reads them, so neither the engine
    nor the served path (:meth:`columns` feeds the wire emitter) pays
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

    def columns(self) -> list[tuple[list, list]]:
        """Per variable, parallel ``(objects, times)`` lists in array order."""
        objects = self._objects
        return [
            ([objects[i] for i in ids.tolist()], times.tolist())
            for ids, times in zip(self._ids, self._times)
        ]

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            cells = [zip(objs, times) for objs, times in self.columns()]
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


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def run_query(
    ctx: ColumnarContext,
    plan: ColumnarPlan,
    variables: tuple[str, ...],
    mode: str,
    deadline=None,
    seeds: Optional[Sequence[ObjectId]] = None,
) -> tuple[object, int, int]:
    """Evaluate a planned full query: ``(output, frontier_rows, merged)``
    with ``output`` a family list (``mode="families"``) or a
    :class:`PointTable` (``mode="points"``).

    Seeds come straight from the context's condition CSR (or the object
    range under domain times), never materializing per-row Python
    objects — which keeps even cheap full-scan queries cheap.  ``seeds`` restricts the run to one chunk of
    seed objects, in their order (the worker pool's unit of work); the
    answers of any split of the seed objects union to the unrestricted
    answer.  They are objects, not dense ids: a worker numbers the
    objects of its own freshly built index.
    """
    single = plan.leaves.single
    if (
        seeds is None
        and plan.seed_condition is not None
        and single is not None
        and all(op[0] == "bind" for op in single)
    ):
        # Degenerate chain (Q1–Q4 shapes): the whole query is one
        # absorbed condition plus binds, so the memoized condition table
        # IS the answer — reuse its IntervalSet instances directly, no
        # arrays, no per-row objects.
        names = tuple(op[1] for op in single)
        if variables and all(v in names for v in variables):
            # One chaos-hook fire + deadline check, like the one bind op
            # the kernel would run for this chain.
            failpoints.fire("engine.step")
            if deadline is not None:
                deadline.check()
            table = ctx._index.condition_table(plan.seed_condition)
            families = [
                (tuple((v, obj) for v in variables), times)
                for obj, times in table.items()
            ]
            return families, len(families), 0
    state = seed_state(ctx, plan, seeds)
    return _run_leaves(ctx, plan.leaves, state, variables, mode, deadline)


def seed_state(
    ctx: ColumnarContext, plan: ColumnarPlan, seeds: Optional[Sequence[ObjectId]] = None
) -> _State:
    """The frontier a plan's leaves start from: one row per seed object
    (all objects, or ``seeds`` in their order) that meets the seed
    condition, under its satisfaction times (domain times without one)."""
    ids = None
    if seeds is not None:
        object_id = ctx.object_id
        ids = np.array([object_id[obj] for obj in seeds], dtype=np.int64)
    if plan.seed_condition is not None:
        indptr, starts, ends = ctx.condition_arrays(plan.seed_condition)
        counts = np.diff(indptr)
        cur = np.flatnonzero(counts).astype(np.int64) if ids is None else ids[counts[ids] > 0]
        counts = counts[cur]
        owner = np.repeat(np.arange(cur.size, dtype=np.int64), counts)
        pos = _ranges(indptr[cur], counts)
        return _State(cur, (), [], owner, starts[pos], ends[pos])
    cur = np.arange(ctx.num_objects, dtype=np.int64) if ids is None else ids
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
    ``repro.parallel.merge``.  Building a leaf is linear in the chain and
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
        union = merge_family_chunks(outputs)
    else:
        union = _union_points(ctx, outputs, variables)
    return union, frontier_rows, kernel.rows_merged


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
