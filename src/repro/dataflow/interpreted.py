"""The per-row chain walk and its Step 3: the streaming refresh.

Queries run on the columnar kernel (:mod:`repro.perf.columnar`); this
walk has one caller, :class:`~repro.streaming.engine.StreamingEngine`'s
per-seed refresh, which re-derives one seed at a time — a one-row
frontier, where a row walk is cheaper than a kernel run's fixed per-op
array work.  :func:`run_rows` over :func:`seed_rows` answers what the
kernel's one entry, :func:`repro.perf.columnar.run_query`, answers on
the full chain — ``(data, frontier_rows, rows_merged)``, with coalesced
families or point tuples as ``data`` — and the test suite pins the two
to the same answers.  It walks the coalescing
:class:`~repro.dataflow.frontier.Frontier` row by row in Python and
materializes through the interval-native
:class:`~repro.dataflow.frontier.IntervalMaterializer`.  It goes when
streaming refreshes set-at-a-time.

Nothing here outlives a call: a :class:`ChainWalk` holds one run's
index and merge counter, and the seed builders read the index's
current domain, so a horizon advance needs no refresh.  A refresh
re-derives one seed, so it takes no deadline.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Union as TypingUnion

from repro.dataflow.frontier import (
    Frontier,
    Group,
    IntervalMaterializer,
    Row,
    RowFrontier,
    TemporalLink,
    initial_row,
)
from repro.dataflow.steps import (
    AltStep,
    BindStep,
    ChainStep,
    HopStep,
    StructStep,
    TemporalStep,
    TestStep,
)
from repro.lang.ast import Test
from repro.perf.graph_index import GraphIndex
from repro.resilience import failpoints
from repro.temporal.alignment import reachable_window
from repro.temporal.intervalset import IntervalSet, IntervalSetAccumulator

ObjectId = Hashable
Collector = TypingUnion[Frontier, RowFrontier]


def seed_rows(
    index: GraphIndex, chain: tuple[ChainStep, ...]
) -> tuple[list[Row], tuple[ChainStep, ...]]:
    """Seed rows plus the chain remaining after any absorbed leading test.

    A leading :class:`TestStep` is answered from the index's memoized
    condition table, so the frontier starts with only the objects that
    can match (and their satisfaction times) instead of every object of
    the graph.  Seeds follow the index's dense object order, the order
    the columnar kernel seeds in.
    """
    if chain and isinstance(chain[0], TestStep):
        table = index.condition_table(chain[0].condition)
        seeds = [Row((Group((), obj, times),), ()) for obj, times in table.items()]
        return seeds, chain[1:]
    domain_times = IntervalSet((index.domain,))
    return [initial_row(obj, domain_times) for obj in index.objects], chain


def seed_rows_for(
    index: GraphIndex, chain: tuple[ChainStep, ...], objects: Iterable[ObjectId]
) -> dict[ObjectId, Row]:
    """Fresh seed rows for just ``objects`` — the per-object form of
    :func:`seed_rows`, used by streaming sessions so a delta refresh
    never pays for the full seed table.

    The returned rows belong to the same frontier :func:`seed_rows`
    would produce (same absorbed-test times); objects that would not
    seed this chain are simply absent.
    """
    if chain and isinstance(chain[0], TestStep):
        table = index.condition_table(chain[0].condition)
        rows: dict[ObjectId, Row] = {}
        for obj in objects:
            times = table.get(obj)
            if times is not None:
                rows[obj] = Row((Group((), obj, times),), ())
        return rows
    domain_times = IntervalSet((index.domain,))
    return {
        obj: initial_row(obj, domain_times)
        for obj in objects
        if obj in index.object_id
    }


def run_rows(
    index: GraphIndex,
    chain: Sequence[ChainStep],
    seeds: list[Row],
    variables: tuple[str, ...],
    mode: str,
) -> tuple[list, int, int]:
    """Steps 1–3 over seed rows: ``(data, frontier_rows, rows_merged)``.

    ``data`` is a coalesced family list (``mode="families"``) or a list
    of point tuples (``mode="points"``): over :func:`seed_rows`, the
    answer :func:`repro.perf.columnar.run_query` gives on the full chain.
    """
    walk = ChainWalk(index)
    frontier = walk.run(seeds, chain)
    materializer = IntervalMaterializer(index)
    if mode == "families":
        data = materializer.families(frontier, variables)
    else:
        data = materializer.points(frontier, variables)
    return data, len(frontier), walk.rows_merged


class ChainWalk:
    """One run of the per-row chain walk (Steps 1 and 2).

    Holds what the run reads — the index — and what it counts: how many
    frontier rows the coalescing collectors absorbed into signature-equal
    survivors.
    """

    __slots__ = ("index", "rows_merged")

    def __init__(self, index: GraphIndex) -> None:
        self.index = index
        self.rows_merged = 0

    def run(self, frontier: list[Row], chain: Sequence[ChainStep]) -> list[Row]:
        current = frontier
        for step in chain:
            if not current:
                break
            # Chaos hook: "sleep" models a pathologically slow step,
            # "raise" a mid-chain fault.
            failpoints.fire("engine.step")
            collector = self.collector_for(step)
            self.apply_step(current, step, collector)
            self.rows_merged += collector.rows_merged
            current = collector.rows()
        return current

    def collector_for(self, step: ChainStep) -> Collector:
        """The cheapest collector that preserves the frontier invariant.

        Test, Bind and Temporal steps are injective on binding
        signatures — applied to a signature-unique frontier they cannot
        produce two signature-equal rows (a Test only narrows the last
        validity family, which the signature excludes; a Bind extends
        the bindings deterministically; a Temporal step folds the last
        family into the signature, which distinguished the inputs).
        Those steps skip the signature bookkeeping entirely; only
        structural moves, fused hops and alternatives — where distinct
        rows can converge on the same signature — pay for the
        coalescing collector.
        """
        if isinstance(step, (StructStep, HopStep, AltStep)):
            return Frontier(self.index.object_id)
        return RowFrontier()

    def apply_step(self, frontier: list[Row], step: ChainStep, out: Collector) -> None:
        if isinstance(step, TestStep):
            self._apply_test(frontier, step.condition, out)
        elif isinstance(step, StructStep):
            self._apply_struct(frontier, step.forward, out)
        elif isinstance(step, HopStep):
            self._apply_hop(frontier, step, out)
        elif isinstance(step, TemporalStep):
            self._apply_temporal(frontier, step, out)
        elif isinstance(step, BindStep):
            for row in frontier:
                out.add(row.replace_last(row.last.bind(step.variable)))
        elif isinstance(step, AltStep):
            for alternative in step.alternatives:
                for row in self.run(list(frontier), alternative):
                    out.add(row)
        else:
            raise TypeError(f"unknown chain step {step!r}")

    def _apply_test(self, frontier: list[Row], condition: Test, out: Collector) -> None:
        # One memoized condition table shared by every row (and every
        # later query on the same graph) replaces a per-row AST walk.
        table = self.index.condition_table(condition)
        for row in frontier:
            group = row.last
            satisfied = table.get(group.current)
            if satisfied is None:
                continue
            times = group.times.intersect(satisfied)
            if times.is_empty():
                continue
            out.add(row.replace_last(group.with_times(times)))

    def _apply_struct(self, frontier: list[Row], forward: bool, out: Collector) -> None:
        index = self.index
        adjacency = index.out_adjacency if forward else index.in_adjacency
        endpoint = index.edge_target if forward else index.edge_source
        for row in frontier:
            group = row.last
            current = group.current
            edges = adjacency.get(current)
            if edges is not None:
                for edge in edges:
                    out.add(row.replace_last(group.with_current(edge, group.times)))
            else:
                out.add(
                    row.replace_last(
                        group.with_current(endpoint[current], group.times)
                    )
                )

    def _apply_hop(self, frontier: list[Row], step: HopStep, out: Collector) -> None:
        """Fused structural hop through the index's memoized entries."""
        index = self.index
        for row in frontier:
            group = row.last
            entries = index.hop_entries(
                group.current,
                step.forward_in,
                step.mid_conditions,
                step.forward_out,
                step.target_conditions,
            )
            times = group.times
            for target, hop_times in entries:
                joined = times.intersect(hop_times)
                if joined.is_empty():
                    continue
                out.add(row.replace_last(group.with_current(target, joined)))

    def _apply_temporal(
        self, frontier: list[Row], step: TemporalStep, out: Collector
    ) -> None:
        index = self.index
        domain = index.domain
        # Conditions fused into the step: rows whose object cannot
        # satisfy them never reach the window arithmetic below.
        condition_tables = tuple(
            index.condition_table(c) for c in step.target_conditions
        )
        for row in frontier:
            group = row.last
            satisfied: IntervalSet | None = None
            if condition_tables:
                for table in condition_tables:
                    found = table.get(group.current)
                    if found is None:
                        satisfied = IntervalSet.empty()
                        break
                    satisfied = (
                        found if satisfied is None else satisfied.intersect(found)
                    )
                if satisfied is not None and satisfied.is_empty():
                    continue
            existence = index.existence[group.current]
            accumulator = IntervalSetAccumulator()
            for anchor in group.times:
                for _anchor_piece, window in reachable_window(
                    anchor,
                    existence,
                    step.lower,
                    step.upper,
                    step.forward,
                    step.require_existence,
                    domain,
                ):
                    accumulator.add_interval(window)
            if not accumulator:
                continue
            reached = accumulator.build()
            if satisfied is not None:
                reached = reached.intersect(satisfied)
                if reached.is_empty():
                    continue
            link = TemporalLink(
                obj=group.current,
                forward=step.forward,
                lower=step.lower,
                upper=step.upper,
                contiguous=step.require_existence,
            )
            new_group = Group((), group.current, reached)
            out.add(row.append_group(new_group, link))
