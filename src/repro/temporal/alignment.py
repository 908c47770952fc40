"""Temporal-alignment primitives for interval joins.

The paper's dataflow implementation (Section VI) uses "interval-based
reasoning to identify temporally-aligned matches" — i.e. two interval-
timestamped rows join only on the portion of time during which both are
valid, and the joined row carries the intersection of the two validity
intervals (Dignös et al., *Temporal Alignment*).  These helpers implement
that primitive for pairs, for many-way alignment and as a generic
overlap join over keyed relations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Iterator, Optional, TypeVar

from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

Row = TypeVar("Row")
OtherRow = TypeVar("OtherRow")


def align(left: Interval, right: Interval) -> Optional[Interval]:
    """Intersection of two validity intervals, or ``None`` when disjoint."""
    return left.intersect(right)


def align_many(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Intersection of an arbitrary number of validity intervals."""
    result: Optional[Interval] = None
    for interval in intervals:
        if result is None:
            result = interval
        else:
            result = result.intersect(interval)
        if result is None:
            return None
    return result


def align_sets(left: IntervalSet, right: IntervalSet) -> IntervalSet:
    """Intersection of two coalesced families of validity intervals."""
    return left.intersect(right)


def overlap_join(
    left: Iterable[Row],
    right: Iterable[OtherRow],
    left_key: Callable[[Row], Hashable],
    right_key: Callable[[OtherRow], Hashable],
    left_interval: Callable[[Row], Interval],
    right_interval: Callable[[OtherRow], Interval],
) -> Iterator[tuple[Row, OtherRow, Interval]]:
    """Hash-join two keyed interval relations on key equality + interval overlap.

    Yields ``(left_row, right_row, aligned_interval)`` for every pair of
    rows whose keys are equal and whose validity intervals intersect; the
    yielded interval is the intersection.  The right side is materialized
    into a hash table indexed by key (in-memory hash join, as in the
    paper's implementation); the left side is streamed.
    """
    index: dict[Hashable, list[OtherRow]] = defaultdict(list)
    for row in right:
        index[right_key(row)].append(row)
    for lrow in left:
        for rrow in index.get(left_key(lrow), ()):
            overlap = left_interval(lrow).intersect(right_interval(rrow))
            if overlap is not None:
                yield lrow, rrow, overlap


def interval_product(
    left: Iterable[tuple[Hashable, Interval]],
    right: Iterable[tuple[Hashable, Interval]],
) -> Iterator[tuple[Hashable, Hashable, Interval]]:
    """Cartesian alignment of two small interval relations (used in tests)."""
    right_rows = list(right)
    for lkey, liv in left:
        for rkey, riv in right_rows:
            overlap = liv.intersect(riv)
            if overlap is not None:
                yield lkey, rkey, overlap


def reachable_window(
    start: Interval,
    existence: IntervalSet,
    lo: int,
    hi: Optional[int],
    forward: bool,
    require_contiguous: bool,
    domain: Interval,
) -> list[tuple[Interval, Interval]]:
    """Interval-level reachability for a bounded/unbounded temporal step.

    Given an anchor validity interval ``start`` for some object, the
    object's existence family and a temporal-navigation constraint
    ("move between ``lo`` and ``hi`` steps forward/backward", with ``hi``
    ``None`` meaning unbounded), compute the pairs of
    ``(anchor sub-interval, reachable interval)`` such that every anchor
    point of the sub-interval can reach every point of the associated
    reachable interval — optionally requiring that every *intermediate*
    time point exists for the object (``require_contiguous``), which is
    the semantics of ``(N/∃)[n, _]`` style expressions used by the
    practical language.

    The semantics of ``require_contiguous`` is the practical language's
    ``(N/∃)[n, m]``: every *visited* point (the anchor excluded) must
    exist, so ``delta = 0`` moves are admissible anywhere, ``delta >= 1``
    moves require the points ``t±1 … t±delta`` to lie in one maximal
    existence run — and the anchor itself may sit just outside that run
    (the seed implementation wrongly demanded the anchor exist too; the
    differential fuzzing suite flagged the discrepancy against the
    bottom-up ground truth).

    The union of the returned *reachable* pieces over all pairs is
    exactly the set of points reachable from some anchor point of
    ``start``; per pair, the anchor piece records which anchors
    contribute.  Point-level filtering (Step 3 of the paper's
    evaluation) is still applied afterwards when bindings are
    materialized.

    No engine calls this: it is the scalar reference the columnar
    kernel's vectorized temporal step is checked against
    (``tests/test_alignment.py::TestKernelReach``), kept beside the
    algebra it is written in.
    """
    results: list[tuple[Interval, Interval]] = []
    if require_contiguous:
        if lo == 0:
            # Zero moves visit no point: every anchor reaches itself.
            identity = start.clamp(domain)
            if identity is not None:
                results.append((identity, identity))
        min_moves = max(lo, 1)
        if hi is None or hi >= 1:
            for run in existence:
                # delta >= 1 moves stay inside one run; the anchor may sit
                # inside it or immediately before/after it.
                if forward:
                    anchor = start.intersect(Interval(run.start - 1, run.end - 1))
                    if anchor is None:
                        continue
                    target_lo = anchor.start + min_moves
                    target_hi = (
                        run.end if hi is None else min(run.end, anchor.end + hi)
                    )
                else:
                    anchor = start.intersect(Interval(run.start + 1, run.end + 1))
                    if anchor is None:
                        continue
                    target_hi = anchor.end - min_moves
                    target_lo = (
                        run.start if hi is None else max(run.start, anchor.start - hi)
                    )
                if target_lo > target_hi:
                    continue
                target = Interval(target_lo, target_hi).clamp(domain)
                if target is not None:
                    results.append((anchor, target))
    else:
        # Without the existence requirement the reachable window is a pure
        # shift of the anchor, clamped to the temporal domain.
        if forward:
            target_lo = start.start + lo
            target_hi = domain.end if hi is None else start.end + hi
        else:
            target_hi = start.end - lo
            target_lo = domain.start if hi is None else start.start - hi
        if target_lo <= target_hi:
            window = Interval(target_lo, target_hi).clamp(domain)
            if window is not None:
                results.append((start, window))
    return results


def reachable_sources(
    target: Interval,
    existence: IntervalSet,
    lo: int,
    hi: Optional[int],
    forward: bool,
    require_contiguous: bool,
    domain: Interval,
) -> list[Interval]:
    """The exact inverse of :func:`reachable_window`: anchors reaching ``target``.

    The union of the returned intervals is exactly the set of anchor
    points from which *some* point of ``target`` is reachable under the
    given constraint.  Note that for contiguous navigation the inverse
    is **not** direction-flipped forward reachability: walking from ``t``
    to ``t'`` visits ``t±1 … t'`` — anchor excluded, endpoint included —
    so seen from the target side the visited set *includes* the target
    and *excludes* the source's own position.  Concretely, a source may
    sit one point outside the existence run that carries the walk, and
    the target itself must exist whenever at least one move is taken.

    Like :func:`reachable_window`, it is the scalar reference for the
    kernel's backward temporal step (``TestKernelReach``), not an engine
    path.
    """
    results: list[Interval] = []
    if require_contiguous:
        if lo == 0:
            # Zero moves: every target point reaches itself.
            identity = target.clamp(domain)
            if identity is not None:
                results.append(identity)
        min_moves = max(lo, 1)
        if hi is None or hi >= 1:
            for run in existence:
                # At least one move: the target is visited, so it must lie
                # inside the run; the source sits inside it or one point
                # beyond its boundary.
                piece = target.intersect(run)
                if piece is None:
                    continue
                if forward:
                    source_lo = (
                        run.start - 1
                        if hi is None
                        else max(run.start - 1, piece.start - hi)
                    )
                    source_hi = piece.end - min_moves
                else:
                    source_lo = piece.start + min_moves
                    source_hi = (
                        run.end + 1
                        if hi is None
                        else min(run.end + 1, piece.end + hi)
                    )
                if source_lo > source_hi:
                    continue
                window = Interval(source_lo, source_hi).clamp(domain)
                if window is not None:
                    results.append(window)
    else:
        # Pure shift, no existence requirement: invert the delta bounds.
        if forward:
            source_hi = target.end - lo
            source_lo = domain.start if hi is None else target.start - hi
        else:
            source_lo = target.start + lo
            source_hi = domain.end if hi is None else target.end + hi
        if source_lo <= source_hi:
            window = Interval(source_lo, source_hi).clamp(domain)
            if window is not None:
                results.append(window)
    return results
