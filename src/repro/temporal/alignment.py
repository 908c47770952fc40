"""Interval-level reachability of temporal navigation.

The paper's dataflow implementation (Section VI) uses "interval-based
reasoning to identify temporally-aligned matches": a temporal step maps
an anchor's validity interval to the interval of time points it can
reach.  :func:`reachable_window` and its inverse
:func:`reachable_sources` state that mapping for one interval at a time;
they are the scalar reference the columnar kernel's vectorized temporal
step is checked against.
"""

from __future__ import annotations

from typing import Optional

from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet


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
