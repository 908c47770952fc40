"""Coalesced families of intervals (the set ``FC`` of the paper's Appendix A).

An :class:`IntervalSet` is a finite family of pairwise disjoint,
non-adjacent intervals kept sorted by their starting point.  This is the
coalesced representation required by the paper for the existence function
``ξ`` of an ITPG: two value-equivalent temporally adjacent intervals are
always stored as a single interval.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import InvalidIntervalError
from repro.temporal.interval import Interval


class IntervalSet:
    """An immutable, coalesced, sorted family of intervals.

    The constructor accepts intervals in any order, possibly overlapping
    or adjacent; they are coalesced on construction so that the stored
    family always satisfies the ``FC`` invariant: for consecutive stored
    intervals ``I_j``, ``I_{j+1}`` it holds that ``I_j`` is *before*
    ``I_{j+1}`` (gap of at least one time point).
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval | tuple[int, int]] = ()) -> None:
        normalized = [
            iv if isinstance(iv, Interval) else Interval(int(iv[0]), int(iv[1]))
            for iv in intervals
        ]
        self._intervals: tuple[Interval, ...] = tuple(_coalesce(normalized))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "IntervalSet":
        """The empty family (``∅ ∈ FC``)."""
        return IntervalSet(())

    @classmethod
    def _from_coalesced(cls, intervals: Iterable[Interval]) -> "IntervalSet":
        """Wrap intervals already known to satisfy the FC invariant."""
        instance = object.__new__(cls)
        instance._intervals = tuple(intervals)
        return instance

    @staticmethod
    def single(start: int, end: int) -> "IntervalSet":
        """Family containing the single interval ``[start, end]``."""
        return IntervalSet((Interval(start, end),))

    @staticmethod
    def point(t: int) -> "IntervalSet":
        """Family containing the singleton interval ``[t, t]``."""
        return IntervalSet((Interval.point(t),))

    @staticmethod
    def from_points(points: Iterable[int]) -> "IntervalSet":
        """Coalesce an arbitrary collection of time points into maximal intervals."""
        pts = sorted(set(points))
        intervals: list[Interval] = []
        run_start: Optional[int] = None
        prev: Optional[int] = None
        for p in pts:
            if run_start is None:
                run_start = prev = p
                continue
            if p == prev + 1:
                prev = p
                continue
            intervals.append(Interval(run_start, prev))
            run_start = prev = p
        if run_start is not None:
            intervals.append(Interval(run_start, prev))
        return IntervalSet(intervals)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The stored maximal intervals, sorted by starting point."""
        return self._intervals

    def is_empty(self) -> bool:
        return not self._intervals

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __len__(self) -> int:
        """Number of maximal intervals (not the number of time points)."""
        return len(self._intervals)

    def total_points(self) -> int:
        """Total number of time points covered by the family."""
        return sum(len(iv) for iv in self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __contains__(self, t: int) -> bool:
        return self.contains_point(t)

    def contains_point(self, t: int) -> bool:
        """True if the time point ``t`` is covered by the family (binary search)."""
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._intervals[mid]
            if t < iv.start:
                hi = mid - 1
            elif t > iv.end:
                lo = mid + 1
            else:
                return True
        return False

    def interval_containing(self, t: int) -> Optional[Interval]:
        """The maximal interval containing ``t`` or ``None``."""
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._intervals[mid]
            if t < iv.start:
                hi = mid - 1
            elif t > iv.end:
                lo = mid + 1
            else:
                return iv
        return None

    def contains_interval(self, interval: Interval) -> bool:
        """True if ``interval`` occurs during a single maximal interval of the family."""
        holder = self.interval_containing(interval.start)
        return holder is not None and interval.during(holder)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        """The containment relation ``⊑`` of the paper.

        Every interval of ``self`` must occur during some interval of
        ``other``.
        """
        return all(other.contains_interval(iv) for iv in self._intervals)

    def points(self) -> Iterator[int]:
        """Iterate over every covered time point in increasing order."""
        for iv in self._intervals:
            yield from iv.points()

    def min_point(self) -> int:
        if not self._intervals:
            raise InvalidIntervalError("empty interval set has no minimum point")
        return self._intervals[0].start

    def max_point(self) -> int:
        if not self._intervals:
            raise InvalidIntervalError("empty interval set has no maximum point")
        return self._intervals[-1].end

    def span(self) -> Optional[Interval]:
        """Smallest single interval covering the whole family, or ``None`` if empty."""
        if not self._intervals:
            return None
        return Interval(self._intervals[0].start, self._intervals[-1].end)

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def union(self, other: "IntervalSet") -> "IntervalSet":
        # Both operands already satisfy the FC invariant, so when either
        # is empty the other can be returned without re-coalescing.
        if not self._intervals:
            return other
        if not other._intervals:
            return self
        return IntervalSet(self._intervals + other._intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise intersection, computed by a linear merge of both families."""
        result: list[Interval] = []
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            overlap = a[i].intersect(b[j])
            if overlap is not None:
                result.append(overlap)
            if a[i].end < b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def intersect_interval(self, interval: Interval) -> "IntervalSet":
        """Intersection with one interval via binary search on the family.

        Locates the first stored interval that can overlap, then clips
        until past ``interval.end`` — no temporary one-element family and
        no re-coalescing (clipping disjoint, non-adjacent intervals keeps
        them disjoint and non-adjacent).
        """
        stored = self._intervals
        if not stored:
            return self
        # First stored interval with end >= interval.start.
        lo, hi = 0, len(stored)
        while lo < hi:
            mid = (lo + hi) // 2
            if stored[mid].end < interval.start:
                lo = mid + 1
            else:
                hi = mid
        result: list[Interval] = []
        for iv in stored[lo:]:
            if iv.start > interval.end:
                break
            overlap = iv.intersect(interval)
            if overlap is not None:
                result.append(overlap)
        return IntervalSet._from_coalesced(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise set difference ``self \\ other``."""
        result: list[Interval] = []
        for iv in self._intervals:
            pieces = [iv]
            for cut in other._intervals:
                if cut.start > iv.end:
                    break
                next_pieces: list[Interval] = []
                for piece in pieces:
                    next_pieces.extend(piece.difference(cut))
                pieces = next_pieces
                if not pieces:
                    break
            result.extend(pieces)
        return IntervalSet(result)

    def complement(self, domain: Interval) -> "IntervalSet":
        """Time points of ``domain`` not covered by the family."""
        return IntervalSet((domain,)).difference(self)

    def shift(self, delta: int) -> "IntervalSet":
        """Every interval translated by ``delta``."""
        return IntervalSet(iv.shift(delta) for iv in self._intervals)

    def dilate(self, before: int, after: int, domain: Optional[Interval] = None) -> "IntervalSet":
        """Grow every interval by ``before``/``after`` points and re-coalesce.

        Used by the dataflow engine to turn a bounded temporal-navigation
        step (``NEXT[n, m]`` / ``PREV[n, m]``) into interval arithmetic:
        the set of times reachable from any point of the family.
        """
        grown = [iv.expand(before, after) for iv in self._intervals]
        if domain is not None:
            clamped = [iv.clamp(domain) for iv in grown]
            grown = [iv for iv in clamped if iv is not None]
        return IntervalSet(grown)

    def overlaps(self, other: "IntervalSet") -> bool:
        """True if the two families share at least one time point."""
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            if a[i].overlaps(b[j]):
                return True
            if a[i].end < b[j].end:
                i += 1
            else:
                j += 1
        return False

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = ", ".join(str(iv) for iv in self._intervals)
        return f"IntervalSet({{{body}}})"


def _coalesce(intervals: Sequence[Interval]) -> list[Interval]:
    """Coalesce a list of intervals into a sorted list of maximal intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged: list[Interval] = [ordered[0]]
    for iv in ordered[1:]:
        last = merged[-1]
        if last.adjacent_or_overlapping(iv):
            merged[-1] = last.hull(iv)
        else:
            merged.append(iv)
    return merged
