"""Cooperative deadlines for query execution.

A :class:`Deadline` is created per query call by the dataflow engine
and threaded through the columnar kernel.  Cancellation is
*cooperative*: the kernel calls :meth:`check` before each leaf chain,
each op and each projection pass — all whole-array sweeps, so reading
the clock each time costs nothing measurable.  When the budget is
exhausted a structured :class:`~repro.errors.DeadlineExceeded` is
raised, carrying the progress counters recorded on
:attr:`Deadline.progress` so callers see how far the query got.
"""

from __future__ import annotations

import time

from repro.errors import DeadlineExceeded


class Deadline:
    """A wall-clock budget with cooperative cancellation checks."""

    __slots__ = ("seconds", "started", "_expires_at", "progress")

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self.seconds = float(seconds)
        self.started = time.monotonic()
        self._expires_at = self.started + self.seconds
        #: Mutable progress counters included in the exception payload.
        self.progress: dict = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if time.monotonic() >= self._expires_at:
            raise self.exceeded()

    def exceeded(self) -> DeadlineExceeded:
        """Build the structured cancellation error (with partial progress)."""
        partial = dict(self.progress)
        elapsed = self.elapsed()
        return DeadlineExceeded(
            f"query exceeded its {self.seconds:g}s deadline after "
            f"{elapsed:.3f}s (partial progress: {partial or 'none recorded'})",
            deadline_seconds=self.seconds,
            elapsed=elapsed,
            partial=partial,
        )
