"""A reentrant shared/exclusive lock with writer preference.

:class:`SharedLock` is the session lock of
:class:`~repro.streaming.engine.StreamingEngine` and, through it, the
host lock of :class:`~repro.server.state.GraphHost`.  Readers (queries,
registered-table reads, stats) hold the *shared* side and overlap one
another; writers (delta application, registration) hold the *exclusive*
side and overlap nobody.

* **Writer preference.**  Once a writer waits, a thread that holds
  neither side queues behind it, so a stream of readers cannot starve a
  delta.
* **Reentrancy.**  A thread that holds either side takes the shared side
  again without waiting, even while a writer is queued (waiting there
  would deadlock: the writer waits for that very thread).  The exclusive
  side is reentrant too.  Upgrading a shared hold to exclusive raises
  :class:`RuntimeError` instead of deadlocking.
* ``with lock:`` takes the exclusive side, so code that needs the graph
  to stand still needs nothing else; ``with lock.shared():`` takes the
  shared side.
"""

from __future__ import annotations

import threading


class SharedLock:
    """Reentrant shared/exclusive lock; see the module docstring."""

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        #: Shared-side depth per holding thread.
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0
        self._shared = _SharedSide(self)

    def shared(self) -> "_SharedSide":
        """A context manager for the shared side."""
        return self._shared

    def acquire_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me)
            if depth is None:
                raise RuntimeError("release_shared() without a shared hold")
            if depth > 1:
                self._readers[me] = depth - 1
                return
            del self._readers[me]
            if not self._readers:
                self._cond.notify_all()

    def acquire(self) -> None:
        """Take the exclusive side (reentrant)."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise RuntimeError("cannot upgrade a shared hold to exclusive")
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            except BaseException:
                # An interrupted wait must not leave readers parked
                # behind a writer that is gone.
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release(self) -> None:
        """Release one level of the exclusive side."""
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release() without an exclusive hold")
            self._writer_depth -= 1
            if not self._writer_depth:
                self._writer = None
                self._cond.notify_all()

    def __enter__(self) -> "SharedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _SharedSide:
    __slots__ = ("_lock",)

    def __init__(self, lock: SharedLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_shared()

    def __exit__(self, *exc_info) -> None:
        self._lock.release_shared()
