"""The session's shared/exclusive lock (:class:`repro.streaming.lock.SharedLock`).

What this module pins: readers overlap; a writer overlaps nobody; a
queued writer blocks *new* readers but never a thread that already holds
the lock (nested shared acquires, the exclusive side taking the shared
side); ``with lock:`` is the exclusive side; and under a shortened
switch interval with more threads than cores no reader ever observes a
writer's half-done update.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.streaming.lock import SharedLock

TIMEOUT = 10.0


def start(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def join(*threads: threading.Thread) -> None:
    for thread in threads:
        thread.join(timeout=TIMEOUT)
        assert not thread.is_alive(), "thread did not finish: lock deadlock?"


def wait_for(predicate) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_readers_overlap():
    lock = SharedLock()
    both_inside = threading.Barrier(2, timeout=TIMEOUT)

    def reader():
        with lock.shared():
            both_inside.wait()  # breaks (and raises) unless both hold at once

    join(start(reader), start(reader))
    assert not both_inside.broken


def test_with_lock_is_exclusive():
    lock = SharedLock()
    entered = threading.Event()

    def reader():
        with lock.shared():
            entered.set()

    with lock:
        thread = start(reader)
        assert not entered.wait(0.1)
    join(thread)
    assert entered.is_set()


def test_writer_waits_for_readers_and_blocks_new_readers():
    lock = SharedLock()
    order: list[str] = []
    lock.acquire_shared()

    def writer():
        with lock:
            order.append("writer")

    def late_reader():
        with lock.shared():
            order.append("reader")

    writer_thread = start(writer)
    wait_for(lambda: lock._writers_waiting == 1)
    reader_thread = start(late_reader)
    time.sleep(0.05)
    assert order == []  # the writer waits for us, the reader for the writer
    lock.release_shared()
    join(writer_thread, reader_thread)
    assert order == ["writer", "reader"]


def test_nested_shared_acquire_while_writer_queued_does_not_deadlock():
    lock = SharedLock()
    done = []
    holding = threading.Event()

    def reader():
        with lock.shared():
            holding.set()
            wait_for(lambda: lock._writers_waiting == 1)
            with lock.shared():  # would wait forever behind the writer
                done.append("nested")

    def writer():
        with lock:
            done.append("writer")

    reader_thread = start(reader)
    holding.wait(TIMEOUT)
    writer_thread = start(writer)
    join(reader_thread, writer_thread)
    assert done == ["nested", "writer"]


def test_exclusive_side_takes_shared_and_is_reentrant():
    lock = SharedLock()
    done = []

    def nest():
        with lock:
            with lock:
                with lock.shared():
                    with lock:
                        done.append("nested")
            with lock.shared():
                pass

    join(start(nest))
    assert done == ["nested"]
    # Fully released: another thread can write.
    join(start(lambda: lock.acquire() or lock.release()))


def test_upgrade_and_unbalanced_release_raise():
    lock = SharedLock()
    with lock.shared():
        with pytest.raises(RuntimeError):
            lock.acquire()
    with pytest.raises(RuntimeError):
        lock.release_shared()
    with pytest.raises(RuntimeError):
        lock.release()


def test_no_reader_sees_a_half_done_write():
    """Stress: 6 readers, 2 writers, a 10 µs switch interval.  Writers
    update two counters in separate steps; a reader that ever sees them
    differ overlapped a writer."""
    lock = SharedLock()
    state = {"a": 0, "b": 0}
    torn: list[tuple] = []
    writes_each = 100
    stop = threading.Event()

    def writer():
        for _ in range(writes_each):
            with lock:
                state["a"] += 1
                time.sleep(0)  # invite a switch mid-update
                state["b"] += 1

    def reader():
        while not stop.is_set():
            with lock.shared():
                with lock.shared():
                    seen = (state["a"], state["b"])
            if seen[0] != seen[1]:
                torn.append(seen)
            time.sleep(0)  # a real reader works between reads

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [start(reader) for _ in range(6)]
    try:
        # Writer preference: the readers cannot starve the writers.
        join(*[start(writer) for _ in range(2)])
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        join(*readers)
    assert not torn
    assert state == {"a": 2 * writes_each, "b": 2 * writes_each}
