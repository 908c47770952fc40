"""Persistent worker-process pools for frontier execution.

CPython's GIL keeps CPU-bound evaluation on one core per process; this
module is the engine's only pool and the path that scales with cores.  A
:class:`WorkerPool` wraps a ``ProcessPoolExecutor`` plus the *graph
installation protocol*:

* Each task names its graph by the execution plan's stable token.  The
  serialized graph payload is attached only while **no** worker has
  acknowledged the token (the cold-start query); afterwards tasks carry
  the token alone — repeated queries on the same graph pay **zero
  re-transfer**, with late-spawning workers covered by the retry below.
* Store-attached graphs (:func:`repro.store.attach`) skip the payload
  entirely: every task carries the plan's tiny
  :class:`~repro.parallel.plan.StoreRef` and a cold worker mmap-attaches
  the same artifact by path, sharing the parent's page-cache pages
  instead of unpickling a private copy.
* A worker that receives a bare token it has not installed — or a store
  ref it cannot attach (file moved, corrupted, token mismatch after a
  recompile) — raises :class:`PlanNotInstalledError`; the parent retries
  that one chunk with the pickled payload attached.  This makes the
  protocol self-healing without a broadcast barrier, and makes payload
  shipping the universal fallback for store failures.
* Workers rebuild the graph **once per process** and memoize it in the
  consolidated per-token cache (:mod:`repro.parallel.registry`; the
  compiled :class:`~repro.perf.graph_index.GraphIndex` rides on the
  graph object), then run the columnar kernel's one entry
  (:func:`repro.perf.columnar.run_query`) on the full chain, seeded by
  their chunk of seed objects, returning compact packed families or
  point tuples.

Pools are shared process-wide through :func:`shared_pool`, keyed by
``(start method, worker count)``, so every engine and every query on
the same machine reuses warm workers.  A crashed worker breaks the
whole ``ProcessPoolExecutor``; the registry drops the broken pool and
the failure surfaces as :class:`~repro.errors.EvaluationError`, so the
next query transparently gets a fresh pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Hashable, Optional, Sequence

from repro.errors import (
    DeadlineExceeded,
    EvaluationError,
    ReproError,
    WorkerCrashError,
)
from repro.parallel import registry
from repro.parallel.plan import ExecutionPlan, StoreRef
from repro.resilience import failpoints

ObjectId = Hashable


class PlanNotInstalledError(ReproError):
    """A worker received a bare graph token it has no cached graph for."""


class WorkerPool:
    """A persistent process pool speaking the graph installation protocol."""

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        context = (
            multiprocessing.get_context(start_method)
            if start_method is not None
            else multiprocessing.get_context()
        )
        self.start_method = context.get_start_method()
        self.workers = workers
        self._executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        #: token -> worker pids that have acknowledged the graph.
        self._warm: dict[str, set[int]] = {}
        self.broken = False

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def run_chunks(
        self,
        plan: ExecutionPlan,
        chain: tuple,
        chunks: Sequence[Sequence[ObjectId]],
        mode: str,
        variables: tuple[str, ...],
        deadline=None,
    ) -> list[dict]:
        """Run ``chain`` once per chunk of seed objects in the pool,
        returning per-chunk result dicts.

        Results come back in chunk order.  Worker-raised exceptions
        propagate unchanged after all chunks have drained; a crashed
        worker process surfaces as :class:`WorkerCrashError` (an
        :class:`EvaluationError`) and retires the pool from the shared
        registry.  A :class:`~repro.resilience.Deadline` bounds how long
        the parent waits for each future; on expiry the remaining
        futures are cancelled and the deadline's structured
        :class:`~repro.errors.DeadlineExceeded` is raised.
        """
        try:
            return self._dispatch(plan, chain, chunks, mode, variables, deadline)
        except BrokenProcessPool as exc:
            self.broken = True
            _discard_pool(self)
            self._executor.shutdown(wait=False, cancel_futures=True)
            raise WorkerCrashError(
                "a process-backend worker crashed while executing the query "
                f"(pool of {self.workers} '{self.start_method}' workers); "
                "the pool has been retired — re-running the query will start "
                "a fresh one"
            ) from exc

    def _dispatch(
        self,
        plan: ExecutionPlan,
        chain: tuple,
        chunks: Sequence[Sequence[ObjectId]],
        mode: str,
        variables: tuple[str, ...],
        deadline=None,
    ) -> list[dict]:
        token = plan.token
        # Store-attached graphs always travel as their tiny (path, token)
        # ref — cold workers mmap the artifact themselves.  Otherwise the
        # payload is attached only while *no* worker has acknowledged the
        # graph (the cold-start query); afterwards tasks ship the bare
        # token: a not-yet-warm worker picking one up triggers the
        # self-healing resend below, which converges without ever
        # re-shipping the payload to the whole pool per query.
        store = plan.store
        payload = (
            plan.payload if store is None and self._needs_payload(token) else None
        )
        futures = [
            self._executor.submit(
                _execute_chunk,
                token,
                payload,
                store,
                chain,
                chunk,
                mode,
                variables,
            )
            for chunk in chunks
        ]
        results: list[Optional[dict]] = [None] * len(chunks)
        retries: list[int] = []
        errors: list[Exception] = []
        for i, future in enumerate(futures):
            try:
                results[i] = self._await(future, deadline, futures)
            except PlanNotInstalledError:
                retries.append(i)
            except (BrokenProcessPool, DeadlineExceeded):
                raise
            except Exception as exc:  # worker-raised: drain siblings, then re-raise
                errors.append(exc)
        if errors:
            raise errors[0]
        if retries:
            # Self-healing resend: the pickled payload travels with every
            # retry (even for store plans — a worker that could not
            # attach the artifact must not be asked to try again), so a
            # second PlanNotInstalledError is impossible.  All retries
            # are submitted before any is awaited — the retry round
            # stays parallel.
            retry_futures = [
                self._executor.submit(
                    _execute_chunk,
                    token,
                    plan.payload,
                    None,
                    chain,
                    chunks[i],
                    mode,
                    variables,
                )
                for i in retries
            ]
            for i, future in zip(retries, retry_futures):
                results[i] = self._await(future, deadline, retry_futures)
        warm = self._warm.setdefault(token, set())
        for result in results:
            warm.add(result["pid"])
        return results

    @staticmethod
    def _await(future, deadline, siblings) -> dict:
        """Wait for one future, bounded by the deadline's remaining budget.

        On expiry every sibling future is cancelled (undispatched chunks
        never run; in-flight workers finish their chunk and the result
        is dropped — processes cannot be interrupted cooperatively) and
        the structured deadline error is raised.
        """
        if deadline is None:
            return future.result()
        try:
            return future.result(timeout=deadline.remaining())
        except FutureTimeoutError:
            for sibling in siblings:
                sibling.cancel()
            raise deadline.exceeded(backend="process") from None

    def _needs_payload(self, token: str) -> bool:
        return not self._warm.get(token)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        _discard_pool(self)


# --------------------------------------------------------------------- #
# Shared pool registry
# --------------------------------------------------------------------- #
_POOLS: dict[tuple[str, int], WorkerPool] = {}
#: Concurrent readers must not each start a pool for one key.
_POOLS_LOCK = threading.Lock()


def shared_pool(workers: int, start_method: Optional[str] = None) -> WorkerPool:
    """The process-wide pool for ``(start method, workers)``, created lazily."""
    method = start_method or multiprocessing.get_start_method()
    if method not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"unknown multiprocessing start method {method!r}; "
            f"available: {', '.join(multiprocessing.get_all_start_methods())}"
        )
    key = (method, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None or pool.broken:
            pool = _POOLS[key] = WorkerPool(workers, method)
    return pool


def _discard_pool(pool: WorkerPool) -> None:
    for key, candidate in list(_POOLS.items()):
        if candidate is pool:
            del _POOLS[key]


def shutdown_pools() -> None:
    """Retire every shared pool (used by tests and the atexit hook)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


#: Public alias for embedding applications (and the resilience docs):
#: call on service shutdown to reap worker processes deterministically
#: instead of leaning on the interpreter's atexit ordering.
shutdown_all = shutdown_pools


atexit.register(shutdown_pools)


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
def _worker_graph(
    token: str, payload: Optional[bytes], store: Optional[StoreRef]
) -> object:
    """Install (or fetch) the worker's graph for ``token``.

    Preference order: the consolidated LRU cache, then a store attach
    (zero-copy, page-cache shared), then the pickled payload.  *Any*
    attach failure — missing or corrupted artifact, or an artifact whose
    token no longer matches the plan (recompiled since dispatch) — is
    reported as :class:`PlanNotInstalledError` so the parent retries the
    chunk with the payload: the store path degrades, never fails.
    """
    import pickle

    graph = registry.cached(token)
    if graph is not None:
        return graph
    # Chaos hook: fault the cold-start install path (kind "raise" models
    # an OOM/deserialization failure; "kill" a crash while rebuilding).
    failpoints.fire("worker.install")
    if store is not None:
        from repro.errors import StoreError
        from repro.store import attach

        try:
            attachment = attach(store.path)
        except (StoreError, OSError) as exc:
            raise PlanNotInstalledError(
                f"worker {os.getpid()} could not attach the store at "
                f"{store.path!r} for token {token!r}: {exc}"
            ) from exc
        if attachment.token != token:
            attachment.close()
            raise PlanNotInstalledError(
                f"worker {os.getpid()} attached {store.path!r} but its token "
                f"{attachment.token!r} does not match the plan ({token!r}); "
                "the artifact was recompiled since dispatch"
            )
        return registry.install(token, attachment.graph)
    if payload is None:
        raise PlanNotInstalledError(
            f"worker {os.getpid()} has no cached graph for token {token!r}"
        )
    return registry.install(token, pickle.loads(payload))


def _run_chunk(
    token: str,
    payload: Optional[bytes],
    store: Optional[StoreRef],
    chain: tuple,
    seeds: Sequence[ObjectId],
    mode: str,
    variables: tuple[str, ...],
) -> dict:
    """Chunk-level Steps 1–3: the columnar kernel on the full chain,
    seeded by one chunk of seed objects."""
    # Chaos hook: "kill" SIGKILLs this worker mid-chunk (breaking the
    # whole pool, as a real crash would); "sleep" models a straggler.
    failpoints.fire("worker.chunk")
    from repro.eval.bindings import pack_families
    from repro.perf import columnar
    from repro.perf.graph_index import graph_index_for

    if mode not in ("families", "points"):
        raise EvaluationError(f"unknown process-backend output mode {mode!r}")
    # The index rides on the graph object, so evicting the registry
    # entry releases graph and index together.
    index = graph_index_for(_worker_graph(token, payload, store))
    start = time.perf_counter()
    data, frontier_rows, merged = columnar.run_query(
        index.columnar_context(),
        columnar.plan_query(chain),
        variables,
        mode,
        seeds=seeds,
    )
    return {
        "pid": os.getpid(),
        "data": pack_families(data) if mode == "families" else list(data.rows),
        "frontier_rows": frontier_rows,
        "rows_merged": merged,
        "chain_seconds": time.perf_counter() - start,
    }


#: Fork-visible indirection: tests monkeypatch this to inject worker
#: faults (the submitted ``_execute_chunk`` pickles by name, so a
#: patched module global survives into fork-started children).
_chunk_runner = _run_chunk


def _execute_chunk(*args) -> dict:
    return _chunk_runner(*args)
