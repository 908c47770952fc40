"""The always-on query service: asyncio TCP front, warm engines behind.

Architecture
------------

One asyncio event loop accepts connections and frames requests (JSON
lines, see :mod:`repro.server.protocol`).  Cheap control ops (``ping``,
``graphs``, ``stats``, ``health``, ``shutdown``) answer inline on the
loop.  Heavy ops (``query``, ``register``, ``table``, ``apply_delta``)
are pushed to a thread-pool executor sized to ``max_concurrency`` — the
engines are synchronous, so the loop never blocks on evaluation — nor
on encoding an answer, which arrives as
:class:`~repro.server.protocol.Encoded` bytes to splice into an envelope.

Backpressure is admission control, not queueing: when
``max_concurrency`` requests are executing and ``max_queue`` more are
waiting, further heavy requests are rejected *immediately* with an
``Overloaded`` error rather than admitted to an unbounded queue.
Clients see the rejection in bounded time and can back off; latency for
admitted requests stays predictable.

Consistency: reads on one graph (``query``, ``table``) share the host
lock and overlap; writes (``apply_delta``, ``register``) hold it alone
(see :mod:`repro.server.state`).  So concurrent clients interleaved
with delta writers always observe a clean pre- or post-batch state, and
every answer carries the epoch it was computed at.  A failure that is
not a :class:`~repro.errors.ReproError` still answers the client, and
its traceback goes to the ``repro.server`` logger with the request id.

Lifecycle and roles (see :mod:`repro.server.replication`)
---------------------------------------------------------

A server is born a **primary** (role ``primary``, status ``ready``) or —
with ``standby_of`` — a **standby**: status ``recovering`` until it has
caught up with the primary's WAL position, then ``standby``.  A standby
serves read-only ops (every answer labelled with its replication lag)
and refuses :data:`~repro.server.protocol.WRITE_OPS` with a structured
``NotPrimary`` naming the primary; on sustained loss of the primary it
fences and **promotes** (role flips to primary, writes open up).

Shutdown is a *drain*, whatever triggers it (``shutdown`` op, SIGTERM,
SIGINT, :meth:`QueryServer.request_drain`): the listener closes first,
in-flight requests finish and their responses reach the socket within
``drain_timeout``, subscribed standbys get a ``close`` frame (their cue
to promote immediately), and only then do connections and the executor
tear down; closing the state last writes every host's checkpoint
(:meth:`~repro.server.state.GraphHost.close`).  Status reads
``draining`` throughout, and the cheap
``health`` op reports ``recovering | ready | draining | standby`` for
orchestrators and failover clients.
"""

from __future__ import annotations

import asyncio
import logging
import math
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import NotPrimary, Overloaded, ReproError, ServerError
from repro.server.protocol import (
    OPS,
    PROTOCOL_VERSION,
    WRITE_OPS,
    check_fields,
    decode,
    encode,
    error_response,
    is_count,
    ok_response,
)
from repro.server.replication import (
    FAILOVER_AFTER,
    HEARTBEAT_INTERVAL,
    ReplicationHub,
    StandbyRunner,
)
from repro.server.state import ServerState

_log = logging.getLogger("repro.server")

#: Ops answered inline on the event loop (no executor round-trip).
_CHEAP_OPS = frozenset({"ping", "graphs", "stats", "health", "shutdown"})

#: The longest request line the server will frame (64 MiB) — a delta
#: batch for a large graph fits comfortably; anything bigger is a
#: malformed or hostile client.
_LINE_LIMIT = 64 * 1024 * 1024


class QueryServer:
    """The asyncio service wrapping one :class:`ServerState`."""

    def __init__(
        self,
        state: ServerState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 4,
        max_queue: int = 16,
        standby_of: Optional[tuple[str, int]] = None,
        drain_timeout: float = 10.0,
        idle_timeout: Optional[float] = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        failover_after: float = FAILOVER_AFTER,
    ) -> None:
        if max_concurrency < 1:
            raise ServerError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_queue < 0:
            raise ServerError(f"max_queue must be >= 0, got {max_queue}")
        if drain_timeout <= 0:
            raise ServerError(f"drain_timeout must be positive, got {drain_timeout}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ServerError(f"idle_timeout must be positive, got {idle_timeout}")
        self.state = state
        self.host = host
        self.port = port  # rewritten with the bound port once serving
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.standby_of = standby_of
        self.drain_timeout = drain_timeout
        self.idle_timeout = idle_timeout
        self.role = "primary" if standby_of is None else "standby"
        #: ``recovering | ready | draining | standby`` (the ``health`` op).
        self.status = "ready" if standby_of is None else "recovering"
        self.fence: Optional[dict] = None
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self._waiting = 0
        self._rejected = 0
        self._requests = 0
        self._inflight = 0
        self._idle_closed = 0
        self._drains = 0
        self._drain_reason: Optional[str] = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-server"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self.replication = ReplicationHub(
            state, heartbeat_interval=heartbeat_interval, status=lambda: self.status
        )
        self._standby: Optional[StandbyRunner] = None
        self._failover_after = failover_after
        self._heartbeat_interval = heartbeat_interval

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.replication.bind(asyncio.get_running_loop())
        if self.standby_of is not None:
            self._standby = StandbyRunner(
                self,
                self.state,
                self.standby_of,
                heartbeat_interval=self._heartbeat_interval,
                failover_after=self._failover_after,
            )
            self._standby.start()

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`request_drain`)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self._close()

    def request_drain(self, reason: str = "shutdown requested") -> None:
        """Begin the graceful drain (idempotent; also the shutdown path)."""
        if not self._shutdown.is_set():
            self._drains += 1
            self._drain_reason = reason
            self.status = "draining"
        self._shutdown.set()

    # Kept as an alias: every shutdown is a drain (tests and the
    # BackgroundServer harness call this).
    def request_shutdown(self) -> None:
        self.request_drain()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def primary_address(self) -> Optional[str]:
        """Where writes go: this server if primary, else its upstream."""
        if self.role == "primary" or self.standby_of is None:
            return self.address
        return f"{self.standby_of[0]}:{self.standby_of[1]}"

    # Called by the StandbyRunner (on the event loop).
    def note_caught_up(self) -> None:
        if self.status == "recovering":
            self.status = "standby"

    def promote(self, fence: dict) -> None:
        """Standby → primary: record the fence, open writes."""
        self.fence = fence
        self.role = "primary"
        if self.status in ("recovering", "standby"):
            self.status = "ready"

    async def _close(self) -> None:
        loop = asyncio.get_running_loop()
        # 1. Stop accepting new connections.
        if self._server is not None:
            self._server.close()
        # 2. Let in-flight requests finish AND answer: the counter wraps
        #    the response write, so a request admitted before the drain
        #    reaches its client before any socket is torn down.
        deadline = loop.time() + self.drain_timeout
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        # 3. Tell subscribed standbys the primary is going away — their
        #    cue to promote immediately instead of waiting out the
        #    failover window.
        await self.replication.close_all(self._drain_reason or "shutdown")
        if self._standby is not None:
            await self._standby.stop()
        # 4. Now the sockets can go; closing the state writes each host's
        #    checkpoint, so the drained state restarts as attach + tail.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        self.state.close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while not self._shutdown.is_set():
                try:
                    if self.idle_timeout is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=self.idle_timeout
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    # Idle reaper: answer with a close frame, then hang
                    # up — the client sees *why* instead of a bare RST.
                    self._idle_closed += 1
                    writer.write(
                        encode(
                            error_response(
                                f"closing idle connection (no request in "
                                f"{self.idle_timeout:g}s)",
                                kind="ProtocolError",
                            )
                        )
                    )
                    await writer.drain()
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode(error_response("request line too long", kind="ProtocolError"))
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode(line)
                    check_fields(request)
                except ValueError as error:
                    writer.write(encode(error_response(error, kind="ProtocolError")))
                    await writer.drain()
                    continue
                if request.get("op") == "replicate.subscribe":
                    # The connection leaves request/response framing and
                    # becomes a replication stream until it drops (idle
                    # timeouts do not apply: heartbeats keep it live).
                    await self.replication.serve_subscriber(request, reader, writer)
                    break
                self._inflight += 1
                try:
                    response = await self._respond(request)
                    writer.write(encode(response))
                    await writer.drain()
                finally:
                    self._inflight -= 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # Server teardown cancels connection tasks mid-close; a
                # cancelled close is a closed connection, not an error.
                pass

    async def _respond(self, request: dict) -> dict:
        try:
            return await self._dispatch(request)
        except Exception as error:  # noqa: BLE001 — every failure answers the client
            if not isinstance(error, ReproError):
                # The wire says only "internal error (Type)"; keep the
                # traceback where an operator can find it.
                _log.exception(
                    "request id=%r op=%r failed unexpectedly",
                    request.get("id"),
                    request.get("op"),
                )
            return error_response(error, request=request)

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op not in OPS:
            raise ServerError(
                f"unknown op {op!r} (expected one of: {', '.join(OPS)})",
                kind="ProtocolError",
            )
        if op == "replicate.ack":
            raise ServerError(
                "replicate.ack is only valid on a subscribed replication stream",
                kind="ProtocolError",
            )
        self._requests += 1
        if op in _CHEAP_OPS:
            return self._control(op, request)
        if op in WRITE_OPS and self.role != "primary":
            raise NotPrimary(
                f"this server is a read-only standby; send writes to the "
                f"primary at {self.primary_address}",
                primary=self.primary_address,
            )
        # Admission control: reject before joining the wait queue.
        if self._semaphore.locked() and self._waiting >= self.max_queue:
            self._rejected += 1
            raise Overloaded(
                f"server at capacity ({self.max_concurrency} executing, "
                f"{self._waiting} queued, max_queue={self.max_queue}); retry later"
            )
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        try:
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._executor, self._execute, op, request
            )
        finally:
            self._semaphore.release()
        server = result.get("server")
        if server is not None:
            server = dict(server)
            server["role"] = self.role
            if self._standby is not None and not self._standby.promoted:
                # Standby answers are honest about staleness: the lag
                # between the primary's shipped position and what this
                # replica has applied rides on every response.
                lag = self._standby.lag().get(request.get("graph", "default"))
                if lag is not None:
                    server["replication"] = lag
        return ok_response(result["result"], request=request, server=server)

    # ------------------------------------------------------------------ #
    # Request execution
    # ------------------------------------------------------------------ #
    def _control(self, op: str, request: dict) -> dict:
        if op == "ping":
            return ok_response(
                {"protocol": PROTOCOL_VERSION, "graphs": sorted(self.state.hosts)},
                request=request,
            )
        if op == "graphs":
            return ok_response(sorted(self.state.hosts), request=request)
        if op == "health":
            return ok_response(self.health(), request=request)
        if op == "stats":
            stats = self.state.stats()
            stats["service"] = {
                "requests": self._requests,
                "rejected": self._rejected,
                "inflight": self._inflight,
                "idle_closed": self._idle_closed,
                "drains": self._drains,
                "status": self.status,
                "role": self.role,
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
            }
            stats["replication"] = self.replication.stats()
            if self._standby is not None:
                stats["replication"]["standby"] = {
                    "primary": self.primary_address,
                    "promoted": self._standby.promoted,
                    "lag": self._standby.lag(),
                }
            return ok_response(stats, request=request)
        # op == "shutdown"
        self.request_drain()
        return ok_response({"stopping": True}, request=request)

    def health(self) -> dict:
        """The cheap liveness/role report (also the failover beacon)."""
        report = {
            "status": self.status,
            "role": self.role,
            "protocol": PROTOCOL_VERSION,
            "address": self.address,
            "primary": self.primary_address,
            "epochs": {
                name: host.session.epoch for name, host in self.state.hosts.items()
            },
        }
        if self._standby is not None:
            report["replication"] = self._standby.lag()
        if self.fence is not None:
            report["fence"] = self.fence
        return report

    def _execute(self, op: str, request: dict) -> dict:
        """Run one heavy op on an executor thread (blocking is fine here)."""
        host = self.state.host(request.get("graph", "default"))
        if op in ("query", "table"):
            limit, deadline = _answer_options(request)
        if op == "query":
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                raise ServerError("query op requires a non-empty 'query' string")
            return host.query(text, deadline=deadline, limit=limit)
        if op == "register":
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                raise ServerError("register op requires a non-empty 'query' string")
            return host.register(text, name=request.get("name"))
        if op == "table":
            name = request.get("name")
            if not isinstance(name, str):
                raise ServerError("table op requires a 'name' string")
            return host.table(name, deadline=deadline, limit=limit)
        # op == "apply_delta"
        batch = request.get("batch")
        if not isinstance(batch, dict):
            raise ServerError("apply_delta op requires a 'batch' object")
        return host.apply_delta(batch)


def _answer_options(request: dict) -> tuple:
    """The request's ``(limit, deadline)``, each ``None`` when absent.

    Rejects, as a :class:`ServerError`, a ``limit`` that is not an
    integer >= 0 and a ``deadline`` that is not a finite positive
    number — before either reaches a slice or the kernel.  Unknown
    fields (such as the ``retries`` older clients send) are ignored.
    """
    limit, deadline = request.get("limit"), request.get("deadline")
    if limit is not None and not is_count(limit):
        raise ServerError(f"limit must be an integer >= 0 or null, got {limit!r}")
    if deadline is not None and not (
        isinstance(deadline, (int, float))
        and not isinstance(deadline, bool)
        and 0 < deadline < math.inf
    ):
        raise ServerError(f"deadline must be a positive number, got {deadline!r}")
    return limit, None if deadline is None else float(deadline)


def serve(
    state: ServerState,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    on_listening=None,
    install_signal_handlers: bool = True,
    **options,
) -> None:
    """Run the service on a fresh event loop until shutdown (blocking).

    ``SIGTERM`` and ``SIGINT`` trigger the graceful drain when handlers
    can be installed (the main thread of the serving process — the
    in-process :class:`BackgroundServer` harness runs on a daemon thread,
    where registration is silently skipped).
    """

    async def _run() -> None:
        server = QueryServer(state, host=host, port=port, **options)
        await server.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, server.request_drain, f"signal {sig.name}"
                    )
                except (NotImplementedError, RuntimeError, ValueError):
                    # Not the main thread, or the platform has no
                    # loop-integrated signals: lifecycle still works via
                    # the shutdown op / request_drain().
                    pass
        if on_listening is not None:
            on_listening(server)
        await server.serve_until_shutdown()

    asyncio.run(_run())


class BackgroundServer:
    """The in-process harness tests and benchmarks drive the service with.

    Runs :func:`serve` on a daemon thread and exposes the bound address
    once listening::

        with BackgroundServer(state) as server:
            client = ServerClient(server.host, server.port)
            ...
    """

    def __init__(self, state: ServerState, **options) -> None:
        self._state = state
        self._options = options
        self._ready = threading.Event()
        self._server: Optional[QueryServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        def listening(server: QueryServer) -> None:
            self._server = server
            self._loop = asyncio.get_running_loop()
            self._ready.set()

        try:
            serve(self._state, on_listening=listening, **self._options)
        finally:
            self._ready.set()  # unblock start() even if binding failed

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._server is None:
            raise ServerError("background server failed to start")
        return self

    @property
    def host(self) -> str:
        assert self._server is not None
        return self._server.host

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.port

    @property
    def server(self) -> QueryServer:
        assert self._server is not None
        return self._server

    def stop(self, timeout: float = 30) -> None:
        if self._server is not None and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed: the server is already down
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
