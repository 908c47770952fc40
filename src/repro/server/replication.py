"""WAL-shipping replication: hot standbys, heartbeats, promotion.

The serving layer's answer to process death: a **primary** ``repro
serve`` ships every applied delta record to subscribed **standbys**,
which keep the same graph, compiled index, plan cache and registered
queries warm — so when the primary dies, a standby promotes in bounded
time instead of a client waiting out a cold restart.

Design — one mechanism, reused end to end:

* The shipped unit is the WAL frame ``{seq, crc, batch}`` of
  :mod:`repro.resilience.wal` — byte-identical to what the primary's
  on-disk log records.  A standby verifies a shipped frame exactly the
  way crash recovery verifies a stored record, and applies it through
  the normal :meth:`~repro.server.state.GraphHost.apply_frame` path, so
  epoch labelling works unchanged.  A promoted
  standby therefore answers *epoch-identically* to a never-crashed
  primary through the last record it applied.
* Subscription rides the existing JSON-lines protocol: a standby sends
  ``{"op": "replicate.subscribe", "graph": ..., "from_seq": N}`` and the
  connection switches to streaming mode — the primary pushes ``record``
  / ``heartbeat`` / ``close`` frames, the standby pushes
  ``replicate.ack`` lines back.  Catch-up comes from the primary's own
  WAL (which is why subscribing requires one), live records from the
  per-host ``on_applied`` tap; frames are deduplicated by sequence so
  the race between the catch-up scan and live publication is harmless.
* **Promotion** is driven by liveness, not configuration: the standby
  counts any frame (record or heartbeat) as contact, and on sustained
  loss — no contact for ``failover_after`` seconds across reconnect
  attempts — it *fences* (records the dead primary's address and the
  last sequence it applied, the boundary of what it can have seen) and
  promotes: role flips to primary, writes are accepted, and its own
  subscribers keep flowing.  A primary that drains gracefully sends a
  ``close`` frame, which hands off immediately instead of waiting out
  the timeout.

Protocol invariants, in one place (the chaos suite's checklist):

1. **Frame identity** — a shipped frame is byte-identical to the
   primary's on-disk WAL record for the same sequence; CRC verification
   is the same code on both paths.
2. **Sequences are dense and monotonic per graph**; a standby applies
   frame *n+1* only after *n*.  Duplicate sequences (catch-up racing
   live publication) are dropped by the primary's send loop; one that
   still reaches a standby is refused (invariant 6), never re-applied.
3. **Acks trail applies** — ``replicate.ack`` is sent only after
   :meth:`~repro.server.state.GraphHost.apply_frame` succeeds, so the
   primary's per-subscriber ``lag`` (``last_seq - acked``) never
   understates how far behind a standby really is.
4. **Fencing bounds the promoted history** — a promoting standby
   records the dead primary's address and the last sequence it
   applied *before* accepting writes; answers it serves afterwards are
   epoch-identical to the old primary's through that boundary.
5. **Graceful beats the timeout** — a draining primary's ``close``
   frame hands off immediately; the ``failover_after`` window exists
   only for the crash case.
6. **Refusal ends the session, never the standby** — a frame the standby
   cannot verify is not applied: the session ends and the standby
   resubscribes from its own ``wal_seq``, so the primary's catch-up
   resends the intact record.  A refused frame still counts as contact,
   so a live primary is never failed over (no split brain).

Failpoints: ``replicate.ship`` fires before each record frame leaves the
primary (a ``kill`` spec is the chaos suite's deterministic
"primary dies mid-stream"), ``replicate.apply`` before a standby applies
a shipped frame (``sleep`` manufactures replication lag on demand).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ServerError, WALCorruptError
from repro.resilience import failpoints
from repro.resilience.wal import record_frame, scan_wal
from repro.server.protocol import (
    PROTOCOL_VERSION,
    check_fields,
    decode,
    encode,
    error_response,
    is_count,
    ok_response,
)

#: Default seconds between heartbeat frames on an idle subscription.
HEARTBEAT_INTERVAL = 1.0
#: Default sustained-loss window before a standby promotes.
FAILOVER_AFTER = 5.0


@dataclass
class _Subscriber:
    """One subscribed standby connection on the primary."""

    graph: str
    peer: str
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    #: Highest sequence actually written to this subscriber.
    last_sent: int = 0
    #: Highest sequence the standby acknowledged as applied.
    acked: int = 0

    def to_dict(self, last_seq: int) -> dict:
        return {
            "peer": self.peer,
            "last_sent": self.last_sent,
            "acked_seq": self.acked,
            "lag": max(0, last_seq - self.acked),
        }


class ReplicationHub:
    """Primary-side fan-out of applied WAL frames to subscribed standbys.

    Owned by the :class:`~repro.server.service.QueryServer`; lives on its
    event loop.  Publication is thread-safe: the per-host ``on_applied``
    tap fires on an executor thread under the exclusive host lock and
    bounces the frame onto the loop with ``call_soon_threadsafe``, so
    subscribers observe frames in apply order.
    """

    def __init__(
        self,
        state,
        *,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        status: Optional[Callable[[], str]] = None,
    ) -> None:
        self._state = state
        self._heartbeat = heartbeat_interval
        self._status = status or (lambda: "ready")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._subscribers: dict[str, list[_Subscriber]] = {}
        self._shipped = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the hub to ``loop`` and tap every resident host."""
        self._loop = loop
        for name, host in self._state.hosts.items():
            host.on_applied.append(self._tap(name, "record"))
            host.on_registered.append(self._register_tap(name))

    def _tap(self, graph: str, kind: str):
        def on_applied(frame: dict) -> None:
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(self._publish, graph, kind, frame)

        return on_applied

    def _register_tap(self, graph: str):
        def on_registered(name: str, text: str) -> None:
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(
                    self._publish, graph, "register", {"name": name, "query": text}
                )

        return on_registered

    def _publish(self, graph: str, kind: str, payload: dict) -> None:
        for subscriber in self._subscribers.get(graph, ()):
            subscriber.queue.put_nowait((kind, payload))

    def _last_seq(self, graph: str) -> int:
        host = self._state.hosts.get(graph)
        return 0 if host is None else host.session.wal_seq

    # ------------------------------------------------------------------ #
    # Subscription serving (takes over the connection)
    # ------------------------------------------------------------------ #
    async def serve_subscriber(
        self, request: dict, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one ``replicate.subscribe`` connection until it drops.

        The service has already checked the request's fields
        (:func:`~repro.server.protocol.check_fields`): ``graph`` is a
        string and ``from_seq``, when present, an integer >= 0.
        """
        graph = request.get("graph", "default")
        host = self._state.hosts.get(graph)
        if host is None:
            writer.write(
                encode(error_response(f"graph {graph!r} is not resident", request=request))
            )
            await writer.drain()
            return
        wal = host.session.wal
        if wal is None:
            writer.write(
                encode(
                    error_response(
                        "replication requires a WAL on the primary "
                        "(start it with --wal so standbys can catch up)",
                        kind="ServerError",
                        request=request,
                    )
                )
            )
            await writer.drain()
            return
        from_seq = request.get("from_seq", 0)
        peername = writer.get_extra_info("peername")
        peer = str(request.get("standby") or (f"{peername[0]}:{peername[1]}" if peername else "?"))
        subscriber = _Subscriber(graph=graph, peer=peer, last_sent=from_seq, acked=from_seq)
        # Register BEFORE the catch-up scan: records applied while we read
        # the WAL buffer in the queue, and the sequence dedup below drops
        # whatever both paths deliver.
        self._subscribers.setdefault(graph, []).append(subscriber)
        try:
            writer.write(
                encode(
                    ok_response(
                        {
                            "protocol": PROTOCOL_VERSION,
                            "graph": graph,
                            "from_seq": from_seq,
                            "last_seq": wal.last_seq,
                            "heartbeat_interval": self._heartbeat,
                            # Registrations are not WAL records, so the
                            # subscribe handshake carries the current set
                            # (live changes follow as `register` frames).
                            "queries": host.registered_queries(),
                        },
                        request=request,
                    )
                )
            )
            await writer.drain()
            await self._catch_up(subscriber, wal.path, from_seq, writer)
            sender = asyncio.create_task(self._send_loop(subscriber, writer))
            acker = asyncio.create_task(self._ack_loop(subscriber, reader))
            done, pending = await asyncio.wait(
                {sender, acker}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            for task in done:
                # Surface unexpected sender/acker failures (connection
                # errors are swallowed inside the loops themselves).
                exc = task.exception()
                if exc is not None and not isinstance(exc, (ConnectionError, OSError)):
                    raise exc
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                self._subscribers.get(graph, []).remove(subscriber)
            except ValueError:
                pass

    async def _catch_up(
        self,
        subscriber: _Subscriber,
        wal_path: str,
        from_seq: int,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Ship the WAL records the standby is missing, oldest first."""
        loop = asyncio.get_running_loop()
        scan = await loop.run_in_executor(None, scan_wal, wal_path)
        for record in scan.records:
            if record.seq <= from_seq:
                continue
            await self._ship(
                subscriber, writer, record_frame(record.seq, record.batch.to_json_dict())
            )

    async def _ship(
        self, subscriber: _Subscriber, writer: asyncio.StreamWriter, frame: dict
    ) -> None:
        failpoints.fire("replicate.ship")
        writer.write(encode({"kind": "record", "frame": frame}))
        await writer.drain()
        subscriber.last_sent = int(frame["seq"])
        self._shipped += 1

    async def _send_loop(
        self, subscriber: _Subscriber, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                item = await asyncio.wait_for(
                    subscriber.queue.get(), timeout=self._heartbeat
                )
            except asyncio.TimeoutError:
                writer.write(
                    encode(
                        {
                            "kind": "heartbeat",
                            "last_seq": self._last_seq(subscriber.graph),
                            "status": self._status(),
                        }
                    )
                )
                await writer.drain()
                continue
            kind, payload = item
            if kind == "close":
                writer.write(
                    encode(
                        {
                            "kind": "close",
                            "reason": payload,
                            "last_seq": self._last_seq(subscriber.graph),
                        }
                    )
                )
                await writer.drain()
                return
            if kind == "register":
                writer.write(encode({"kind": "register", **payload}))
                await writer.drain()
                continue
            frame = payload
            if int(frame["seq"]) <= subscriber.last_sent:
                continue  # already delivered by the catch-up scan
            await self._ship(subscriber, writer, frame)

    async def _ack_loop(
        self, subscriber: _Subscriber, reader: asyncio.StreamReader
    ) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return  # standby hung up
            try:
                message = decode(line)
                check_fields(message)
            except ValueError:
                return  # bad framing ends the stream; the standby resubscribes
            if message.get("op") == "replicate.ack":
                subscriber.acked = max(subscriber.acked, message.get("seq", 0))

    # ------------------------------------------------------------------ #
    # Lifecycle + observability
    # ------------------------------------------------------------------ #
    async def close_all(self, reason: str) -> None:
        """Notify every subscriber the primary is going away (drain)."""
        subscribers = [s for subs in self._subscribers.values() for s in subs]
        for subscriber in subscribers:
            subscriber.queue.put_nowait(("close", reason))
        # Give the senders one scheduling round to flush the close frames
        # (each close exits its send loop; pending records precede it in
        # the queue, so nothing applied is silently dropped).
        for _ in range(50):
            if not any(subs for subs in self._subscribers.values()):
                break
            await asyncio.sleep(0.01)

    def stats(self) -> dict:
        graphs = {}
        for graph, subscribers in self._subscribers.items():
            last_seq = self._last_seq(graph)
            graphs[graph] = {
                "last_seq": last_seq,
                "standbys": [s.to_dict(last_seq) for s in subscribers],
            }
        return {"shipped": self._shipped, "graphs": graphs}


class StandbyRunner:
    """Standby-side replication client: subscribe, apply, ack, promote.

    Runs as asyncio tasks on the standby server's loop — one replication
    task per resident graph plus one liveness monitor.  Any frame from
    the primary (record or heartbeat, on any graph) counts as *contact*;
    when contact is lost for ``failover_after`` seconds straight (read
    timeouts, refused reconnects), the monitor fences and promotes the
    server.  A graceful ``close`` frame from a draining primary promotes
    immediately.
    """

    def __init__(
        self,
        server,
        state,
        primary: tuple[str, int],
        *,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        failover_after: float = FAILOVER_AFTER,
    ) -> None:
        if failover_after <= 0:
            raise ServerError(f"failover_after must be positive, got {failover_after}")
        self._server = server
        self._state = state
        self._primary = primary
        self._heartbeat = heartbeat_interval
        self._failover_after = failover_after
        self._tasks: list[asyncio.Task] = []
        self._stopped = False
        self._promoted = False
        self._last_contact = time.monotonic()
        #: Per-graph view of the primary's WAL position (heartbeats and
        #: shipped records both advance it).
        self._primary_seq: dict[str, int] = {}
        self._caught_up: set[str] = set()
        self.fence: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        for name in self._state.hosts:
            self._tasks.append(asyncio.create_task(self._replicate_graph(name)))
        self._tasks.append(asyncio.create_task(self._monitor()))

    async def stop(self) -> None:
        self._stopped = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []

    @property
    def primary_address(self) -> str:
        return f"{self._primary[0]}:{self._primary[1]}"

    @property
    def promoted(self) -> bool:
        return self._promoted

    def lag(self) -> dict:
        """Per-graph replication lag: shipped-vs-applied WAL positions."""
        graphs = {}
        for name, host in self._state.hosts.items():
            applied = host.session.wal_seq
            primary_seq = max(self._primary_seq.get(name, 0), applied)
            graphs[name] = {
                "applied_seq": applied,
                "primary_seq": primary_seq,
                "lag": max(0, primary_seq - applied),
            }
        return graphs

    # ------------------------------------------------------------------ #
    # Replication protocol (one connection per graph)
    # ------------------------------------------------------------------ #
    async def _replicate_graph(self, name: str) -> None:
        host = self._state.hosts[name]
        backoff = min(0.2, self._heartbeat)
        while not self._stopped and not self._promoted:
            try:
                await self._stream_once(name, host)
            except asyncio.CancelledError:
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError, ValueError, WALCorruptError):
                # A dropped session or a refused frame: either way the
                # standby resubscribes from its own ``wal_seq``.
                pass
            if self._stopped or self._promoted:
                return
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, self._failover_after / 2, 2.0)

    async def _stream_once(self, name: str, host) -> None:
        """One subscribe-and-apply session; returns/raises on disconnect."""
        reader, writer = await asyncio.open_connection(*self._primary)
        try:
            self._touch()
            writer.write(
                encode(
                    {
                        "op": "replicate.subscribe",
                        "graph": name,
                        "from_seq": host.session.wal_seq,
                        "standby": self._server.address if self._server else None,
                    }
                )
            )
            await writer.drain()
            line = await asyncio.wait_for(
                reader.readline(), timeout=self._failover_after
            )
            if not line:
                return
            response = decode(line)
            if not response.get("ok"):
                # The peer refused (not primary / no WAL / unknown graph):
                # keep retrying — it may become subscribeable (e.g. it is
                # itself still recovering) — but do not count the refusal
                # as lost contact; the process is alive.
                self._touch()
                return
            result = response.get("result")
            if not isinstance(result, dict):
                raise WALCorruptError("malformed replication handshake")
            self._note_primary_seq(name, _position(result.get("last_seq", 0)))
            loop = asyncio.get_running_loop()
            await self._mirror_queries(loop, host, result.get("queries") or {})
            while not self._stopped and not self._promoted:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self._failover_after
                )
                if not line:
                    return  # primary hung up without a close frame
                seq = await self._on_frame(loop, name, host, line)
                if seq is not None:
                    writer.write(encode({"op": "replicate.ack", "seq": seq}))
                    await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _on_frame(self, loop, name: str, host, line: bytes) -> Optional[int]:
        """Handle one line from the primary; returns the sequence to ack.

        Raises :class:`~repro.errors.WALCorruptError` (invariant 6) for a
        line it cannot verify: not a JSON object, a record whose ``seq``
        is not an integer >= 0 or does not follow the applied one or
        whose checksum fails, a position or registration of the wrong type.
        """
        try:
            message = decode(line)
        except ValueError as error:
            raise WALCorruptError(f"undecodable replication frame: {error}") from None
        self._touch()
        kind = message.get("kind")
        if kind == "record":
            frame = message.get("frame")
            seq = _position(frame.get("seq") if isinstance(frame, dict) else None)
            applied = host.session.wal_seq
            if seq != applied + 1:
                # The primary never sends a duplicate (its send loop drops
                # what the catch-up shipped), so this is a gap or a seq
                # damaged in flight: refill from the catch-up.
                raise WALCorruptError(f"replication record {seq} after {applied}")
            failpoints.fire("replicate.apply")
            await loop.run_in_executor(None, host.apply_frame, frame)
            self._note_primary_seq(name, seq)
            return seq
        if kind == "heartbeat":
            self._note_primary_seq(name, _position(message.get("last_seq", 0)))
        elif kind == "register":
            query = message.get("name")
            queries = {query: message.get("query")} if isinstance(query, str) else None
            await self._mirror_queries(loop, host, queries)
        elif kind == "close":
            # Graceful drain: every applied record preceded this frame on
            # the wire, so hand off immediately.
            self._promote(f"primary drained ({message.get('reason')})")
        return None

    async def _mirror_queries(self, loop, host, queries) -> None:
        """Register the primary's continuously-answered queries locally."""
        if not isinstance(queries, dict) or not all(
            isinstance(text, str) for text in queries.values()
        ):
            raise WALCorruptError(f"malformed query registrations {queries!r:.80}")
        for name, text in queries.items():
            if not name or not text or name in host.session.query_names():
                continue
            await loop.run_in_executor(
                None, lambda n=name, t=text: host.register(t, name=n)
            )

    # ------------------------------------------------------------------ #
    # Liveness + promotion
    # ------------------------------------------------------------------ #
    def _touch(self) -> None:
        self._last_contact = time.monotonic()

    def _note_primary_seq(self, name: str, seq: int) -> None:
        self._primary_seq[name] = max(self._primary_seq.get(name, 0), seq)
        host = self._state.hosts.get(name)
        if (
            host is not None
            and name not in self._caught_up
            and host.session.wal_seq >= self._primary_seq[name]
        ):
            self._caught_up.add(name)
            if self._server is not None and len(self._caught_up) == len(
                self._state.hosts
            ):
                self._server.note_caught_up()

    async def _monitor(self) -> None:
        """Promote on sustained loss of contact with the primary."""
        while not self._stopped and not self._promoted:
            await asyncio.sleep(min(self._heartbeat, self._failover_after) / 2)
            if time.monotonic() - self._last_contact > self._failover_after:
                self._promote(
                    f"no contact with primary {self.primary_address} for "
                    f"{self._failover_after:.1f}s"
                )
                return

    def _promote(self, reason: str) -> None:
        if self._promoted or self._stopped:
            return
        self._promoted = True
        # Fence first: record the dead primary and the exact boundary of
        # what this standby can have seen from it.  Records beyond the
        # fence existed (if at all) only on the dead primary's disk and
        # are recovered by restarting it as a standby of the new primary.
        self.fence = {
            "previous_primary": self.primary_address,
            "fence_seq": {
                name: host.session.wal_seq for name, host in self._state.hosts.items()
            },
            "reason": reason,
        }
        if self._server is not None:
            self._server.promote(self.fence)
        for task in self._tasks:
            if task is not asyncio.current_task():
                task.cancel()


def _position(value) -> int:
    """A WAL position from the primary; anything else refuses the frame."""
    if not is_count(value):
        raise WALCorruptError(f"replication position {value!r:.80} is not an integer >= 0")
    return value
