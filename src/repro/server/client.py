"""A small blocking client for the always-on query service, with failover.

Speaks the JSON-lines protocol of :mod:`repro.server.protocol` over one
TCP connection at a time, drawn from a list of candidate endpoints
(primary + standbys).  Failed requests raise: ``Overloaded`` responses
map to :class:`repro.errors.Overloaded` (back off and retry),
``NotPrimary`` to :class:`repro.errors.NotPrimary` (carrying the
primary's address), a dead or draining server to
:class:`repro.errors.ConnectionClosed`, everything else to
:class:`repro.errors.ServerError` with the server-reported ``kind``.

Failover semantics — deliberately asymmetric:

* **Idempotent ops** (``ping``, ``graphs``, ``stats``, ``health``,
  ``query``, ``table``) are retried transparently: on connection loss
  the client rotates to the next endpoint under the capped backoff of
  its :class:`~repro.resilience.retry.RetryPolicy` and re-sends.  A
  read that lands on a standby is a feature, not a bug — the answer
  carries its replication lag.
* **Write ops** (``apply_delta``, ``register``) are *never* blindly
  re-sent after a connection drop (the first send may have applied).
  What the client does do is route them: a ``NotPrimary`` rejection
  re-resolves the primary — via the rejection's structured ``primary``
  field and the cheap ``health`` op across all endpoints — and retries
  there, which is exactly the window in which a standby promotes.

The client is intentionally not thread-safe — requests on one
connection are strictly in-order; use one client per thread.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Iterable, Optional, Union

from repro.errors import ConnectionClosed, NotPrimary, Overloaded, ServerError
from repro.resilience.retry import RetryPolicy
from repro.server.protocol import decode, encode

#: Ops safe to re-send after a connection drop (no state mutated).
IDEMPOTENT_OPS = frozenset({"ping", "graphs", "stats", "health", "query", "table"})

Endpoint = tuple[str, int]


def _parse_endpoint(value: Union[str, Endpoint, list]) -> Endpoint:
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return str(value[0]), int(value[1])
    text = str(value)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ServerError(f"endpoint {value!r} is not 'host:port'")
    try:
        return host, int(port)
    except ValueError:
        raise ServerError(f"endpoint {value!r} has a non-numeric port")


class ServerClient:
    """A failover-aware connection to one or more query servers.

    Accepts the single-server form used everywhere pre-replication::

        ServerClient("127.0.0.1", 4400)

    or a candidate list (primary first, by convention)::

        ServerClient(["127.0.0.1:4400", "127.0.0.1:4401"])
        ServerClient("127.0.0.1:4400,127.0.0.1:4401")

    The connection is established lazily on the first request and
    re-established (rotating through endpoints with capped backoff) on
    loss.
    """

    def __init__(
        self,
        endpoints: Union[str, Iterable],
        port: Optional[int] = None,
        *,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if port is not None:
            parsed = [(str(endpoints), int(port))]
        elif isinstance(endpoints, str):
            parsed = [_parse_endpoint(part) for part in endpoints.split(",") if part.strip()]
        else:
            parsed = [_parse_endpoint(entry) for entry in endpoints]
        if not parsed:
            raise ServerError("ServerClient needs at least one endpoint")
        self._endpoints: list[Endpoint] = parsed
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy(
            retries=5, base_delay=0.05, max_delay=1.0
        )
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._current = 0

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    @property
    def endpoints(self) -> tuple[Endpoint, ...]:
        return tuple(self._endpoints)

    @property
    def connected_to(self) -> Optional[Endpoint]:
        """The endpoint of the live connection, if any."""
        return self._endpoints[self._current] if self._socket is not None else None

    def _connect(self) -> None:
        """Ensure a live connection, rotating endpoints with backoff."""
        if self._socket is not None:
            return
        delays = self._retry.delays()
        while True:
            for offset in range(len(self._endpoints)):
                index = (self._current + offset) % len(self._endpoints)
                try:
                    sock = socket.create_connection(
                        self._endpoints[index], timeout=self._timeout
                    )
                except OSError:
                    continue
                self._socket = sock
                self._reader = sock.makefile("rb")
                self._current = index
                return
            try:
                time.sleep(next(delays))
            except StopIteration:
                raise ConnectionClosed(
                    "no endpoint reachable: "
                    + ", ".join(f"{h}:{p}" for h, p in self._endpoints)
                )

    def _drop(self) -> None:
        """Discard the current connection (it can no longer be trusted)."""
        reader, sock = self._reader, self._socket
        self._reader = self._socket = None
        try:
            if reader is not None:
                reader.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def _point_at(self, address: str) -> None:
        """Prefer ``address`` (host:port) for the next connection."""
        endpoint = _parse_endpoint(address)
        if endpoint not in self._endpoints:
            self._endpoints.append(endpoint)
        self._current = self._endpoints.index(endpoint)

    def resolve_primary(self) -> Optional[str]:
        """Ask every endpoint's ``health`` op who accepts writes now."""
        for host, port in list(self._endpoints):
            try:
                with socket.create_connection(
                    (host, port), timeout=min(self._timeout, 2.0)
                ) as probe:
                    probe.sendall(encode({"op": "health"}))
                    line = probe.makefile("rb").readline()
                if not line:
                    continue
                response = decode(line)
                report = response.get("result", {}) if response.get("ok") else {}
                if report.get("role") == "primary" and report.get("status") == "ready":
                    return str(report.get("address") or f"{host}:{port}")
            except (OSError, ValueError):
                continue
        return None

    # ------------------------------------------------------------------ #
    # Core request/response
    # ------------------------------------------------------------------ #
    def request(self, op: str, **fields: Any) -> dict:
        """Send one request, wait for its response line, unwrap errors.

        Idempotent ops transparently fail over; writes re-route to the
        current primary on ``NotPrimary`` but surface
        :class:`ConnectionClosed` rather than re-sending blind.
        """
        payload = {"op": op}
        payload.update({k: v for k, v in fields.items() if v is not None})
        attempts = self._retry.delays()
        while True:
            try:
                self._connect()
                return self._roundtrip(payload)
            except ConnectionClosed:
                self._drop()
                if op not in IDEMPOTENT_OPS:
                    raise
                # Rotate away from the dead endpoint before the retry.
                self._current = (self._current + 1) % len(self._endpoints)
                delay = next(attempts, None)
                if delay is None:  # retry budget spent
                    raise
                time.sleep(delay)
            except NotPrimary as error:
                # A standby refused a write: re-resolve who the primary
                # is (promotion may be mid-flight) and retry there.
                self._drop()
                target = self.resolve_primary() or error.primary
                if target is not None:
                    self._point_at(target)
                delay = next(attempts, None)
                if delay is None:
                    raise
                time.sleep(delay)

    def _roundtrip(self, payload: dict) -> dict:
        assert self._socket is not None and self._reader is not None
        try:
            self._socket.sendall(encode(payload))
            line = self._reader.readline()
        except OSError as error:
            raise ConnectionClosed(f"connection lost mid-request: {error}")
        if not line:
            raise ConnectionClosed(
                "server closed the connection without answering"
            )
        try:
            response = decode(line)
        except ValueError:
            # A truncated line is a server dying mid-write, not a
            # protocol bug worth a JSONDecodeError traceback.
            raise ConnectionClosed("server sent a truncated response line")
        if response.get("ok"):
            return response
        error = response.get("error", {})
        kind = error.get("type", "ServerError")
        message = error.get("message", "request failed")
        if kind == "Overloaded":
            raise Overloaded(message)
        if kind == "NotPrimary":
            raise NotPrimary(
                message, primary=(error.get("data") or {}).get("primary")
            )
        raise ServerError(message, kind=kind)

    # ------------------------------------------------------------------ #
    # Convenience ops
    # ------------------------------------------------------------------ #
    def ping(self) -> dict:
        return self.request("ping")["result"]

    def graphs(self) -> list:
        return self.request("graphs")["result"]

    def stats(self) -> dict:
        return self.request("stats")["result"]

    def health(self) -> dict:
        return self.request("health")["result"]

    def query(
        self,
        text: str,
        *,
        graph: str = "default",
        deadline: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Evaluate ``text`` (a MATCH clause or paper-query name).

        Returns the full response envelope — ``response["result"]``
        holds the answer, ``response["server"]`` the epoch / plan-cache
        outcome / timing (plus replication lag when a standby answered).
        """
        return self.request(
            "query",
            graph=graph,
            query=text,
            deadline=deadline,
            limit=limit,
        )

    def register(self, text: str, *, graph: str = "default", name: Optional[str] = None) -> dict:
        return self.request("register", graph=graph, query=text, name=name)

    def table(self, name: str, *, graph: str = "default", limit: Optional[int] = None) -> dict:
        return self.request("table", graph=graph, name=name, limit=limit)

    def apply_delta(self, batch: dict, *, graph: str = "default") -> dict:
        return self.request("apply_delta", graph=graph, batch=batch)

    def shutdown(self) -> dict:
        return self.request("shutdown")["result"]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
