"""Wire protocol of the always-on query service: JSON lines over TCP.

One request per line, one response line per request, in order::

    -> {"op": "query", "graph": "default", "query": "Q1", "deadline": 2.0}
    <- {"ok": true, "result": {...}, "server": {"epoch": 0, "plan": "hit", ...}}

The envelope is deliberately small:

* every request has an ``op`` plus op-specific fields (``id`` is echoed
  back verbatim when present, for clients that pipeline);
* every response is ``{"ok": true, "result": ..., "server": ...}`` or
  ``{"ok": false, "error": {"type": ..., "message": ...}}``;
* the ``server`` section carries the observability fields operators
  need per answer: the graph ``epoch`` the answer was computed at, the
  plan-cache outcome (``"hit"`` / ``"miss"``), and wall-clock seconds.

Serialization helpers here are shared by the asyncio service and the
blocking client, so the two cannot drift.  See RELIABILITY.md for the
full request/response reference and the backpressure semantics.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from repro.errors import ReproError

#: Protocol revision, reported by ``ping``.
PROTOCOL_VERSION = "repro-server/1"

#: Ops the service understands (``serve --help`` and tests key off this).
OPS = (
    "ping",
    "graphs",
    "stats",
    "health",
    "query",
    "register",
    "table",
    "apply_delta",
    "shutdown",
    "replicate.subscribe",
    "replicate.ack",
)

#: Ops that mutate resident state — a standby refuses these with
#: ``NotPrimary`` (reads and control ops stay available everywhere).
WRITE_OPS = frozenset({"apply_delta", "register"})

_WHITESPACE = re.compile(r"\s+")


def normalize_query(text: str) -> str:
    """The plan-cache form of a MATCH clause: trimmed, whitespace-collapsed.

    Paper-query names (``Q1`` … ``Q12``) are resolved to their MATCH
    text first, so ``"Q5"`` and the spelled-out clause share one cache
    entry.  Normalization is purely lexical — it never changes query
    semantics, only collapses formatting noise so equivalent requests
    hit the same compiled plan.
    """
    from repro.dataflow import PAPER_QUERIES

    if text in PAPER_QUERIES:
        text = PAPER_QUERIES[text].text
    return _WHITESPACE.sub(" ", text).strip()


def encode(message: dict) -> bytes:
    """One protocol line, newline-terminated."""
    return (json.dumps(message, separators=(",", ":"), default=str) + "\n").encode(
        "utf-8"
    )


def decode(line: bytes) -> dict:
    """Parse one protocol line; raises :class:`ValueError` on bad framing."""
    try:
        message = json.loads(line.decode("utf-8"))
    except RecursionError:
        # Brackets nested deeper than the interpreter's stack: the line
        # is from outside, so it is bad framing like any other.
        raise ValueError("protocol message is nested too deeply") from None
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages are JSON objects, got {type(message).__name__}")
    return message


def ok_response(
    result: Any, *, request: Optional[dict] = None, server: Optional[dict] = None
) -> dict:
    response: dict[str, Any] = {"ok": True, "result": result}
    if server is not None:
        response["server"] = server
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response


def error_response(
    error: BaseException | str,
    *,
    kind: Optional[str] = None,
    request: Optional[dict] = None,
) -> dict:
    """The ``ok: false`` envelope for a failed request.

    ``type`` is the exception class name (or an explicit ``kind`` such
    as ``"Overloaded"``), which the client maps back onto the
    :class:`~repro.errors.ServerError` hierarchy.  Only
    :class:`~repro.errors.ReproError` messages are forwarded verbatim;
    unexpected exceptions are reported by type alone so internal state
    never leaks onto the wire.
    """
    data: Optional[dict] = None
    if isinstance(error, BaseException):
        error_type = kind or type(error).__name__
        if isinstance(error, (ReproError, ValueError, KeyError, TypeError)):
            message = str(error)
        else:
            message = f"internal error ({type(error).__name__})"
        # Structured redirect context: a NotPrimary rejection names the
        # primary so clients re-route without a discovery round trip.
        primary = getattr(error, "primary", None)
        if primary is not None:
            data = {"primary": primary}
    else:
        error_type = kind or "ServerError"
        message = str(error)
    response: dict[str, Any] = {
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
    if data:
        response["error"]["data"] = data
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response


def families_to_wire(families) -> list:
    """Coalesced ``(bindings, IntervalSet)`` families in JSON form.

    Sorted by binding representation so the wire form is canonical —
    two servers at the same graph state answer byte-identically, which
    is what the divergence checks in the smoke test and the bench rely
    on.
    """
    wire = []
    for bindings, times in families:
        wire.append(
            [
                [[name, obj] for name, obj in bindings],
                [[interval.start, interval.end] for interval in times],
            ]
        )
    wire.sort(key=lambda entry: json.dumps(entry[0], default=str))
    return wire


def rows_to_wire(rows) -> list:
    """Point rows (``((obj, t), ...)`` per variable) in sorted JSON form."""
    wire = [[[obj, t] for obj, t in row] for row in rows]
    wire.sort(key=lambda entry: json.dumps(entry, default=str))
    return wire
