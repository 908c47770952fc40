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

An answer is turned into JSON once: :func:`encode_families` /
:func:`encode_rows` write its canonical text from the answer's arrays,
sorted on the text itself, as an :class:`Encoded` fragment, and
:func:`encode` splices that fragment into the envelope instead of
walking it again.
:func:`families_to_wire` / :func:`rows_to_wire` are the *reference form*
— what tests, replication divergence checks and the benchmark's oracle
compare against — and the fragment's bytes equal ``json.dumps(<reference
form>, separators=(",", ":"), default=str)`` exactly.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Optional

import numpy as np

from repro.errors import ReproError
from repro.lang.parser import STRING_PATTERN

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

#: A string literal (kept as written) or a run of whitespace (collapsed).
_SPACING = re.compile(rf"({STRING_PATTERN})|\s+")


def normalize_query(text: str) -> str:
    """The plan-cache form of a MATCH clause: trimmed, whitespace-collapsed.

    Paper-query names (``Q1`` … ``Q12``, surrounding whitespace aside)
    are resolved to their MATCH text first, so ``"Q5"`` and the
    spelled-out clause share one cache entry.  Normalization is purely
    lexical — it never changes query semantics, only collapses
    formatting noise so equivalent requests hit the same compiled plan:
    whitespace inside a quoted literal is part of the literal and stays.
    """
    from repro.dataflow import PAPER_QUERIES

    text = text.strip()
    if text in PAPER_QUERIES:
        text = PAPER_QUERIES[text].text
    return _SPACING.sub(lambda match: match.group(1) or " ", text)


class Encoded:
    """A JSON value already in wire form (compact, ASCII-only bytes).

    Compares equal to the value it encodes, so a payload reads the same
    in process as it does decoded from the socket.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Encoded):
            return self.data == other.data
        return json.loads(self.data) == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Encoded({len(self.data)} bytes)"


#: What :func:`encode` leaves in the envelope text where an
#: :class:`Encoded` fragment goes, and how it reads once dumped.
_SPLICE = "\x00repro:splice\x00"
_SPLICE_TEXT = json.dumps(_SPLICE)


def encode(message: dict) -> bytes:
    """One protocol line, newline-terminated.

    :class:`Encoded` fragments anywhere in ``message`` are spliced in as
    they are: the envelope is dumped around a marker and the fragments
    fill the gaps, in order.  A message that itself contains the marker
    text (an echoed ``id``, say) takes the reference route instead — the
    fragments are decoded and the whole message dumped in one walk —
    which yields the same bytes.
    """
    fragments: list[bytes] = []

    def mark(value: object) -> str:
        if isinstance(value, Encoded):
            fragments.append(value.data)
            return _SPLICE
        return str(value)

    text = json.dumps(message, separators=(",", ":"), default=mark)
    if not fragments:
        return (text + "\n").encode("utf-8")
    gaps = text.split(_SPLICE_TEXT)
    if len(gaps) != len(fragments) + 1:

        def decoded(value: object) -> object:
            return json.loads(value.data) if isinstance(value, Encoded) else str(value)

        text = json.dumps(message, separators=(",", ":"), default=decoded)
        return (text + "\n").encode("utf-8")
    parts = [gaps[0].encode("utf-8")]
    for fragment, gap in zip(fragments, gaps[1:]):
        parts += (fragment, gap.encode("utf-8"))
    parts.append(b"\n")
    return b"".join(parts)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"protocol numbers are finite JSON, got {text}")
    return value


#: Strict JSON: ``NaN``/``Infinity`` and numbers that overflow to them are
#: bad framing — echoed back, they would make a reply that is not JSON.
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def decode(line: bytes) -> dict:
    """Parse one protocol line; raises :class:`ValueError` on bad framing."""
    try:
        message = _DECODER.decode(line.decode("utf-8"))
    except RecursionError:
        # Brackets nested deeper than the interpreter's stack: the line
        # is from outside, so it is bad framing like any other.
        raise ValueError("protocol message is nested too deeply") from None
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages are JSON objects, got {type(message).__name__}")
    return message


def is_count(value) -> bool:
    """An integer >= 0 (JSON ``true``/``false`` decode to bools: not counts)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_fields(message: dict) -> None:
    """Raise :class:`ValueError` (a ``ProtocolError`` on the wire) unless
    ``graph`` is a string and ``from_seq`` (``replicate.subscribe``) and
    ``seq`` (``replicate.ack``) are WAL positions: integers >= 0."""
    graph = message.get("graph", "default")
    if not isinstance(graph, str):
        raise ValueError(f"graph must be a string, got {graph!r}")
    for field in ("from_seq", "seq"):
        if field in message and not is_count(message[field]):
            raise ValueError(f"{field} must be an integer >= 0, got {message[field]!r}")


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
    on.  The reference form of :func:`encode_families`.
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
    """Point rows (``((obj, t), ...)`` per variable) in sorted JSON form.
    The reference form of :func:`encode_rows`."""
    wire = [[[obj, t] for obj, t in row] for row in rows]
    wire.sort(key=lambda entry: json.dumps(entry, default=str))
    return wire


# --------------------------------------------------------------------- #
# Canonical answer text, written once
# --------------------------------------------------------------------- #
def _column_texts(ids, objects) -> list[str]:
    """The JSON text of ``objects[i]`` for each dense id ``i`` in ``ids``:
    written once per distinct id, then one take gives each row its text."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    texts = [objects[i] for i in distinct.tolist()]
    texts = [
        _escape(obj) if obj.__class__ is str else json.dumps(obj, separators=(",", ":"), default=str)
        for obj in texts
    ]
    return np.array(texts, dtype=object)[inverse].tolist()


def _interval_texts(start, end) -> list[str]:
    """``[start,end]`` per interval, written once per distinct pair."""
    order = np.lexsort((end, start))
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = (np.diff(start[order]) != 0) | (np.diff(end[order]) != 0)
    pairs = zip(start[order[fresh]].tolist(), end[order[fresh]].tolist())
    texts = np.array(["[%d,%d]" % pair for pair in pairs], dtype=object)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(fresh) - 1
    return texts[inverse].tolist()


def _array(entries: list[str]) -> Encoded:
    return Encoded(("[" + ",".join(entries) + "]").encode("ascii"))


def encode_families(table, limit=None) -> Encoded:
    """``families_to_wire(table.families)[:limit]`` as wire bytes, written
    from the arrays of a :class:`~repro.perf.columnar.FamilyTable`.

    Each entry's compact bindings text is both its sort key and its
    output: it orders entries exactly as the reference key does (the
    reference's ``", "`` separators add the same space at the same
    structural positions of every key, never at a first difference).
    Interval text is written once per distinct ``(start, end)`` pair.
    """
    objects, ids, indptr, start, end = table.arrays()
    count = indptr.size - 1
    cells = []
    for name, column in zip(table.variables, ids):
        cells += ([_escape(name)] * count, _column_texts(column, objects))
    if cells:
        template = "[" + ",".join(["[%s,%s]"] * (len(cells) // 2)) + "]"
        keys = [template % row for row in zip(*cells)]
    else:  # no variables: every bindings list is empty
        keys = ["[]"] * count
    texts = _interval_texts(start, end)
    indptr = indptr.tolist()
    return _array(
        [
            "[%s,[%s]]" % (keys[i], ",".join(texts[indptr[i] : indptr[i + 1]]))
            for i in sorted(range(count), key=keys.__getitem__)[:limit]
        ]
    )


def encode_rows(table, limit=None) -> Encoded:
    """``rows_to_wire(table.rows)[:limit]`` as wire bytes, written from
    the arrays of a :class:`~repro.perf.columnar.PointTable` — no row
    tuples are built.  A row's compact text is its sort key and its
    output, as in :func:`encode_families`.
    """
    objects, ids, times = table.arrays()
    if not ids:  # no variables: a row is the empty list
        return _array((["[]"] * len(table))[:limit])
    template = "[" + ",".join(["[%s,%d]"] * len(ids)) + "]"
    cells = []
    for column, at in zip(ids, times):
        cells += (_column_texts(column, objects), at.tolist())
    return _array(sorted([template % row for row in zip(*cells)])[:limit])
