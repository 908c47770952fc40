"""Exception hierarchy for the TRPQ reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still distinguishing the specific failure modes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class InvalidIntervalError(ReproError, ValueError):
    """An interval or interval family violates its invariants."""


class GraphIntegrityError(ReproError, ValueError):
    """A temporal property graph violates the conditions of Definition III.1 / A.1."""


class UnknownObjectError(ReproError, KeyError):
    """A node or edge identifier is not present in the graph."""


class QuerySyntaxError(ReproError, ValueError):
    """A practical-syntax path expression or MATCH clause could not be parsed."""


class QueryTranslationError(ReproError, ValueError):
    """A practical-syntax construct could not be translated to NavL[PC,NOI]."""


class UnsupportedFragmentError(ReproError, ValueError):
    """A query uses operators outside the fragment supported by an engine."""


class EvaluationError(ReproError, RuntimeError):
    """An evaluation engine failed while processing a well-formed query."""


class DeadlineExceeded(ReproError, TimeoutError):
    """A query ran past its configured deadline and was cancelled.

    Carries structured context so callers can report partial progress:

    * ``deadline_seconds`` — the configured budget;
    * ``elapsed`` — wall-clock seconds when the deadline fired;
    * ``partial`` — a dictionary of progress counters recorded at the
      cancellation point (steps completed, frontier rows, …).
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_seconds: float = 0.0,
        elapsed: float = 0.0,
        partial: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.deadline_seconds = deadline_seconds
        self.elapsed = elapsed
        self.partial = dict(partial or {})


class WALError(ReproError, RuntimeError):
    """A write-ahead log could not be read or written."""


class WALCorruptError(WALError):
    """A WAL record failed its checksum or framing mid-file.

    A *torn final record* (interrupted last append) is expected after a
    crash and is tolerated by recovery; corruption anywhere before the
    tail means the log cannot be trusted and raises this error with the
    file/line context attached.
    """

    def __init__(self, message: str, *, path: str = "", line: int = 0) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


class StreamFormatError(ReproError, ValueError):
    """A delta-stream line was malformed or out of order.

    Structured variant of the raw parse errors: carries the stream
    ``path``, 1-based ``line`` number and, when known, the batch
    ``sequence``, so callers can point at the offending record without
    re-parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str = "",
        line: int = 0,
        sequence: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line
        self.sequence = sequence


class InjectedFault(ReproError, RuntimeError):
    """A deterministic fault raised by an armed failpoint (tests only).

    Never raised in production paths: it exists so the chaos suite can
    tell injected failures apart from real ones.
    """


class StoreError(ReproError, RuntimeError):
    """A persistent compiled-index artifact could not be written or attached."""


class StoreFormatError(StoreError):
    """A file is not a ``repro-index`` artifact (bad magic or malformed header).

    ``path`` names the offending file so callers can report it without
    parsing the message.
    """

    def __init__(self, message: str, *, path: str = "") -> None:
        super().__init__(message)
        self.path = path


class StoreVersionError(StoreFormatError):
    """An artifact was written by an incompatible format version.

    Carries the ``found`` and ``expected`` version numbers so callers
    can report an actionable recompile message without parsing text.
    """

    def __init__(
        self, message: str, *, path: str = "", found: int = 0, expected: int = 0
    ) -> None:
        super().__init__(message, path=path)
        self.found = found
        self.expected = expected


class StoreCorruptError(StoreError):
    """An artifact failed a checksum or is truncated mid-section.

    ``section`` names the flat section whose CRC failed (empty when the
    damage is structural — e.g. a section table pointing past the end of
    the file).
    """

    def __init__(self, message: str, *, path: str = "", section: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.section = section


class ConnectionClosed(ReproError, ConnectionError):
    """The server closed (or lost) the connection mid-request.

    Raised client-side when a response line is empty or truncated —
    the signature of a server that died, drained, or dropped the socket
    between request and response.  Subclasses :class:`ConnectionError`
    so generic socket handling keeps working, and :class:`ReproError` so
    one ``except`` clause covers the library.  Idempotent requests are
    safe to retry on another endpoint; the failover client does exactly
    that.
    """


class ServerError(ReproError, RuntimeError):
    """A query-service request failed on the server side.

    Raised client-side (:mod:`repro.server.client`) when a response
    envelope carries ``ok: false``; ``kind`` is the server-reported error
    type (e.g. ``"QuerySyntaxError"``, ``"DeadlineExceeded"``,
    ``"Overloaded"``) so callers can branch without string matching.
    """

    def __init__(self, message: str, *, kind: str = "ServerError") -> None:
        super().__init__(message)
        self.kind = kind


class Overloaded(ServerError):
    """The service rejected a request under backpressure.

    The queue of admitted-but-unfinished requests was at ``max_queue``;
    the client should back off and retry — the request was never
    started, so retrying is always safe.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="Overloaded")


class NotPrimary(ServerError):
    """A write op was sent to a standby replica.

    Standbys serve read-only traffic; writes (``apply_delta``,
    ``register``) must go to the primary.  ``primary`` carries the
    primary's advertised ``host:port`` when the standby knows it, so
    clients can re-route without an extra discovery round trip — the
    failover client does exactly that.
    """

    def __init__(self, message: str, *, primary: str | None = None) -> None:
        super().__init__(message, kind="NotPrimary")
        self.primary = primary
