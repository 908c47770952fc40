"""The always-on query service: resident graphs and their warm engines.

Public surface::

    from repro.server import ServerState, QueryServer, BackgroundServer, serve
    from repro.server import ServerClient, PlanCache

See docs/ARCHITECTURE.md (Serving and replication topology) for what
stays resident, and RELIABILITY.md for the wire protocol and
operational semantics.
"""

from repro.dataflow.plans import PlanCache
from repro.server.client import IDEMPOTENT_OPS, ServerClient
from repro.server.protocol import OPS, PROTOCOL_VERSION, WRITE_OPS, normalize_query
from repro.server.replication import ReplicationHub, StandbyRunner
from repro.server.service import BackgroundServer, QueryServer, serve
from repro.server.state import GraphHost, ServerState

__all__ = [
    "BackgroundServer",
    "GraphHost",
    "IDEMPOTENT_OPS",
    "OPS",
    "PROTOCOL_VERSION",
    "PlanCache",
    "QueryServer",
    "ReplicationHub",
    "ServerClient",
    "ServerState",
    "StandbyRunner",
    "WRITE_OPS",
    "normalize_query",
    "serve",
]
