"""The always-on query service: protocol, plan cache, concurrency, durability.

What this module pins:

* the compiled-plan cache is keyed by normalized query text — lexical
  variants of one query share a plan, and a plan survives a delta: the
  next read is a hit whose answer equals a cold engine on the mutated
  graph (a stale *answer* would be a wrong-answer bug, not a perf bug);
* requests interleaved with delta application are serial-identical:
  every answer matches the serial reference for the epoch it is
  labelled with, never a torn in-between state;
* readers share the host lock — a reader parked in the kernel does not
  hold up another — while a delta still waits for them, and readers
  arriving behind a waiting delta wait for it;
* a failure that is not a ``ReproError`` logs its traceback;
* backpressure is admission control: at capacity the service rejects
  with ``Overloaded`` instead of queueing without bound;
* the ``repro serve`` subprocess answers a mixed paper-query burst with
  zero divergence from the one-shot engine, and shuts down cleanly;
* a restart with the same WAL (or snapshot) resumes at the state the
  previous process durably reached.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.errors import ConnectionClosed, Overloaded, ReproError, ServerError
from repro.model import contact_tracing_example
from repro.model.io import save_json
from repro.resilience import failpoints
from repro.resilience.retry import RetryPolicy
from repro.resilience.wal import record_frame
from repro.server import (
    BackgroundServer,
    PlanCache,
    ServerClient,
    ServerState,
    normalize_query,
)
from repro.server import protocol
from repro.server.protocol import decode, encode, families_to_wire, rows_to_wire
from repro.server.state import GraphHost
from repro.streaming.delta import DeltaBatch

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None


def subprocess_env() -> dict:
    """Environment for ``python -m repro`` children: src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def example_batch(sequence: int, suffix: str = "x") -> DeltaBatch:
    """A delta over the Figure-1 example that changes Q1 and Q5 answers."""
    batch = DeltaBatch(sequence=sequence)
    node = f"n_{suffix}{sequence}"
    edge = f"e_{suffix}{sequence}"
    batch.add_node(node, "Person", [(2, 8)])
    batch.set_property(node, "name", f"P{sequence}", 2, 8)
    batch.set_property(node, "risk", "high", 2, 8)
    batch.add_edge(edge, "meets", "n1", node, [(3, 6)])
    return batch


def serial_wire_answer(graph, text: str) -> list:
    """The canonical wire form of a one-shot serial evaluation."""
    return families_to_wire(
        DataflowEngine(graph).match_intervals(normalize_query(text))
    )


def wait_until(predicate, *, timeout: float = 20.0, interval: float = 0.02):
    """Poll ``predicate`` until it returns something truthy (and return it)."""
    deadline = time.time() + timeout
    last = None
    while time.time() < deadline:
        last = predicate()
        if last:
            return last
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s (last: {last!r})")


@contextlib.contextmanager
def asyncio_errors():
    """What the ``asyncio`` logger reports meanwhile — among it, a
    connection handler's unhandled exception."""
    records: list = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def strict_json(line: bytes):
    """``json.loads`` that refuses ``NaN``/``Infinity``, as other parsers do."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=refuse)


# --------------------------------------------------------------------- #
# Protocol primitives
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_normalize_collapses_whitespace_and_resolves_names(self):
        spelled = normalize_query("MATCH   (x:Person)\n  ON contact_tracing")
        assert spelled == "MATCH (x:Person) ON contact_tracing"
        assert normalize_query("Q1") == spelled

    def test_normalize_keeps_string_literals_and_trims_names(self):
        two = normalize_query("MATCH (x {name = 'Ann  Lee'})   ON g")
        assert two == "MATCH (x {name = 'Ann  Lee'}) ON g"
        assert two != normalize_query("MATCH (x {name = 'Ann Lee'}) ON g")
        assert normalize_query(" Q5 \n") == normalize_query("Q5")

    def test_encode_decode_roundtrip(self):
        message = {"op": "query", "id": 7, "query": "Q1"}
        assert decode(encode(message).rstrip(b"\n")) == message

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            decode(b"[1, 2, 3]")

    def test_splice_marker_in_the_message_still_frames_the_right_answer(self):
        # The echoed id (or any other string) may contain whatever text
        # the splice leaves in the envelope; the frame must stay well
        # formed and carry the same answer.
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        reference = serial_wire_answer(contact_tracing_example(), "Q1")
        marker = protocol._SPLICE
        for request_id in (marker, [marker, {"k": marker}], json.dumps(marker), 7):
            out = host.query("Q1")
            assert isinstance(out["result"]["families"], protocol.Encoded)
            wire = encode(
                protocol.ok_response(
                    out["result"], request={"id": request_id}, server=out["server"]
                )
            )
            assert wire.endswith(b"\n") and wire.count(b"\n") == 1
            frame = decode(wire)
            assert frame["id"] == request_id
            assert frame["result"]["families"] == reference
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                query = f"MATCH (x:Person {{name = '{marker}' OR risk = 'low'}}) ON g"
                for text in (query, f"MATCH ({marker}) ON g"):
                    try:
                        response = client.request(
                            "query", id=marker, graph="default", query=text
                        )
                    except ServerError:
                        continue  # a structured refusal is a well-formed frame too
                    assert response["id"] == marker
                    assert response["result"]["families"] == serial_wire_answer(
                        contact_tracing_example(), text
                    )
                assert client.ping()["protocol"].startswith("repro-server/")


if st is not None:
    #: Few symbols, so ids share prefixes and differ in length; the
    #: symbols are the ones that sort differently as JSON text than as
    #: Python strings (``!``, space and tab sort before the closing
    #: quote) or that JSON escapes (quote, backslash, control,
    #: non-ASCII).  Int ids include texts that prefix one another.
    _ID_TEXT = st.text(alphabet='p1!" \t\\\x00\x1f\u00e9\u4e2d', max_size=4)
    _IDS = st.one_of(
        _ID_TEXT,
        st.sampled_from((1, 12, 123, 1234)),
        st.integers(min_value=-3, max_value=120),
    )
    _LIMITS = st.one_of(st.none(), st.integers(min_value=-3, max_value=6))

    @st.composite
    def _answers(draw):
        from repro.temporal.intervalset import IntervalSet

        variables = draw(st.lists(_ID_TEXT, max_size=3, unique=True))
        bindings = draw(
            st.lists(
                st.tuples(*[_IDS] * len(variables)),
                max_size=12,
                unique_by=lambda objects: json.dumps(objects),
            )
        )
        spans = st.tuples(st.integers(0, 40), st.integers(0, 6))
        families = [
            (
                tuple(zip(variables, objects)),
                IntervalSet(
                    [
                        (start, start + length)
                        for start, length in draw(
                            st.lists(spans, min_size=1, max_size=3)
                        )
                    ]
                ),
            )
            for objects in bindings
        ]
        return variables, families

    class TestCanonicalBytes:
        """The bytes written once equal the reference form's encoding."""

        @staticmethod
        def reference(wire: list, limit) -> bytes:
            return json.dumps(wire[:limit], separators=(",", ":"), default=str).encode()

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(answer=_answers(), limit=_LIMITS)
        def test_emitted_bytes_equal_the_reference_encoding(self, answer, limit):
            from repro.eval.bindings import IntervalBindingTable

            variables, families = answer
            table = IntervalBindingTable(variables, families)
            # The plain list turned into arrays once, and the same answer
            # as the kernel could hold it (families in another order,
            # dense ids shifted by objects no family binds), write the
            # reference bytes at every limit.
            forms = (
                self.family_table(variables, families),
                self.family_table(variables, families[::-1], spare=("p", 1, "\t")),
            )
            for each in (None, *range(-3, len(families) + 2)):
                expected = self.reference(families_to_wire(families), each)
                for form in forms:
                    assert protocol.encode_families(form, each).data == expected
            for form in forms:
                assert set(form.families) == set(families)
                assert form.num_families() == len(families)
                assert form.num_intervals() == table.num_intervals()
                assert len(form) == len(table)
            # The same answer as point rows, in the kernel's array form.
            rows = table.materialized().rows
            expected = self.reference(rows_to_wire(rows), limit)
            point_table = self.point_table(variables, rows)
            assert protocol.encode_rows(point_table, limit).data == expected
            # And through the envelope: spliced, then decoded by a client.
            wire = {"families": families_to_wire(families), "rows": rows_to_wire(rows)}
            for served, kind in ((forms[1], "families"), (point_table, "rows")):
                payload = GraphHost._table_payload(served, limit)
                message = protocol.ok_response(payload, request={"id": 1})
                result = decode(encode(message))["result"]
                assert result[kind] == json.loads(self.reference(wire[kind], limit))
                assert result["output_size"] == len(table)

        @staticmethod
        def _dense(objects: list, spare) -> tuple:
            objects = (*spare, *dict.fromkeys(objects))
            return objects, {(type(obj), obj): i for i, obj in enumerate(objects)}

        @classmethod
        def family_table(cls, variables, families, spare=()):
            """``families`` as the kernel holds them: a FamilyTable over an
            object table that starts with ``spare``."""
            import numpy as np

            from repro.perf import columnar

            bound = [obj for bindings, _times in families for _v, obj in bindings]
            objects, dense = cls._dense(bound, spare)
            ids = [
                np.array([dense[type(obj), obj] for obj in column], dtype=np.int64)
                for column in zip(*(dict(b).values() for b, _times in families))
            ] or [np.empty(0, dtype=np.int64)] * len(variables)
            sizes = [len(times) for _bindings, times in families]
            intervals = [iv for _bindings, times in families for iv in times]
            return columnar.FamilyTable(
                variables,
                objects,
                ids,
                np.cumsum([0] + sizes),
                np.array([iv.start for iv in intervals], dtype=np.int64),
                np.array([iv.end for iv in intervals], dtype=np.int64),
            )

        @classmethod
        def point_table(cls, variables, rows):
            """Point ``rows`` as the kernel holds them: a PointTable."""
            import numpy as np

            from repro.perf import columnar

            objects, dense = cls._dense([obj for row in rows for obj, _t in row], ())
            columns = list(zip(*rows)) or [()] * len(variables)
            return columnar.PointTable(
                variables,
                objects,
                [
                    np.array([dense[type(obj), obj] for obj, _t in column], dtype=np.int64)
                    for column in columns
                ],
                [np.array([t for _obj, t in column], dtype=np.int64) for column in columns],
                size=len(rows),
            )


class TestPlanCache:
    def test_lru_eviction_and_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("a", "plan-a")
        cache.put("b", "plan-b")
        assert cache.get("a") == "plan-a"  # refreshes a
        cache.put("c", "plan-c")  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == "plan-a"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert [text for text, _plan in cache.entries()] == ["c", "a"]

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


# --------------------------------------------------------------------- #
# Resident state (no sockets)
# --------------------------------------------------------------------- #
class TestGraphHost:
    def test_plan_cache_hit_on_lexical_variants(self):
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        first = host.query("Q1")
        again = host.query("MATCH  (x:Person)  ON   contact_tracing")
        assert first["server"]["plan"] == "miss"
        assert again["server"]["plan"] == "hit"
        assert again["result"]["families"] == first["result"]["families"]

    def test_served_answers_keep_whitespace_in_literals(self):
        # Two persons whose names differ only in inner whitespace: the
        # served path must answer the literal as written.
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        batch = DeltaBatch(sequence=1)
        for node, name in (("ann_two", "Ann  Lee"), ("ann_one", "Ann Lee")):
            batch.add_node(node, "Person", [(2, 8)])
            batch.set_property(node, "name", name, 2, 8)
        host.apply_delta(batch.to_json_dict())
        text = "MATCH (x:Person {name = 'Ann  Lee'}) ON contact_tracing"
        expected = families_to_wire(DataflowEngine(host.graph).match_intervals(text))
        assert "ann_two" in json.dumps(expected) and "ann_one" not in json.dumps(expected)
        assert host.query(text)["result"]["families"] == expected
        host.register(text, name="ann")
        assert host.table("ann")["result"]["families"] == expected
        other = text.replace("'Ann  Lee'", "'Ann Lee'")
        assert host.query(other)["server"]["plan"] == "miss"

    def test_backslash_escapes_in_literals_select_on_every_engine(self):
        # ``\\`` in a literal is one backslash, so a value that ends in a
        # backslash can be written, on both engines and served alike.
        from repro.eval.engine import ReferenceEngine

        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        batch = DeltaBatch(sequence=1)
        names = {"p_end": "a\\", "p_mid": "a\\b", "p_plain": "ab", "p_quote": "it's"}
        for node, name in names.items():
            batch.add_node(node, "Person", [(2, 8)])
            batch.set_property(node, "name", name, 2, 8)
        host.apply_delta(batch.to_json_dict())
        for literal, node in (
            (r"'a\\'", "p_end"),
            (r"'a\\b'", "p_mid"),
            (r"'a\b'", "p_plain"),
            (r"'it\'s'", "p_quote"),
        ):
            text = f"MATCH (x:Person {{name = {literal}}}) ON contact_tracing"
            expected = [[[["x", node]], [[2, 8]]]]
            for engine in (DataflowEngine(host.graph), ReferenceEngine(host.graph)):
                assert families_to_wire(engine.match_intervals(text)) == expected, literal
            assert host.query(text)["result"]["families"] == expected, literal
            host.register(text, name=node)
            assert host.table(node)["result"]["families"] == expected, literal

    def test_padded_paper_query_names_resolve(self):
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        expected = families_to_wire(
            DataflowEngine(host.graph).match_intervals(PAPER_QUERIES["Q5"].text)
        )
        assert host.query(" Q5 ")["result"]["families"] == expected
        assert host.query("Q5")["server"]["plan"] == "hit"
        assert host.register(" Q5 ")["result"]["name"] == "Q5"
        assert host.table("Q5")["result"]["families"] == expected

    def test_plans_survive_a_delta_and_answer_the_mutated_graph(self):
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        host.query("Q1")
        before = host.query("Q5")["result"]["families"]
        plan = dict(host.engine.plans.entries())[normalize_query("Q5")]
        applied = host.apply_delta(example_batch(1).to_json_dict())
        assert "plans_invalidated" not in applied["result"]
        assert applied["server"]["epoch"] == 1
        for name in ("Q5", "Q1"):
            after = host.query(name)
            # Text-keyed: the write cost the next read no parse/compile...
            assert after["server"]["plan"] == "hit"
            assert after["server"]["epoch"] == 1
            # ...and the surviving plan answers like a cold one-shot
            # engine over the mutated graph.
            assert after["result"]["families"] == serial_wire_answer(host.graph, name)
        assert dict(host.engine.plans.entries())[normalize_query("Q5")] is plan
        assert host.query("Q5")["result"]["families"] != before
        assert host.engine.plans.stats()["misses"] == 2

    def test_stats_lists_the_cached_plans(self):
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        host.query("Q1")
        host.query("Q6")  # mid-chain PREV + point-mode output
        stats = host.stats()
        # One kernel and no configured backend: nothing to report per plan
        # but its query text.
        assert "kernel" not in stats and "backend" not in stats
        assert stats["plans"] == [normalize_query("Q1"), normalize_query("Q6")]
        host.apply_delta(example_batch(1).to_json_dict())
        assert host.stats()["plans"] == stats["plans"]  # plans outlive a write

    def test_registered_table_tracks_deltas(self):
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        host.register("Q5", name="q5")
        before = host.table("q5")["result"]["families"]
        applied = host.apply_delta(example_batch(1).to_json_dict())["result"]
        # A write re-derives nothing, so it reports no per-query work.
        assert "queries" not in applied
        after = host.table("q5")["result"]["families"]
        assert after != before
        assert after == serial_wire_answer(host.graph, "Q5")

    def test_unknown_graph_is_a_repro_error(self):
        state = ServerState()
        with pytest.raises(ReproError, match="not resident"):
            state.host("nope")

    def test_duplicate_graph_name_rejected(self):
        state = ServerState()
        state.add_graph("default")
        with pytest.raises(ServerError, match="already resident"):
            state.add_graph("default")


# --------------------------------------------------------------------- #
# Served differential: the wire against the reference engine
# --------------------------------------------------------------------- #
#: Every paper query, plus a temporal alternation (distributed leaf
#: chains whose families are unioned), as CI diffs it.
SERVED_QUERIES = {
    **{name: query.text for name, query in PAPER_QUERIES.items()},
    "alt": "MATCH (x:Person {risk = 'high'})-/FWD/:visits/FWD/:Room/BWD/:visits/BWD/"
    "(NEXT[0,12] + PREV[0,12])/-({test = 'pos'}) ON contact_tracing",
}


@pytest.fixture(scope="module")
def s1_files(tmp_path_factory):
    """The S1 contact-tracing graph as JSON and as a compiled store, with
    a memo of the reference engine's answers in wire form."""
    from repro.datagen import generate_contact_tracing_graph
    from repro.datagen.scale import SCALE_FACTORS
    from repro.eval.engine import ReferenceEngine
    from repro.store import compile_graph

    graph = generate_contact_tracing_graph(SCALE_FACTORS["S1"].config())
    directory = tmp_path_factory.mktemp("served-s1")
    save_json(graph, directory / "graph.json")
    compile_graph(graph, str(directory / "graph.rix"))
    reference = ReferenceEngine(graph)
    memo: dict = {}

    def expected(name: str, kind: str) -> list:
        if name not in memo:
            text = SERVED_QUERIES[name]
            if kind == "families":
                wire = families_to_wire(reference.match_intervals(text))
            else:
                wire = rows_to_wire(reference.match(text).rows)
            memo[name] = json.loads(json.dumps(wire, default=str))
        return memo[name]

    return directory, expected


@pytest.fixture(scope="module", params=["graph", "store"])
def s1_host(request, s1_files):
    """A host booted like ``repro serve --graph`` or ``--store``."""
    directory, _expected = s1_files
    state = ServerState()
    if request.param == "graph":
        state.add_graph("default", str(directory / "graph.json"))
    else:
        state.add_graph("default", store=str(directory / "graph.rix"))
    return state.host("default")


class TestServedDifferential:
    """Every served answer, decoded off the wire, equals the reference
    form of :class:`ReferenceEngine`'s answer — ad hoc and registered, on
    a graph-booted and on a store-attached host."""

    @pytest.mark.parametrize("name", list(SERVED_QUERIES))
    def test_served_answer_equals_the_reference(self, s1_files, s1_host, name):
        _directory, expected = s1_files
        text = SERVED_QUERIES[name]
        s1_host.register(text, name=name)
        for read in (s1_host.query(text), s1_host.table(name)):
            result = decode(encode(protocol.ok_response(read["result"])))["result"]
            kind = result["kind"]
            answer = expected(name, kind)
            assert result[kind] == answer, (name, kind)
            assert result[f"num_{kind}"] == len(answer), name


# --------------------------------------------------------------------- #
# The TCP service end to end
# --------------------------------------------------------------------- #
class TestService:
    def test_mixed_burst_matches_one_shot_engine(self):
        state = ServerState()
        state.add_graph("default")
        reference = {
            name: serial_wire_answer(contact_tracing_example(), name)
            for name in ("Q1", "Q5", "Q10")
        }
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                assert client.ping()["protocol"].startswith("repro-server/")
                for _ in range(3):
                    for name in ("Q1", "Q5", "Q10"):
                        response = client.query(name)
                        assert response["result"]["families"] == reference[name]
                stats = client.stats()["graphs"]["default"]["plan_cache"]
                # 3 plans compiled once each, then reused across the burst.
                assert stats["misses"] == 3
                assert stats["hits"] == 6

    def test_request_id_is_echoed(self):
        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                response = client.request("query", id=42, graph="default", query="Q1")
                assert response["id"] == 42

    def test_per_request_deadline_maps_to_structured_error(self):
        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                with pytest.raises(ServerError) as err:
                    client.query("Q10", deadline=1e-9)
                assert err.value.kind == "DeadlineExceeded"
                # The session is still healthy afterwards.
                assert client.query("Q1")["result"]["num_families"] > 0

    def test_deadline_stops_a_query_of_exponentially_many_leaves(self):
        # 22 temporal alternations in sequence run as 2**22 leaf chains
        # under the host lock; the per-request deadline still answers
        # within twice its budget and frees the graph for the next query.
        factors = "/".join(["(NEXT + PREV)"] * 22)
        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                start = time.monotonic()
                with pytest.raises(ServerError) as err:
                    client.query(f"MATCH (x)-/{factors}/-(y) ON default", deadline=0.5)
                assert err.value.kind == "DeadlineExceeded"
                assert time.monotonic() - start < 1.0
                assert client.query("Q1")["result"]["num_families"] > 0

    def test_table_read_honours_its_deadline(self):
        # Registering only prepares the plan, so even a chain of 2**22
        # leaf chains registers at once; the first table read runs it
        # under the request's deadline and answers the structured error.
        factors = "/".join(["(NEXT + PREV)"] * 22)
        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                start = time.monotonic()
                client.register(f"MATCH (x)-/{factors}/-(y) ON default", name="wide")
                assert time.monotonic() - start < 1.0
                start = time.monotonic()
                with pytest.raises(ServerError) as err:
                    client.request("table", graph="default", name="wide", deadline=0.2)
                assert err.value.kind == "DeadlineExceeded"
                assert time.monotonic() - start < 1.0
                assert client.ping()["protocol"]

    def test_malformed_requests_answer_instead_of_disconnecting(self):
        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                with pytest.raises(ServerError):
                    client.request("no_such_op")
                with pytest.raises(ServerError):
                    client.request("query", graph="default", query="   ")
                with pytest.raises(ServerError):
                    client.request("query", graph="default", query="Q1", deadline=-1)
                with pytest.raises(ServerError):
                    client.request("apply_delta", graph="default", batch="not-a-dict")
                # The connection survived all four rejections.
                assert client.query("Q1")["result"]["num_families"] > 0
                # Malformed answer options are refused as a ServerError on
                # both answer-returning ops — never a silently dropped
                # family (limit -1), a truthy slice (limit true) or a raw
                # TypeError/ValueError — and the connection keeps answering.
                persons = "MATCH (x:Person) ON g"
                client.register(persons, name="persons")
                targets = {"query": {"query": persons}, "table": {"name": "persons"}}
                for fields in (
                    {"limit": -1},
                    {"limit": True},
                    {"limit": "3"},
                    {"limit": 1.5},
                    {"deadline": "soon"},
                    {"deadline": 0},
                    {"deadline": True},
                ):
                    for op, target in targets.items():
                        with pytest.raises(ServerError) as excinfo:
                            client.request(op, graph="default", **target, **fields)
                        assert excinfo.value.kind == "ServerError", (op, fields)
                        assert client.ping()["protocol"]
                full = client.query(persons)["result"]
                assert full["num_families"] == 5
                assert client.query(persons, limit=0)["result"]["families"] == []
                table = client.table("persons", limit=None)["result"]
                assert table["families"] == full["families"]
            # Lines that are not a JSON object at all, on one raw
            # connection: each is answered, and the connection still pings.
            import socket as socket_module

            with socket_module.create_connection(
                (server.host, server.port), timeout=30
            ) as raw:
                reader = raw.makefile("rb")
                for line in (
                    b"{not json\n",
                    b"\xff\xfe{}\n",
                    b"[1, 2]\n",
                    b"[" * 100_000 + b"]" * 100_000 + b"\n",
                ):
                    raw.sendall(line)
                    frame = decode(reader.readline())
                    assert frame["ok"] is False, line[:20]
                    assert frame["error"]["type"] == "ProtocolError", line[:20]
                raw.sendall(encode({"op": "ping"}))
                assert decode(reader.readline())["ok"] is True

    def test_legacy_retries_field_is_ignored(self):
        """Older clients send ``retries`` on ``query`` and ``table``: any
        value — also ones the field's former check refused — answers
        byte for byte like the same envelope without it (``query``'s
        three timing fields set aside)."""
        import socket as socket_module

        state = ServerState()
        state.add_graph("default")
        persons = "MATCH (x:Person) ON g"
        state.host("default").register(persons, name="persons")
        timing = (
            ("result", "interval_seconds"),
            ("result", "total_seconds"),
            ("server", "seconds"),
        )
        with BackgroundServer(state) as server:
            with socket_module.create_connection(
                (server.host, server.port), timeout=30
            ) as raw:
                reader = raw.makefile("rb")

                def answer(request: dict) -> bytes:
                    raw.sendall(encode(request))
                    line = reader.readline()
                    if request["op"] == "table":
                        return line
                    frame = decode(line)
                    for section, field in timing:
                        frame[section][field] = 0
                    return encode(frame)

                for op, target in (
                    ("query", {"query": persons}),
                    ("table", {"name": "persons"}),
                ):
                    plain = {"op": op, "graph": "default", "id": 7, **target}
                    answer(plain)  # the first query compiles its plan
                    expected = answer(plain)
                    assert decode(expected)["ok"] is True
                    assert decode(expected)["result"]["num_families"] == 5
                    for retries in (0, 3, -1, "x", 1.0, True, None, [1], {"n": 1}):
                        legacy = {**plain, "retries": retries}
                        assert answer(legacy) == expected, (op, retries)

    def test_malformed_wire_fields_answer_protocol_error(self, tmp_path):
        """Regression: a ``graph`` that is not a string, a ``from_seq``/
        ``seq`` that is not an integer >= 0, and non-finite numbers used
        to escape the connection handler (no reply, "Unhandled exception"
        logged) or echo a reply that is not JSON.  Each now answers
        ``ProtocolError`` on a connection that keeps answering."""
        import socket as socket_module

        state = ServerState()
        state.add_graph("default", wal=str(tmp_path / "primary.wal"))
        with BackgroundServer(state) as server, asyncio_errors() as errors:
            with socket_module.create_connection(
                (server.host, server.port), timeout=30
            ) as raw, raw.makefile("rb") as reader:
                for line in (
                    b'{"op":"replicate.subscribe","from_seq":1e999}\n',
                    b'{"op":"replicate.subscribe","graph":[1]}\n',
                    b'{"op":"replicate.subscribe","from_seq":-1}\n',
                    b'{"op":"replicate.subscribe","from_seq":"3"}\n',
                    b'{"op":"replicate.ack","seq":true}\n',
                    b'{"op":"query","graph":[1],"query":"Q1"}\n',
                    b'{"op":"ping","id":NaN}\n',
                    b'{"op":"ping","id":-Infinity}\n',
                ):
                    raw.sendall(line)
                    frame = strict_json(reader.readline())
                    assert frame["ok"] is False, line
                    assert frame["error"]["type"] == "ProtocolError", line
                raw.sendall(encode({"op": "ping", "id": 7}))
                assert strict_json(reader.readline())["id"] == 7
            # An ack the subscription stream cannot read ends that stream
            # quietly instead of killing its handler.
            with socket_module.create_connection(
                (server.host, server.port), timeout=30
            ) as raw, raw.makefile("rb") as reader:
                raw.sendall(encode({"op": "replicate.subscribe", "graph": "default"}))
                assert decode(reader.readline())["ok"] is True
                raw.sendall(b'{"op":"replicate.ack","seq":1e999}\n')
                while reader.readline():
                    pass  # heartbeats, then the primary hangs up
            time.sleep(0.2)  # let a dying handler reach the logger
            assert not [record.getMessage() for record in errors]

    def test_overloaded_rejection_at_capacity(self):
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        with BackgroundServer(state, max_concurrency=1, max_queue=0) as server:
            blocked = ServerClient(server.host, server.port)
            probe = ServerClient(server.host, server.port)
            try:
                # Hold the host lock so the admitted request occupies the
                # single execution slot without completing.
                with host.lock:
                    done = threading.Event()
                    outcome = {}

                    def slow_query():
                        try:
                            outcome["response"] = blocked.query("Q1")
                        except Exception as error:  # pragma: no cover
                            outcome["error"] = error
                        done.set()

                    thread = threading.Thread(target=slow_query, daemon=True)
                    thread.start()
                    deadline = time.time() + 10
                    while time.time() < deadline:
                        if server._server._semaphore.locked():
                            break
                        time.sleep(0.01)
                    with pytest.raises(Overloaded):
                        probe.query("Q1")
                done.wait(timeout=30)
                assert outcome.get("response") is not None
                rejected = probe.stats()["service"]["rejected"]
                assert rejected == 1
            finally:
                blocked.close()
                probe.close()

    def test_concurrent_queries_with_delta_writer_are_serial_identical(self):
        """Readers racing a delta writer — ad-hoc light and heavy queries
        and registered-table reads, whose first read after each write
        runs the kernel — see per-epoch answers."""
        state = ServerState()
        state.add_graph("default")
        state.host("default").register("Q5", name="q5")
        state.host("default").register("Q11", name="q11")
        num_batches = 4
        # Reference answers per epoch, each computed on a fresh twin graph
        # (a fresh graph gets a fresh shared index — the raw apply_delta
        # deliberately leaves index maintenance to the streaming session).
        from repro.streaming.delta import apply_delta

        reference = {}
        for epoch in range(num_batches + 1):
            twin = contact_tracing_example()
            for seq in range(1, epoch + 1):
                apply_delta(twin, example_batch(seq))
            reference[epoch] = {
                q: serial_wire_answer(twin, q) for q in ("Q1", "Q5", "Q11")
            }
            reference[epoch]["table q5"] = reference[epoch]["Q5"]
            reference[epoch]["table q11"] = reference[epoch]["Q11"]

        errors = []
        observations = []

        def reader(what: str, stop: threading.Event) -> None:
            op, _, name = what.partition(" ")
            try:
                with ServerClient(server.host, server.port) as client:
                    while not stop.is_set():
                        if op == "table":
                            response = client.table(name)
                        else:
                            response = client.query(what)
                        observations.append(
                            (what, response["server"]["epoch"], response["result"]["families"])
                        )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        with BackgroundServer(state, max_concurrency=6) as server:
            stop = threading.Event()
            readers = [
                threading.Thread(target=reader, args=(what, stop), daemon=True)
                for what in ("Q1", "Q5", "Q11", "table q5", "table q11")
            ]
            for thread in readers:
                thread.start()
            with ServerClient(server.host, server.port) as writer:
                for seq in range(1, num_batches + 1):
                    writer.apply_delta(example_batch(seq).to_json_dict())
                    time.sleep(0.05)  # let readers observe this epoch
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
                assert not thread.is_alive()
        assert not errors
        seen_epochs = {}
        for what, epoch, families in observations:
            assert families == reference[epoch][what], (
                f"{what} at epoch {epoch} diverged from the serial reference"
            )
            seen_epochs.setdefault(what, set()).add(epoch)
        # Every reader answered, and the race spanned multiple epochs
        # (not all pre/post).
        assert set(seen_epochs) == {"Q1", "Q5", "Q11", "table q5", "table q11"}
        assert len(set().union(*seen_epochs.values())) > 1

    def test_readers_overlap_and_a_waiting_writer_holds_back_new_readers(self):
        """A reader parked inside the kernel holds the shared side: a
        second reader finishes meanwhile, a delta waits for the parked
        reader, and a reader arriving behind the waiting delta answers
        only after it (writer preference)."""
        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        started: dict[str, float] = {}
        finished: dict[str, float] = {}
        epochs: dict[str, int] = {}
        errors = []

        def run(name, call):
            started[name] = time.monotonic()
            try:
                with ServerClient(server.host, server.port) as client:
                    epochs[name] = call(client)["server"]["epoch"]
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finished[name] = time.monotonic()

        def spawn(name, call):
            thread = threading.Thread(target=run, args=(name, call), daemon=True)
            thread.start()
            return thread

        def read(client):
            return client.request("query", graph="default", query="Q1")

        try:
            with BackgroundServer(state, max_concurrency=4) as server:
                failpoints.arm("engine.step", "sleep", seconds=0.5, times=1)
                a = spawn("A", lambda client: client.query("Q5"))
                wait_until(lambda: failpoints.hits("engine.step") >= 1)
                b = spawn("B", read)
                b.join(timeout=30)
                assert "B" in finished and "A" not in finished, "B waited for A"
                w = spawn(
                    "W", lambda client: client.apply_delta(example_batch(1).to_json_dict())
                )
                wait_until(lambda: host.lock._writers_waiting == 1)
                c = spawn("C", read)
                time.sleep(0.1)
                # A is still parked, so only the queued writer holds C back.
                assert "A" not in finished
                assert "W" not in finished and "C" not in finished
                for thread in (a, w, c):
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            failpoints.disarm_all()
        assert not errors
        # A and B read before the batch; the writer applied it only once
        # A's parked kernel step was over; C read after the writer.
        assert epochs == {"A": 0, "B": 0, "W": 1, "C": 1}
        assert finished["W"] - started["A"] >= 0.5

    def test_unexpected_error_logs_its_traceback(self, monkeypatch, caplog):
        """A failure that is not a ReproError answers "internal error
        (Type)" on the wire, and its traceback reaches the
        ``repro.server`` logger with the request id."""

        def explode(self, *args, **kwargs):
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(GraphHost, "query", explode)
        state = ServerState()
        state.add_graph("default")
        with caplog.at_level(logging.ERROR, logger="repro.server"):
            with BackgroundServer(state) as server:
                with ServerClient(server.host, server.port) as client:
                    with pytest.raises(ServerError) as err:
                        client.request("query", id=4711, graph="default", query="Q1")
                    assert client.ping()["protocol"]
        assert err.value.kind == "RuntimeError"
        assert str(err.value) == "internal error (RuntimeError)"
        [record] = [r for r in caplog.records if r.name == "repro.server"]
        assert "4711" in record.getMessage()
        assert record.exc_info is not None
        assert "secret internal detail" in caplog.text

    def test_shutdown_op_stops_the_server(self):
        state = ServerState()
        state.add_graph("default")
        server = BackgroundServer(state).start()
        with ServerClient(server.host, server.port) as client:
            assert client.shutdown() == {"stopping": True}
        server._thread.join(timeout=30)
        assert not server._thread.is_alive()


# --------------------------------------------------------------------- #
# Durability: restart resumes where the previous process stopped
# --------------------------------------------------------------------- #
class TestServerDurability:
    def test_wal_restart_replays_applied_batches(self, tmp_path):
        wal = str(tmp_path / "server.wal")
        first = ServerState()
        first.add_graph("default", wal=wal)
        host = first.host("default")
        host.apply_delta(example_batch(1).to_json_dict())
        host.apply_delta(example_batch(2).to_json_dict())
        answer = host.query("Q5")["result"]["families"]
        first.close()

        second = ServerState()
        recovery = second.add_graph("default", wal=wal)
        assert recovery is None  # WAL-only catch-up, not snapshot recovery
        resumed = second.host("default")
        assert resumed.query("Q5")["result"]["families"] == answer
        # The resumed session appends after the replayed tail, not over it.
        applied = resumed.apply_delta(example_batch(3).to_json_dict())
        assert applied["result"]["sequence"] == 3
        second.close()

    def test_snapshot_restart_recovers_session_and_queries(self, tmp_path):
        wal = str(tmp_path / "server.wal")
        snapshot = str(tmp_path / "server.snapshot")
        first = ServerState()
        first.add_graph("default", wal=wal, snapshot=snapshot)
        host = first.host("default")
        host.register("Q5", name="q5")
        host.apply_delta(example_batch(1).to_json_dict())
        answer = host.table("q5")["result"]["families"]
        first.close()

        second = ServerState()
        recovery = second.add_graph("default", wal=wal, snapshot=snapshot)
        assert recovery is not None
        resumed = second.host("default")
        assert "q5" in resumed.session.query_names()
        assert resumed.table("q5")["result"]["families"] == answer
        second.close()

    @pytest.mark.parametrize("query", [f"Q{number}" for number in range(1, 13)])
    def test_snapshot_restart_keeps_the_epoch_and_registers_once(
        self, tmp_path, monkeypatch, query
    ):
        from repro.streaming import StreamingEngine

        wal = str(tmp_path / "server.wal")
        snapshot = str(tmp_path / "server.rix")
        config = dict(wal=wal, snapshot=snapshot)
        first = ServerState()
        first.add_graph("default", **config)
        host = first.host("default")
        host.register(query)
        for sequence in range(1, 6):
            host.apply_delta(example_batch(sequence).to_json_dict())
            if sequence == 4:
                host.checkpoint()
        expected = host.table(query)
        assert expected["server"]["epoch"] == host.session.epoch == 5
        # A crash: the state is dropped without close() (the WAL is
        # fsynced per batch), so only the batch-4 checkpoint is on disk.

        registered = []
        real_register = StreamingEngine.register

        def counting_register(self, query, name=None):
            registered.append(name)
            return real_register(self, query, name)

        monkeypatch.setattr(StreamingEngine, "register", counting_register)
        restarts = {}
        for label, restart_config in (("wal", dict(wal=wal)), ("snapshot", config)):
            registered.clear()
            state = ServerState()
            recovery = state.add_graph("default", **restart_config)
            resumed = state.host("default")
            restarts[label] = resumed.query("Q1")["server"]["epoch"]
            if label == "snapshot":
                assert recovery["snapshot_wal_seq"] == 4 and recovery["replayed"] == 1
                assert registered == [query]  # cold-registered once
                answer = resumed.table(query)
                # Byte-identical wire answers (Encoded compares its bytes).
                assert answer["result"] == expected["result"]
                assert answer["server"]["epoch"] == expected["server"]["epoch"]
            state.close()
        assert restarts == {"wal": 5, "snapshot": 5}

    def test_failed_checkpoint_is_logged_and_the_hosts_still_close(
        self, tmp_path, caplog
    ):
        state = ServerState()
        state.add_graph("broken", wal=str(tmp_path / "b.wal"))
        state.add_graph(
            "fine", wal=str(tmp_path / "f.wal"), snapshot=str(tmp_path / "f.rix")
        )
        broken = state.host("broken")
        broken.checkpoint_path = str(tmp_path)  # a directory: the write fails
        with caplog.at_level(logging.ERROR, logger="repro.server"):
            state.close()
        (record,) = [r for r in caplog.records if r.name == "repro.server"]
        message = record.getMessage()
        assert "'broken'" in message and str(tmp_path) in message
        assert record.exc_info is not None  # the traceback is logged
        assert broken.session.wal._handle.closed
        assert not list(tmp_path.glob("*.tmp.*"))  # the temp file is gone
        assert (tmp_path / "f.rix").exists()  # the next host still closed
        assert state.host("fine").session.wal._handle.closed


# --------------------------------------------------------------------- #
# The `repro serve` subprocess (the real deployment shape)
# --------------------------------------------------------------------- #
class TestServeSubprocess:
    def test_smoke_burst_and_clean_shutdown(self, tmp_path):
        graph_path = str(tmp_path / "graph.json")
        save_json(contact_tracing_example(), graph_path)
        reference = {
            name: serial_wire_answer(contact_tracing_example(), name)
            for name in ("Q1", "Q5", "Q10")
        }
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--graph",
                graph_path,
                "--port",
                "0",
                "--register",
                "Q1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=subprocess_env(),
        )
        try:
            port = None
            deadline = time.time() + 60
            while time.time() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.match(r"listening on [\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "server never printed its listening line"
            with ServerClient("127.0.0.1", port, timeout=60) as client:
                for _ in range(2):
                    for name in ("Q1", "Q5", "Q10"):
                        response = client.query(name)
                        assert response["result"]["families"] == reference[name]
                assert client.table("Q1")["result"]["families"] == reference["Q1"]
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_serve_flag_validation(self):
        env_cmd = [sys.executable, "-m", "repro", "serve"]
        backend = subprocess.run(
            env_cmd + ["--backend", "process", "--workers", "4"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert backend.returncode == 2
        assert "unrecognized arguments: --backend" in backend.stderr
        snap = subprocess.run(
            env_cmd + ["--snapshot", "c.rix"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert snap.returncode == 2
        assert "--snapshot requires --wal" in snap.stderr
        standby = subprocess.run(
            env_cmd + ["--standby-of", "not-an-endpoint"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert standby.returncode == 2
        assert "HOST:PORT" in standby.stderr
        window = subprocess.run(
            env_cmd
            + ["--standby-of", "127.0.0.1:1", "--failover-after", "0.5",
               "--heartbeat-interval", "1.0"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert window.returncode == 2
        assert "--failover-after" in window.stderr


# --------------------------------------------------------------------- #
# Lifecycle: health states, graceful drain, idle reaper, structured
# connection loss
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_health_reports_ready_primary(self):
        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state) as server:
            with ServerClient(server.host, server.port) as client:
                health = client.health()
        assert health["status"] == "ready"
        assert health["role"] == "primary"
        assert health["epochs"] == {"default": 0}
        # A primary is its own write target.
        assert health["primary"] == health["address"]

    def test_idle_timeout_answers_close_frame_then_disconnects(self):
        """Satellite 2+4: the idle reaper explains itself, then hangs up."""
        import socket as socket_module

        state = ServerState()
        state.add_graph("default")
        with BackgroundServer(state, idle_timeout=0.3) as server:
            with socket_module.create_connection(
                (server.host, server.port), timeout=30
            ) as idle:
                reader = idle.makefile("rb")
                line = reader.readline()  # blocks until the reaper answers
                assert line, "server hung up without the close frame"
                frame = decode(line)
                assert frame["ok"] is False
                assert frame["error"]["type"] == "ProtocolError"
                assert "idle" in frame["error"]["message"]
                assert reader.readline() == b""  # then the socket closes
            with ServerClient(server.host, server.port) as probe:
                assert probe.stats()["service"]["idle_closed"] >= 1

    def test_dead_server_raises_structured_connection_closed(self):
        """Satellite 3: connection loss is ConnectionClosed, not JSON noise."""
        state = ServerState()
        state.add_graph("default")
        server = BackgroundServer(state).start()
        host, port = server.host, server.port
        server.stop()
        client = ServerClient(
            host, port, retry=RetryPolicy(retries=1, base_delay=0.01)
        )
        with pytest.raises(ConnectionClosed) as excinfo:
            client.query("Q1")
        # Catchable both as a library error and as a plain socket error.
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ConnectionError)
        with pytest.raises(ConnectionClosed):
            client.apply_delta(example_batch(1).to_json_dict())

    def test_shutdown_while_in_flight_completes_and_answers(self):
        """Satellite 5: drain lets the admitted request answer first."""
        graph = contact_tracing_example()
        reference = serial_wire_answer(graph, "Q1")
        state = ServerState()
        state.add_graph("default")
        server = BackgroundServer(state, max_concurrency=2).start()
        slow = ServerClient(
            server.host, server.port, retry=RetryPolicy(retries=0)
        )
        control = ServerClient(server.host, server.port)
        outcome = {}
        done = threading.Event()

        def in_flight_query():
            try:
                outcome["response"] = slow.query("Q1")
            except Exception as error:  # pragma: no cover - the assertion below
                outcome["error"] = error
            done.set()

        try:
            # Every engine step stalls 0.15s, so the query is reliably
            # still executing when the drain begins.
            failpoints.arm("engine.step", "sleep", seconds=0.15, times=0)
            thread = threading.Thread(target=in_flight_query, daemon=True)
            thread.start()
            wait_until(lambda: server.server._inflight > 0)
            control.shutdown()
            done.wait(timeout=30)
            assert "error" not in outcome, outcome.get("error")
            assert outcome["response"]["result"]["families"] == reference
        finally:
            failpoints.disarm_all()
            slow.close()
            control.close()
            server.stop()
        wait_until(lambda: not server._thread.is_alive())
        assert control.request  # the drain answered before sockets closed

    def test_stats_surfaces_drain_and_replication_counters(self):
        state = ServerState()
        state.add_graph("default")
        server = BackgroundServer(state).start()
        try:
            with ServerClient(server.host, server.port) as client:
                stats = client.stats()
                service = stats["service"]
                assert service["status"] == "ready"
                assert service["role"] == "primary"
                assert service["drains"] == 0
                assert service["inflight"] >= 0
                assert stats["replication"] == {"shipped": 0, "graphs": {}}
        finally:
            server.stop()


# --------------------------------------------------------------------- #
# Replication: WAL shipping, standby reads, promotion, client failover
# --------------------------------------------------------------------- #
class TestReplication:
    @staticmethod
    def _primary(tmp_path, **options) -> BackgroundServer:
        state = ServerState()
        state.add_graph("default", wal=str(tmp_path / "primary.wal"))
        return BackgroundServer(
            state, heartbeat_interval=0.1, failover_after=1.0, **options
        ).start()

    @staticmethod
    def _standby(primary: BackgroundServer, **options) -> BackgroundServer:
        state = ServerState()
        state.add_graph("default")
        return BackgroundServer(
            state,
            standby_of=(primary.host, primary.port),
            heartbeat_interval=0.1,
            failover_after=1.0,
            **options,
        ).start()

    def test_shipped_frame_is_the_wal_record_encoded_once(self, tmp_path, monkeypatch):
        """The replication tap gets the very frame the WAL wrote: same
        bytes, same CRC, and the batch is checksummed once, not twice."""
        from repro.resilience import wal as wal_module

        state = ServerState()
        state.add_graph("default", wal=str(tmp_path / "primary.wal"))
        host = state.host("default")
        shipped = []
        host.on_applied.append(shipped.append)
        checksums = []
        checksum = wal_module._checksum
        monkeypatch.setattr(
            wal_module,
            "_checksum",
            lambda encoded: checksums.append(encoded) or checksum(encoded),
        )
        batches = [example_batch(1), example_batch(2)]
        for batch in batches:
            host.apply_delta(batch.to_json_dict())
        host.close()
        assert len(checksums) == len(batches)
        lines = (tmp_path / "primary.wal").read_text().splitlines()
        assert [json.loads(line) for line in lines] == shipped
        for line, frame, batch in zip(lines, shipped, batches):
            assert wal_module._encode_batch(frame) == line
            assert frame == wal_module.record_frame(
                frame["seq"], batch.to_json_dict()
            )
            assert wal_module.verify_frame(frame).to_json_dict() == frame["batch"]

    def test_standby_catches_up_and_follows_with_lag_labels(self, tmp_path):
        primary = self._primary(tmp_path)
        pc = ServerClient(primary.host, primary.port)
        pc.register("Q5", name="q5")
        # Batch 1 lands BEFORE the standby exists: the WAL catch-up path.
        pc.apply_delta(example_batch(1).to_json_dict())
        standby = self._standby(primary)
        sc = ServerClient(standby.host, standby.port)
        try:
            wait_until(lambda: sc.health()["status"] == "standby")
            # Batch 2 lands on a live subscription: the shipping path.
            pc.apply_delta(example_batch(2).to_json_dict())
            wait_until(lambda: sc.health()["epochs"]["default"] == 2)

            reference = contact_tracing_example()
            session_reference = ServerState()
            session_reference.add_graph("default")
            ref_host = session_reference.host("default")
            ref_host.apply_delta(example_batch(1).to_json_dict())
            ref_host.apply_delta(example_batch(2).to_json_dict())
            expected = ref_host.query("Q5")["result"]["families"]

            answer = sc.query("Q5")
            assert answer["result"]["families"] == expected
            assert answer["server"]["epoch"] == 2
            assert answer["server"]["role"] == "standby"
            assert answer["server"]["replication"]["lag"] == 0
            assert answer["server"]["replication"]["applied_seq"] == 2
            # The primary's stats see the acked standby.
            standbys = pc.stats()["replication"]["graphs"]["default"]["standbys"]
            assert len(standbys) == 1
            wait_until(lambda: pc.stats()["replication"]["graphs"]["default"][
                "standbys"][0]["acked_seq"] == 2)
        finally:
            pc.close()
            sc.close()
            standby.stop()
            primary.stop()

    def test_standby_refuses_writes_with_structured_not_primary(self, tmp_path):
        import socket as socket_module

        primary = self._primary(tmp_path)
        standby = self._standby(primary)
        try:
            sc = ServerClient(standby.host, standby.port)
            wait_until(lambda: sc.health()["status"] == "standby")
            sc.close()
            # Raw socket: no failover client in the way, so the raw
            # NotPrimary envelope (with its redirect data) is visible.
            with socket_module.create_connection(
                (standby.host, standby.port), timeout=30
            ) as raw:
                raw.sendall(
                    encode(
                        {
                            "op": "apply_delta",
                            "graph": "default",
                            "batch": example_batch(1).to_json_dict(),
                        }
                    )
                )
                response = decode(raw.makefile("rb").readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "NotPrimary"
            assert response["error"]["data"]["primary"] == (
                f"{primary.host}:{primary.port}"
            )
            # The failover client turns that rejection into a re-route:
            # the same write through the standby endpoint lands on the
            # primary and succeeds.
            with ServerClient(standby.host, standby.port) as routed:
                applied = routed.apply_delta(example_batch(1).to_json_dict())
            assert applied["server"]["role"] == "primary"
            assert applied["server"]["epoch"] == 1
        finally:
            standby.stop()
            primary.stop()

    def test_graceful_drain_promotes_standby_epoch_identical(self, tmp_path):
        primary = self._primary(tmp_path)
        pc = ServerClient(primary.host, primary.port)
        pc.register("Q5", name="q5")
        pc.apply_delta(example_batch(1).to_json_dict())
        standby = self._standby(primary)
        sc = ServerClient(standby.host, standby.port)
        try:
            wait_until(lambda: sc.health()["epochs"]["default"] == 1)
            pc.apply_delta(example_batch(2).to_json_dict())
            wait_until(lambda: sc.health()["epochs"]["default"] == 2)
            pc.shutdown()
            # The close frame promotes the standby immediately (no
            # failover window): role flips, writes open up.
            health = wait_until(
                lambda: (h := sc.health())["role"] == "primary" and h
            )
            assert health["status"] == "ready"
            assert health["fence"]["previous_primary"] == (
                f"{primary.host}:{primary.port}"
            )
            assert health["fence"]["fence_seq"] == {"default": 2}

            reference = ServerState()
            reference.add_graph("default")
            ref_host = reference.host("default")
            ref_host.apply_delta(example_batch(1).to_json_dict())
            ref_host.apply_delta(example_batch(2).to_json_dict())
            expected = ref_host.query("Q5")["result"]["families"]
            answer = sc.query("Q5")
            assert answer["result"]["families"] == expected
            assert answer["server"]["epoch"] == 2
            # The registered query replicated too and tracked both deltas.
            table = sc.table("q5")
            assert table["result"]["families"] == expected
            # Writes now succeed on the promoted standby.
            applied = sc.apply_delta(example_batch(3).to_json_dict())
            assert applied["server"]["epoch"] == 3
            assert applied["server"]["role"] == "primary"
        finally:
            pc.close()
            sc.close()
            standby.stop()
            primary.stop()

    def test_corrupt_frame_resubscribes_instead_of_promoting(self):
        """Regression (split brain): a record failing its checksum used to
        kill the standby's replication task, so it stopped reading the
        live primary's heartbeats and promoted itself.  Refusing the frame
        ends the session instead: the standby resubscribes from its own
        ``wal_seq``, applies the resent record and stays a standby."""
        import socket as socket_module

        intact = record_frame(1, example_batch(1).to_json_dict())
        corrupt = dict(intact, crc=(intact["crc"] + 1) % 2**32)
        subscribes = []
        stop = threading.Event()
        listener = socket_module.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)

        def session(conn):
            # A fake primary: the first session ships the damaged frame,
            # every later one the intact frame; all heartbeat at 0.2 s.
            with conn, conn.makefile("rb") as reader:
                request = decode(reader.readline())
                subscribes.append(request)
                conn.sendall(encode({"ok": True, "result": {"last_seq": 1}}))
                if request.get("from_seq") == 0:
                    frame = corrupt if len(subscribes) == 1 else intact
                    conn.sendall(encode({"kind": "record", "frame": frame}))
                try:
                    while not stop.wait(0.2):
                        conn.sendall(encode({"kind": "heartbeat", "last_seq": 1}))
                except OSError:
                    pass  # the standby ended this session

        def accept():
            while not stop.is_set():
                try:
                    conn, _peer = listener.accept()
                except OSError:
                    continue
                threading.Thread(target=session, args=(conn,), daemon=True).start()

        threading.Thread(target=accept, daemon=True).start()
        state = ServerState()
        state.add_graph("default")
        failover_after = 1.0
        standby = BackgroundServer(
            state,
            standby_of=listener.getsockname()[:2],
            heartbeat_interval=0.2,
            failover_after=failover_after,
        ).start()
        started = time.monotonic()
        try:
            with ServerClient(standby.host, standby.port) as client:
                while time.monotonic() - started < 2 * failover_after + 0.5:
                    health = client.health()
                    assert health["role"] == "standby", health
                    assert "fence" not in health
                    time.sleep(0.1)
                assert len(subscribes) >= 2
                assert state.host("default").session.wal_seq == 1
                assert health["epochs"]["default"] == 1
        finally:
            stop.set()
            standby.stop()
            listener.close()

    def test_failover_client_retries_reads_across_endpoints(self, tmp_path):
        primary = self._primary(tmp_path)
        standby = self._standby(primary)
        client = ServerClient(
            [(primary.host, primary.port), (standby.host, standby.port)],
            retry=RetryPolicy(retries=8, base_delay=0.05, max_delay=0.5),
        )
        try:
            probe = ServerClient(standby.host, standby.port)
            wait_until(lambda: probe.health()["status"] == "standby")
            probe.close()
            reference = serial_wire_answer(contact_tracing_example(), "Q1")
            assert client.query("Q1")["result"]["families"] == reference
            assert client.connected_to == (primary.host, primary.port)
            primary.stop()  # the endpoint the client is attached to dies
            # The retry loop rotates to the standby transparently.
            answer = client.query("Q1")
            assert answer["result"]["families"] == reference
            assert client.connected_to == (standby.host, standby.port)
        finally:
            client.close()
            standby.stop()
            primary.stop()


# --------------------------------------------------------------------- #
# Byte boundaries: arbitrary request lines, damaged replication frames
# --------------------------------------------------------------------- #
if st is not None:
    _JSON_VALUES = st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=4), children, max_size=3),
        ),
        max_leaves=6,
    )
    #: Every op but ``shutdown``, which would drain the server under test.
    _FUZZ_OPS = [op for op in protocol.OPS if op != "shutdown"]
    _FIELDS = (
        "graph", "query", "name", "batch", "limit", "deadline", "retries",
        "from_seq", "seq", "id",
    )

    @st.composite
    def _requests(draw) -> bytes:
        """One op with random fields of random types (plausible values too)."""
        request = {"op": draw(st.sampled_from(_FUZZ_OPS))}
        for field in draw(st.lists(st.sampled_from(_FIELDS), unique=True, max_size=4)):
            request[field] = draw(
                st.one_of(
                    _JSON_VALUES,
                    st.sampled_from(["default", "Q1", 0, 1, 2.5]),  # plausible
                    st.sampled_from([float("nan"), -float("inf"), 1e300, -1, True, [1]]),
                )
            )
        return json.dumps(request).encode()

    _REQUEST_LINES = st.one_of(
        st.binary(max_size=48),
        _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
        st.integers(1, 3000).map(lambda depth: b"[" * depth + b"]" * depth),
        _requests(),
    ).map(lambda line: line.replace(b"\n", b" ")).filter(lambda line: line.strip())

    #: Values a WAL position (``seq``) or checksum can never take.
    _NOT_COUNTS = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(max_value=-1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=4),
        st.lists(st.integers(0, 3), max_size=2),
    )
    _DAMAGE = st.one_of(
        st.tuples(st.sampled_from(["seq", "crc"]), st.integers(0, 62)),
        st.tuples(st.sampled_from(["seq-type", "crc-type"]), _NOT_COUNTS),
        st.tuples(st.just("batch"), st.integers(0, 10**6), st.integers(0, 7)),
        st.tuples(st.just("frame"), _JSON_VALUES.filter(lambda v: not isinstance(v, dict))),
        st.tuples(st.just("seq-overflow")),
    )

    def _damaged_lines(frame: dict, damage: tuple) -> list:
        """The wire lines of one record frame damaged in flight."""
        kind = damage[0]
        frame = dict(frame)
        if kind in ("seq", "crc"):
            frame[kind] ^= 1 << damage[1]
        elif kind in ("seq-type", "crc-type"):
            frame[kind[:3]] = damage[1]
        elif kind == "frame":
            frame = damage[1]
        line = encode({"kind": "record", "frame": frame})
        if kind == "batch":
            body = bytearray(json.dumps(frame["batch"], separators=(",", ":")).encode())
            body[damage[1] % len(body)] ^= 1 << damage[2]
            intact = json.dumps(frame["batch"], separators=(",", ":")).encode()
            line = line.replace(intact, bytes(body))
        elif kind == "seq-overflow":
            line = line.replace(b'"seq":%d' % frame["seq"], b'"seq":1e999')
        # A flipped bit can make a newline: the standby then reads two lines.
        return [piece + b"\n" for piece in line.rstrip(b"\n").split(b"\n")]

    class TestByteBoundaries:
        """ROADMAP item 9's wire and replication suites: arbitrary input
        turns into a structured refusal, never a stray exception, a
        missing reply or a desynchronized standby."""

        def test_every_request_line_gets_one_strict_json_reply(self):
            import socket as socket_module

            state = ServerState()
            state.add_graph("default")
            # Errors are collected while the server runs: its teardown
            # cancels connection tasks, which this asyncio may log.
            with BackgroundServer(state) as server, asyncio_errors() as errors:
                connection: dict = {}

                def connect():
                    raw = socket_module.create_connection(
                        (server.host, server.port), timeout=30
                    )
                    connection.update(raw=raw, reader=raw.makefile("rb"))

                def disconnect():
                    connection["reader"].close()
                    connection["raw"].close()

                def exchange(line: bytes) -> dict:
                    connection["raw"].sendall(line + b"\n")
                    return strict_json(connection["reader"].readline())

                @settings(max_examples=80, deadline=None, derandomize=True)
                @given(lines=st.lists(_REQUEST_LINES, min_size=1, max_size=4))
                def check(lines):
                    for line in lines:
                        reply = exchange(line)  # exactly one, and strict JSON
                        assert isinstance(reply["ok"], bool), (line, reply)
                        try:
                            request = strict_json(line.decode("utf-8"))
                        except (ValueError, RecursionError):
                            request = None
                        if not isinstance(request, dict):
                            assert reply["error"]["type"] == "ProtocolError", line
                        elif (
                            request.get("op") == "replicate.subscribe"
                            and reply["error"]["type"] != "ProtocolError"
                        ):
                            # Well-formed: the connection became a (refused)
                            # replication stream and was closed.
                            disconnect()
                            connect()
                    pong = exchange(encode({"op": "ping", "id": "after"}).rstrip())
                    assert pong["ok"] is True and pong["id"] == "after"

                connect()
                try:
                    check()
                finally:
                    disconnect()
                time.sleep(0.1)  # let a dying handler reach the logger
                assert not [record.getMessage() for record in errors]

        _FRAMES = [
            record_frame(seq, example_batch(seq).to_json_dict()) for seq in (1, 2, 3)
        ]
        _LINES = [encode({"kind": "record", "frame": frame}) for frame in _FRAMES]

        @classmethod
        def _replicate(cls, first_session: list) -> tuple:
            """Drive a fresh standby's per-frame handling, no sockets: the
            first session reads ``first_session``; each refusal ends it and
            the next session reads the primary's catch-up from the
            standby's own ``wal_seq``.  Returns ``(refusals, host)``."""
            import asyncio

            from repro.errors import WALCorruptError
            from repro.server.replication import StandbyRunner

            state = ServerState()
            state.add_graph("default")
            host = state.host("default")
            host.register("Q5", name="q5")
            runner = StandbyRunner(None, state, ("127.0.0.1", 9))

            async def sessions() -> int:
                loop = asyncio.get_running_loop()
                lines = first_session
                for refusals in range(3):
                    try:
                        for line in lines:
                            await runner._on_frame(loop, "default", host, line)
                        return refusals
                    except WALCorruptError:
                        lines = cls._LINES[host.session.wal_seq :]
                raise AssertionError("the catch-up itself was refused")

            return asyncio.run(sessions()), host

        @staticmethod
        def _answer(host) -> tuple:
            table = host.table("q5")
            return host.session.wal_seq, table["server"]["epoch"], table["result"]

        @pytest.fixture(scope="class")
        def never_corrupted(self):
            refusals, host = self._replicate(self._LINES)
            assert refusals == 0
            return self._answer(host)

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(position=st.integers(0, 2), damage=_DAMAGE)
        def test_damaged_frame_is_refused_without_desync(
            self, never_corrupted, position, damage
        ):
            lines = self._LINES
            refusals, host = self._replicate(
                lines[:position]
                + _damaged_lines(self._FRAMES[position], damage)
                + lines[position + 1 :]
            )
            assert refusals == 1, damage
            assert self._answer(host) == never_corrupted
