"""The per-layer ledger: what each ``src/repro`` package costs on a workload's inputs.

``run.py --trace 1`` runs this instead of the timed window.  Every
workload gets the same four probes on *its own* graph, scale and query
classes, so every per-layer metric exists for every workload:

1. **build** — ``load_json``, ``graph_index_for``, ``store.compile_graph``,
   ``store.attach`` and the first pass on an attached graph;
2. **replay** — the workload's queries replayed in this process through
   the served path (``protocol.decode`` → ``GraphHost.query`` →
   ``protocol.encode`` → client ``decode``) and, beside it, through the
   engine alone (``parse_match``, ``compile_match``, ``prepare``,
   ``match_with_stats``, ``families_to_wire``), each call inside a span;
   ``stream_ingest`` applies one delta batch per round first, so its
   reads are plan-cache misses.  The same replay runs once more with the
   tracer off: the ratio is ``harness.trace_overhead_ratio``;
3. **stream** — a few delta batches through ``DeltaBatch.from_json_dict``,
   ``StreamingEngine.apply``, ``DeltaWAL.append`` and ``scan_wal``;
4. **service** — a real ``repro serve`` booted the workload's way: pings,
   a solo light pass (round trip minus the envelope's ``server.seconds``
   is the service overhead) and the same pass while a second connection
   loops Q5/Q11/Q12 (the difference is the lock wait).

Spans live in the benchmark's files, around calls into each layer; the
program itself is not instrumented.  A probe that hits ``ImportError``,
``AttributeError`` or ``TypeError`` on a refactored API leaves its
metrics ``null`` with the reason and the run continues.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import harness
import workloads
from workloads import TEXT, Tally

#: The lock-wait probe's second connection always loops the compute-heavy
#: joins, whatever the workload's own heavy class is.
LOCK_HOLDERS = ("Q5", "Q11", "Q12")
STREAM_PROBE_BATCHES = 6
SOLO_SAMPLES = 200
PINGS = 200


class Ledger:
    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.reasons: list[str] = []

    def put(self, name: str, value: float, unit: str, samples=None) -> None:
        self.metrics[name] = harness.metric(value, unit, samples)

    @contextmanager
    def probe(self, what: str):
        """Degrade, not crash: a moved or deleted internal costs its metrics only."""
        try:
            yield
        except (ImportError, AttributeError, TypeError) as error:
            self.reasons.append(f"{what} probe: {type(error).__name__}: {error}")

    def finish(self) -> dict[str, dict]:
        for declared in harness.spec()["per_layer"]:
            if declared["name"] not in self.metrics:
                entry = harness.metric(None, declared["unit"])
                entry["reason"] = "; ".join(self.reasons) or "not measured"
                self.metrics[declared["name"]] = entry
        return self.metrics


def ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


# --------------------------------------------------------------------- #
# 1. build
# --------------------------------------------------------------------- #
def build_probe(ledger: Ledger, inputs: workloads.Inputs) -> None:
    from repro.dataflow import DataflowEngine
    from repro.model import graph_statistics
    from repro.model.io import load_json
    from repro.perf.graph_index import graph_index_for
    from repro.store import attach, compile_graph

    ledger.put("datagen.generate_s", inputs.generate_seconds, "s")
    loads, builds = [], []
    for _ in range(3):
        start = time.perf_counter()
        graph = load_json(inputs.graph_path)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        graph_index_for(graph)
        builds.append(ms_since(start))
    ledger.put("model.load_json_s", harness.median(loads), "s", loads)
    ledger.put("perf.index_build_ms", harness.median(builds), "ms", builds)

    path = str(inputs.workdir / "ledger.idx")
    start = time.perf_counter()
    report = compile_graph(graph, path)
    ledger.put("store.compile_s", time.perf_counter() - start, "s")
    stats = graph_statistics(graph)
    ledger.put(
        "store.bytes_per_temporal_object",
        report["bytes"] / (stats.num_temporal_nodes + stats.num_temporal_edges),
        "bytes/object",
    )
    attaches, first_passes = [], []
    for _ in range(3):
        start = time.perf_counter()
        attachment = attach(path)
        attaches.append(ms_since(start))
        engine = DataflowEngine(attachment.graph)
        start = time.perf_counter()
        for name in inputs.scenario.light:
            engine.match(TEXT[name])
        first_passes.append(ms_since(start))
    ledger.put("store.attach_ms", harness.median(attaches), "ms", attaches)
    ledger.put("store.first_pass_ms", harness.median(first_passes), "ms", first_passes)


# --------------------------------------------------------------------- #
# 2. replay
# --------------------------------------------------------------------- #
def replay(inputs: workloads.Inputs, tracer: harness.Tracer, tally: Tally, *, budget, rounds=None):
    """Replay the workload's queries in-process; returns ``(rounds, answers)``.

    Runs for ``budget`` seconds (at least two rounds), or exactly
    ``rounds`` rounds when given.
    """
    from repro.lang.parser import parse_match
    from repro.lang.translate import compile_match
    from repro.model.io import load_json
    from repro.server import GraphHost
    from repro.server.protocol import (
        decode,
        encode,
        families_to_wire,
        ok_response,
        rows_to_wire,
    )

    scenario = inputs.scenario
    graph = load_json(inputs.graph_path)
    if inputs.batches:
        wal = inputs.workdir / f"replay-{int(tracer.enabled)}.wal"
        host = GraphHost("default", graph, wal=str(wal))
        for name in workloads.REGISTERED:
            host.register(name)
    else:
        host = GraphHost("default", graph)
    engine = host.engine
    answers: dict[str, list] = {}
    done = 0
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return done < rounds
        return done < 2 or time.perf_counter() - start < budget

    while more():
        if inputs.batches:
            with tracer.span("server.state.apply_delta", f"{done}:write"):
                host.apply_delta(inputs.batches[done])
        for cls, queries in (("light", scenario.light), ("heavy", scenario.heavy)):
            for name in queries:
                rid = f"{done}:{cls}:{name}"
                line = encode({"op": "query", "graph": "default", "query": name, "id": rid})
                with tracer.span("request", rid):
                    with tracer.span("server.protocol.request_decode"):
                        request = decode(line)
                    with tracer.span("server.state.query") as span:
                        out = host.query(request["query"])
                        if span:
                            span.counts["engine_seconds"] = out["result"]["total_seconds"]
                            span.counts["plan_hit"] = int(out["server"]["plan"] == "hit")
                    with tracer.span("server.protocol.encode") as span:
                        wire = encode(
                            ok_response(out["result"], request=request, server=out["server"])
                        )
                        if span:
                            span.counts["bytes"] = len(wire)
                    with tracer.span("server.client.decode"):
                        response = decode(wire)
                answer = workloads.served_answer(response)
                if name in inputs.expected:
                    tally.op(answer == inputs.expected[name], f"replay {name}: wrong answer")
                answers.setdefault(name, answer)
                text = TEXT[name]
                with tracer.span("engine", rid + ":direct"):
                    with tracer.span("lang.parse"):
                        parse_match(text)
                    with tracer.span("lang.compile"):
                        compile_match(text)
                    with tracer.span("dataflow.prepare"):
                        plan = engine.prepare(text)
                    with tracer.span("dataflow.match") as span:
                        result = engine.match_with_stats(plan)
                        if span:
                            families = getattr(result.table, "families", ())
                            span.counts.update(
                                interval_seconds=result.interval_seconds,
                                total_seconds=result.total_seconds,
                                frontier_rows=result.frontier_rows,
                                rows_merged=result.rows_merged,
                                output_families=len(families),
                                output_points=result.output_size,
                            )
                    with tracer.span("server.protocol.payload"):
                        if hasattr(result.table, "families"):
                            families_to_wire(result.table.families)
                        else:
                            rows_to_wire(result.table.rows)
        done += 1
    host.close()
    return done, answers


def replay_metrics(ledger: Ledger, tracer: harness.Tracer) -> None:
    """Turn the replay's spans into the ``lang`` / ``dataflow`` / ``server`` metrics."""
    by_name = defaultdict(list)
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        by_name[span.name].append(span)

    def parts(span):  # request ids are "<round>:<class>:<query>[:direct]"
        round_, cls, query = span.request_id.split(":")[:3]
        return int(round_), cls, query

    def per_round(name: str, value=lambda span: span.seconds * 1e3, cls=None) -> list[list[float]]:
        rounds = defaultdict(list)
        for span in by_name[name]:
            round_, span_cls, _ = parts(span)
            if cls in (None, span_cls):
                rounds[round_].append(value(span))
        return [rounds[key] for key in sorted(rounds)]

    def put_class_latency(metric: str, unit: str, rounds: list[list[float]]) -> None:
        ledger.metrics[metric] = harness.class_latency_metric(rounds, unit)

    for metric, name in (
        ("lang.parse_us", "lang.parse"),
        ("lang.compile_us", "lang.compile"),
        ("dataflow.prepare_us", "dataflow.prepare"),
        ("server.protocol.request_decode_us", "server.protocol.request_decode"),
    ):
        samples = [span.seconds * 1e6 for span in by_name[name]]
        ledger.put(metric, harness.median(samples), "us", samples)

    matches = by_name["dataflow.match"]
    for cls in ("light", "heavy"):
        put_class_latency(f"dataflow.match_ms.{cls}", "ms", per_round("dataflow.match", cls=cls))
        put_class_latency(
            f"dataflow.interval_ms.{cls}",
            "ms",
            per_round("dataflow.match", lambda s: s.counts["interval_seconds"] * 1e3, cls),
        )
        put_class_latency(
            f"dataflow.materialize_ms.{cls}",
            "ms",
            per_round(
                "dataflow.match",
                lambda s: (s.counts["total_seconds"] - s.counts["interval_seconds"]) * 1e3,
                cls,
            ),
        )
    # Counts of the first round: they repeat exactly at a fixed seed.
    first = [span for span in matches if parts(span)[0] == 0]
    for count in ("frontier_rows", "rows_merged", "output_families", "output_points"):
        ledger.put(f"dataflow.{count}", sum(span.counts[count] for span in first), "count")
    heavy = [span for span in matches if parts(span)[1] == "heavy"]
    ledger.put(
        "dataflow.us_per_frontier_row",
        sum(s.seconds for s in heavy) * 1e6 / max(1, sum(s.counts["frontier_rows"] for s in heavy)),
        "us",
    )
    scans = [s for s in matches if parts(s)[1] == "light" and s.counts["output_families"]]
    ledger.put(
        "dataflow.us_per_output_family",
        sum(s.seconds for s in scans) * 1e6 / max(1, sum(s.counts["output_families"] for s in scans)),
        "us",
    )

    for metric, name in (
        ("server.protocol.payload_ms", "server.protocol.payload"),
        ("server.protocol.encode_ms", "server.protocol.encode"),
        ("server.client.decode_ms", "server.client.decode"),
        ("server.state.query_ms", "server.state.query"),
    ):
        put_class_latency(metric, "ms", per_round(name))
    encodes = [s for s in by_name["server.protocol.encode"] if parts(s)[0] == 0]
    ledger.put(
        "server.protocol.response_bytes",
        statistics.fmean(s.counts["bytes"] for s in encodes),
        "bytes",
    )
    # GraphHost.query cannot be opened from outside: its own share is its
    # span minus the engine time it reports minus the payload conversion
    # measured on the same query in the engine-only leg.
    payload_ms = {s.request_id: s.seconds * 1e3 for s in by_name["server.protocol.payload"]}
    put_class_latency(
        "server.state.self_ms",
        "ms",
        per_round(
            "server.state.query",
            lambda s: (s.seconds - s.counts["engine_seconds"]) * 1e3
            - payload_ms[by_id[s.parent].request_id + ":direct"],
        ),
    )
    ratios = [
        sum(q) / sum(m)
        for q, m in zip(per_round("server.state.query"), per_round("dataflow.match"))
    ]
    ledger.put("server.state.served_over_engine", harness.median(ratios), "ratio", ratios)
    # Of the light reads only: the heavy class is not ad-hoc traffic on
    # every workload (``stream_ingest`` keeps its heavy queries registered).
    lookups = [s.counts["plan_hit"] for s in by_name["server.state.query"] if parts(s)[1] == "light"]
    ledger.put("server.plans.hit_ratio", statistics.fmean(lookups), "ratio")


def columnar_share() -> float:
    """Fraction of Q1-Q12 a default engine would run on the columnar kernel."""
    from repro.dataflow import DataflowEngine
    from repro.model import contact_tracing_example

    engine = DataflowEngine(contact_tracing_example())
    kernels = [engine.explain(text).get("effective_kernel") for text in TEXT.values()]
    return kernels.count("columnar") / len(kernels)


# --------------------------------------------------------------------- #
# 3. stream
# --------------------------------------------------------------------- #
def stream_probe(ledger: Ledger, inputs: workloads.Inputs, tracer: harness.Tracer) -> None:
    from repro.datagen import contact_tracing_stream
    from repro.model.io import load_json
    from repro.resilience.wal import DeltaWAL, scan_wal
    from repro.streaming import StreamingEngine
    from repro.streaming.delta import DeltaBatch

    if inputs.batches:
        graph, payloads = load_json(inputs.graph_path), inputs.batches
    else:
        stream = contact_tracing_stream(
            inputs.scenario.scale.config(
                positivity_rate=workloads.POSITIVITY, seed=workloads.GENERATOR_SEED
            ),
            batch_size=workloads.STREAM_BATCH,
            initial_fraction=0.5,
        )
        graph = stream.fresh_initial()
        payloads = [batch.to_json_dict() for batch in stream.batches]
    payloads = payloads[:STREAM_PROBE_BATCHES]
    engine = StreamingEngine(graph)
    for name in workloads.REGISTERED:
        engine.register(TEXT[name], name=name)
    path = inputs.workdir / "ledger.wal"
    affected = total = recomputed = 0
    with DeltaWAL(str(path)) as wal:
        for number, payload in enumerate(payloads):
            with tracer.span("stream", f"stream:{number}"):
                with tracer.span("streaming.batch_decode"):
                    batch = DeltaBatch.from_json_dict(payload)
                with tracer.span("streaming.apply"):
                    applied = engine.apply(batch)
                with tracer.span("resilience.wal_append"):
                    wal.append(batch)
                with tracer.span("streaming.table_read"):
                    engine.table("Q5")
            affected += applied.affected_seeds
            total += applied.total_seeds
            recomputed += sum(update.recomputed_all for update in applied.queries)
    with tracer.span("resilience.wal_scan", "stream:scan"):
        scan_wal(str(path))
    for metric, name in (
        ("streaming.batch_decode_ms", "streaming.batch_decode"),
        ("streaming.apply_ms", "streaming.apply"),
        ("streaming.table_read_ms", "streaming.table_read"),
        ("resilience.wal_append_ms", "resilience.wal_append"),
        ("resilience.wal_scan_ms", "resilience.wal_scan"),
    ):
        samples = [span.seconds * 1e3 for span in tracer.named(name)]
        ledger.put(metric, harness.median(samples), "ms", samples)
    ledger.put("streaming.affected_seed_ratio", affected / max(1, total), "ratio")
    ledger.put("streaming.recomputed_all", recomputed, "count")
    ledger.put(
        "resilience.wal_bytes_per_event",
        os.path.getsize(path) / (len(payloads) * workloads.STREAM_BATCH),
        "bytes/event",
    )


# --------------------------------------------------------------------- #
# 4. service
# --------------------------------------------------------------------- #
def service_probe(ledger: Ledger, inputs: workloads.Inputs, tally: Tally) -> None:
    light = inputs.scenario.light
    server, client, _ = workloads.boot(
        inputs, lambda c: workloads.served_pass(tally, c, inputs.expected, light)
    )
    contender = workloads.Contender(server, LOCK_HOLDERS, {})
    try:
        pings = []
        for _ in range(PINGS):
            start = time.perf_counter()
            client.ping()
            pings.append((time.perf_counter() - start) * 1e6)
        solo, overhead = [], []
        while sum(map(len, solo)) < SOLO_SAMPLES:
            latencies = []
            for name in light:
                ms, ok, response = workloads.call(
                    tally, name, client.query, name, expect=inputs.expected.get(name)
                )
                latencies.append(ms)
                if ok:
                    overhead.append(ms - response["server"]["seconds"] * 1e3)
            solo.append(latencies)
        contender.start()
        time.sleep(workloads.THINK_SECONDS)
        contended = []
        start = time.perf_counter()
        while len(contended) < 3 or time.perf_counter() - start < 2.0:
            results = workloads.served_pass(
                tally, client, inputs.expected, light, pause=workloads.THINK_SECONDS
            )
            contended.append([ms for ms, _ in results])
        rejected = client.stats()["service"]["rejected"]
    finally:
        contender.halt.set()
        if contender.ident is not None:
            contender.join(timeout=60)
        client.close()
        server.stop()
    tally.merge(contender.tally)
    ledger.put("server.service.ping_us", harness.median(pings), "us", pings)
    ledger.put("server.service.overhead_ms", harness.median(overhead), "ms", overhead)
    ledger.put("server.service.rejected", rejected, "count")
    ledger.put(
        "server.state.lock_wait_ms",
        harness.class_latency(contended) - harness.class_latency(solo),
        "ms",
    )
    flat = [ms for latencies in solo for ms in latencies]
    ledger.put("client.light_p95_ms", harness.tail_percentile(flat)[1], "ms", flat)


# --------------------------------------------------------------------- #
def run(inputs: workloads.Inputs, seconds: float):
    """The traced pass → ``(metrics, tally, digests)``."""
    ledger, tally, tracer = Ledger(), Tally(), harness.Tracer()
    answers: dict[str, list] = {}
    with ledger.probe("build"):
        build_probe(ledger, inputs)
    with ledger.probe("replay"):
        start = time.perf_counter()
        rounds, answers = replay(inputs, tracer, tally, budget=seconds * 0.3)
        traced = time.perf_counter() - start
        gc.collect()  # the first replay's graph must not tax the second one's collector
        start = time.perf_counter()
        replay(inputs, harness.Tracer(enabled=False), Tally(), budget=0, rounds=rounds)
        untraced = time.perf_counter() - start
        ledger.put("harness.trace_overhead_ratio", traced / untraced, "ratio")
        replay_metrics(ledger, tracer)
        ledger.put("dataflow.columnar_share", columnar_share(), "ratio")
    with ledger.probe("stream"):
        stream_probe(ledger, inputs, tracer)
    with ledger.probe("service"):
        service_probe(ledger, inputs, tally)
    harness.OUT.mkdir(exist_ok=True)
    tracer.write(harness.OUT / f"trace_{inputs.scenario.name}.jsonl")
    digests = {name: workloads.digest(answer) for name, answer in answers.items()}
    return ledger.finish(), tally, digests
