"""Command-line interface for the TRPQ library.

The CLI exposes the most common workflows without writing Python:

* ``python -m repro generate`` — generate a synthetic contact-tracing
  ITPG and save it as JSON;
* ``python -m repro stats`` — print Table-I statistics of a saved graph;
* ``python -m repro query`` — evaluate a MATCH clause over a saved graph
  (or over the built-in Figure-1 running example) and print the binding
  table; with ``--stream deltas.jsonl`` a streaming session keeps the
  query answered while delta batches are applied, re-reporting after each;
* ``python -m repro serve`` — run the always-on query service: graphs
  and their compiled indexes stay resident, execution plans are cached,
  and clients speak JSON lines over TCP (see RELIABILITY.md);
* ``python -m repro compile`` — compile a graph's index into a
  persistent ``repro-index`` artifact; ``query --store`` and
  ``serve --store`` then attach it in O(1) instead of loading JSON and
  recompiling;
* ``python -m repro example`` — dump the Figure-1 running example as
  JSON, as a starting point for experimentation.

Every command reads/writes the JSON format of :mod:`repro.model.io`;
``compile`` writes the binary artifact format of :mod:`repro.store`.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Optional, Sequence

from repro.datagen import ContactTracingConfig, TrajectoryConfig, generate_contact_tracing_graph
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import ReproError
from repro.eval import ReferenceEngine
from repro.eval.bindings import IntervalBindingTable
from repro.model import contact_tracing_example, graph_statistics
from repro.model.io import load_json, save_json


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float (``--deadline``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (``--retries``, ``--workers``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (``--snapshot-every``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal regular path queries over temporal property graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic contact-tracing graph")
    generate.add_argument("--persons", type=int, default=200, help="number of Person nodes")
    generate.add_argument("--locations", type=int, default=80, help="number of campus locations")
    generate.add_argument("--rooms", type=int, default=20, help="number of Room nodes")
    generate.add_argument("--windows", type=int, default=48, help="number of time windows")
    generate.add_argument("--positivity", type=float, default=0.05, help="positivity rate (0..1)")
    generate.add_argument("--seed", type=int, default=11, help="random seed")
    generate.add_argument("--output", "-o", required=True, help="output JSON path")
    generate.add_argument(
        "--stream-batches",
        type=int,
        default=None,
        metavar="N",
        help="emit a streaming workload instead of one graph: write the "
        "initial prefix graph to --output and N delta batches (JSON lines, "
        "replayable via 'query --stream') to --stream-output",
    )
    generate.add_argument(
        "--stream-output",
        default=None,
        metavar="PATH",
        help="delta-batch output path (required with --stream-batches)",
    )
    generate.add_argument(
        "--stream-initial",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="share of events in the initial prefix graph (default 0.5)",
    )

    stats = sub.add_parser("stats", help="print Table-I statistics of a graph")
    stats.add_argument("graph", help="path to a graph JSON file")

    query = sub.add_parser("query", help="evaluate a MATCH clause over a graph")
    query.add_argument("match", help="a MATCH clause, or the name of a paper query (Q1..Q12)")
    query.add_argument("--graph", help="path to a graph JSON file (default: Figure-1 example)")
    query.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="attach a compiled repro-index artifact written by 'repro "
        "compile' instead of loading a JSON graph (dataflow engine only; "
        "mutually exclusive with --graph)",
    )
    query.add_argument(
        "--engine",
        choices=("dataflow", "reference"),
        default="dataflow",
        help="evaluation engine to use (reference: the bottom-up ground truth)",
    )
    query.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        help="dataflow worker processes (0 = one per CPU core; 1 = evaluate "
        "in this process)",
    )
    query.add_argument(
        "--limit", type=_nonnegative_int, default=25, help="rows to print (0 = all)"
    )
    query.add_argument("--stats", action="store_true", help="print timing and output size")
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the execution plan (backend, kernel, workers, weighted "
        "chunk plan) before the results",
    )
    query.add_argument(
        "--intervals",
        action="store_true",
        help="print the coalesced interval output (one line per binding tuple "
        "with its maximal validity intervals) instead of expanding point rows",
    )
    query.add_argument(
        "--stream",
        default=None,
        metavar="PATH",
        help="apply delta batches from PATH (JSON lines, one DeltaBatch "
        "object per line) through a streaming session, re-reporting the "
        "match after each batch (dataflow engine only)",
    )
    query.add_argument(
        "--deadline",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock budget; on expiry the query is cancelled "
        "with a structured DeadlineExceeded error (dataflow engine only)",
    )
    query.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="retry crash-shaped worker-process failures up to N times with "
        "exponential backoff, then degrade process -> serial "
        "(dataflow engine only; default: fail fast)",
    )
    query.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="with --stream: append every applied batch to a checksummed "
        "write-ahead log at PATH (replayable via 'repro recover')",
    )
    query.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="with --stream: periodically write an atomic engine snapshot "
        "to PATH (see --snapshot-every)",
    )
    query.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help="snapshot after every N applied batches (default 1; "
        "requires --snapshot)",
    )

    recover = sub.add_parser(
        "recover",
        help="rebuild a streaming session from a snapshot plus WAL tail",
    )
    recover.add_argument("--snapshot", required=True, help="snapshot JSON path")
    recover.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="delta WAL to replay on top of the snapshot (records already "
        "captured by the snapshot are skipped; a torn final record is "
        "dropped and reported)",
    )
    recover.add_argument(
        "--match",
        default=None,
        help="after recovery, print this registered query's table (defaults "
        "to reporting the recovered queries without printing tables)",
    )
    recover.add_argument(
        "--limit", type=_nonnegative_int, default=25, help="rows to print (0 = all)"
    )
    recover.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="save the recovered graph as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="run the always-on query service (JSON lines over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port",
        type=_nonnegative_int,
        default=0,
        help="listen port (0 = pick a free port; the bound port is printed)",
    )
    serve.add_argument(
        "--graph",
        default=None,
        metavar="PATH",
        help="graph JSON to keep resident as 'default' (default: the "
        "Figure-1 running example)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="attach a compiled repro-index artifact as the resident graph "
        "instead of loading --graph; restarts skip index compilation "
        "(an existing --snapshot still wins)",
    )
    serve.add_argument(
        "--name",
        default="default",
        help="name the resident graph is addressed by (default: 'default')",
    )
    serve.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        help="dataflow worker processes per query (0 = one per CPU core; "
        "1 = evaluate in the server process)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=_positive_int,
        default=4,
        help="heavy requests executing at once (default 4)",
    )
    serve.add_argument(
        "--max-queue",
        type=_nonnegative_int,
        default=16,
        help="heavy requests allowed to wait before Overloaded rejection "
        "(default 16; 0 = reject as soon as all slots are busy)",
    )
    serve.add_argument(
        "--plan-cache",
        type=_positive_int,
        default=128,
        metavar="N",
        help="compiled-plan cache capacity per graph (default 128)",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="append applied delta batches to a checksummed WAL; on "
        "restart the WAL tail is replayed so the resident graph catches up",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="periodically write an atomic session snapshot; on restart "
        "an existing snapshot (plus the WAL tail) is recovered instead of "
        "re-loading --graph",
    )
    serve.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help="snapshot after every N applied batches (default 1; "
        "requires --snapshot)",
    )
    serve.add_argument(
        "--register",
        action="append",
        default=None,
        metavar="QUERY",
        help="register a continuously-answered query at startup (repeatable; "
        "a MATCH clause or a paper-query name Q1..Q12)",
    )
    serve.add_argument(
        "--standby-of",
        default=None,
        metavar="HOST:PORT",
        help="run as a read-only hot standby of the primary at HOST:PORT: "
        "subscribe to its WAL stream, apply shipped deltas, refuse writes "
        "with NotPrimary, and promote on sustained loss of the primary",
    )
    serve.add_argument(
        "--drain-timeout",
        type=_positive_float,
        default=10.0,
        metavar="SECONDS",
        help="graceful-shutdown budget: in-flight requests get this long to "
        "finish and answer before sockets close (default 10)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="close client connections idle for this long, answering a "
        "ProtocolError close frame first (default: never)",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="replication heartbeat cadence on idle subscriptions (default 1)",
    )
    serve.add_argument(
        "--failover-after",
        type=_positive_float,
        default=5.0,
        metavar="SECONDS",
        help="a standby promotes itself after this long without contact "
        "with the primary (default 5)",
    )

    compile_cmd = sub.add_parser(
        "compile",
        help="compile a graph's index into a persistent repro-index artifact",
    )
    compile_cmd.add_argument(
        "--graph",
        default=None,
        metavar="PATH",
        help="graph JSON to compile (default: the Figure-1 running example)",
    )
    compile_cmd.add_argument(
        "--output", "-o", required=True, help="artifact output path"
    )
    compile_cmd.add_argument(
        "--verify",
        action="store_true",
        help="re-attach the written artifact and checksum every section "
        "before reporting success",
    )

    example = sub.add_parser("example", help="write the Figure-1 running example as JSON")
    example.add_argument("--output", "-o", required=True, help="output JSON path")

    return parser


def _load_graph(path: Optional[str]):
    if path is None:
        return contact_tracing_example()
    return load_json(path)


def _resolve_query(text: str) -> str:
    if text in PAPER_QUERIES:
        return PAPER_QUERIES[text].text
    return text


def _cmd_generate(args: argparse.Namespace) -> int:
    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=args.persons,
            num_locations=args.locations,
            num_rooms=args.rooms,
            num_windows=args.windows,
            seed=args.seed,
        ),
        positivity_rate=args.positivity,
        seed=args.seed,
    )
    if args.stream_batches is not None:
        if args.stream_output is None:
            print(
                "error: --stream-batches requires --stream-output",
                file=sys.stderr,
            )
            return 2
        from repro.datagen.streaming import contact_tracing_stream

        stream = contact_tracing_stream(
            config,
            num_batches=args.stream_batches,
            initial_fraction=args.stream_initial,
        )
        save_json(stream.initial, args.output)
        with open(args.stream_output, "w", encoding="utf-8") as handle:
            for batch in stream.batches:
                handle.write(json.dumps(batch.to_json_dict()) + "\n")
        print(
            f"wrote {args.output}: initial prefix with "
            f"{stream.initial.num_nodes()} nodes, {stream.initial.num_edges()} "
            f"edges ({stream.initial_events}/{stream.total_events} events)"
        )
        print(
            f"wrote {args.stream_output}: {len(stream.batches)} delta batches "
            f"(replay with: repro query <MATCH> --graph {args.output} "
            f"--stream {args.stream_output})"
        )
        return 0
    graph = generate_contact_tracing_graph(config)
    save_json(graph, args.output)
    stats = graph_statistics(graph)
    print(
        f"wrote {args.output}: {stats.num_nodes} nodes, {stats.num_edges} edges, "
        f"{stats.num_temporal_nodes} temporal nodes, {stats.num_temporal_edges} temporal edges"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    stats = graph_statistics(graph).as_row()
    width = max(len(key) for key in stats)
    for key, value in stats.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def _print_families(families, limit: Optional[int]) -> None:
    """Render coalesced ``(bindings, IntervalSet)`` families, one per line."""
    ordered = sorted(
        families, key=lambda family: tuple(repr(obj) for _name, obj in family[0])
    )
    shown = ordered if limit is None else ordered[:limit]
    for bindings, times in shown:
        bound = ", ".join(f"{name}={obj}" for name, obj in bindings) or "<match>"
        spans = " u ".join(f"[{iv.start},{iv.end}]" for iv in times)
        print(f"{bound} @ {spans}")
    if limit is not None and len(ordered) > limit:
        print(f"... ({len(ordered) - limit} more families)")


def _print_explain(plan: dict) -> None:
    """Render :meth:`DataflowEngine.explain` output, one ``#`` line each."""
    print(
        f"# plan: backend={plan['effective_backend']}, "
        f"workers={plan['workers']}, output={plan['output_mode']}"
    )
    print(f"# plan: kernel={plan['effective_kernel']}")
    print(
        f"# plan: {plan['seed_rows']} seed rows, {plan['chain_steps']} chain steps, "
        f"{len(plan['chunks'])} chunk(s)"
    )
    for position, chunk in enumerate(plan["chunks"]):
        print(
            f"# plan: chunk {position}: {chunk['seeds']} seeds, "
            f"weight {chunk['weight']}"
        )


def _run_stream(
    engine: DataflowEngine,
    text: str,
    path: str,
    wal: Optional[str] = None,
    snapshot: Optional[str] = None,
    snapshot_every: int = 1,
) -> None:
    """The --stream loop: apply each batch, report the output drift.

    Every line is validated by :func:`repro.streaming.read_delta_stream`
    *before* it touches the engine, and application failures (e.g. an
    out-of-order sequence) are re-raised as
    :class:`~repro.errors.StreamFormatError` with the file/line/sequence
    context attached — the engine state stays exactly as the last good
    batch left it.  With ``wal`` / ``snapshot``, applied batches are
    durably logged and the session periodically checkpointed, so a crash
    mid-stream is recoverable via ``repro recover``.
    """
    from repro.errors import StreamFormatError
    from repro.streaming import StreamingEngine
    from repro.streaming.reader import read_delta_stream

    session = StreamingEngine(engine=engine)
    name = session.register(text)
    size = len(session.table(name))
    if wal is not None:
        session.attach_wal(wal)
    try:
        if snapshot is not None:
            session.configure_snapshots(snapshot, every=snapshot_every)
        durability = (
            f", wal {wal}" if wal else ""
        ) + (f", snapshots {snapshot} (every {snapshot_every})" if snapshot else "")
        print(f"# stream: initial graph {engine.graph}, output size {size}{durability}")
        batch_number = 0
        for number, batch in read_delta_stream(path):
            batch_number += 1
            try:
                applied = session.apply(batch)
            except ReproError as error:
                raise StreamFormatError(
                    f"{path}:{number}: {error}",
                    path=path,
                    line=number,
                    sequence=batch.sequence,
                ) from error
            new_size = len(session.table(name))
            sequence = "-" if applied.sequence is None else str(applied.sequence)
            horizon = (
                f", horizon -> {engine.graph.domain.end}"
                if applied.horizon_advanced
                else ""
            )
            print(
                f"# batch {batch_number} (seq {sequence}): +{applied.new_nodes} nodes "
                f"+{applied.new_edges} edges ~{applied.touched_objects} touched"
                f"{horizon} | output {new_size} ({new_size - size:+d})"
            )
            size = new_size
        if session.wal is not None:
            session.wal.sync()
    finally:  # a rejected batch included
        if session.wal is not None:
            session.wal.close()


def _cmd_query(args: argparse.Namespace) -> int:
    # Pure argument validation comes first, before any graph loading.
    if args.engine != "dataflow" and (
        args.explain
        or args.stream
        or args.deadline is not None
        or args.retries is not None
        or args.store is not None
    ):
        print(
            "error: --explain, --stream, --deadline, --retries and --store "
            "apply to the dataflow engine only "
            f"(got --engine {args.engine})",
            file=sys.stderr,
        )
        return 2
    if args.store is not None and args.graph is not None:
        print(
            "error: --store and --graph are mutually exclusive (the artifact "
            "already contains the graph)",
            file=sys.stderr,
        )
        return 2
    if (args.wal or args.snapshot) and not args.stream:
        print(
            "error: --wal and --snapshot require --stream (they make the "
            "streaming session durable)",
            file=sys.stderr,
        )
        return 2
    if args.snapshot_every is not None and not args.snapshot:
        print("error: --snapshot-every requires --snapshot", file=sys.stderr)
        return 2
    if args.store is not None:
        from repro.store import attach

        graph = attach(args.store).graph
    else:
        graph = _load_graph(args.graph)
    text = _resolve_query(args.match)
    limit = None if args.limit == 0 else args.limit
    if args.engine == "dataflow":
        retry = None
        if args.retries is not None:
            from repro.resilience import RetryPolicy

            retry = RetryPolicy(retries=args.retries)
        engine = DataflowEngine(
            graph,
            workers=args.workers,
            deadline_seconds=args.deadline,
            retry=retry,
        )
        if args.explain:
            _print_explain(engine.explain(text))
        if args.stream:
            try:
                _run_stream(
                    engine,
                    text,
                    args.stream,
                    wal=args.wal,
                    snapshot=args.snapshot,
                    snapshot_every=args.snapshot_every or 1,
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
    else:
        engine = ReferenceEngine(graph)
    if args.intervals:
        families = engine.match_intervals(text)
        if args.stats:
            intervals = sum(len(times) for _bindings, times in families)
            points = sum(times.total_points() for _bindings, times in families)
            print(
                f"# {len(families)} families, {intervals} intervals, "
                f"{points} points"
            )
        _print_families(families, limit)
        return 0
    if args.engine == "dataflow":
        result = engine.match_with_stats(text)
        table = result.table
        if result.degradation is not None:
            # A retry policy had to step in: surface the audit trail so
            # operators know the answer is real but the backend wasn't
            # the configured one.
            report = result.degradation
            print(
                f"# resilience: {report['retries']} failed attempt(s), "
                f"backend {report['configured_backend']} -> "
                f"{report['final_backend']}"
                + (" (degraded)" if report["degraded"] else " (recovered)")
            )
            for record in report["failures"]:
                print(
                    f"# resilience: attempt {record['attempt']} on "
                    f"{record['backend']}: {record['error_type']} "
                    f"(backoff {record['delay']}s)"
                )
        if args.stats:
            print(
                f"# interval time {result.interval_seconds:.4f}s, "
                f"total time {result.total_seconds:.4f}s, "
                f"output size {result.output_size}"
            )
            print(
                f"# frontier: coalesced, {result.frontier_rows} rows, "
                f"{result.rows_merged} merged"
            )
            if isinstance(table, IntervalBindingTable):
                print(
                    f"# output kept interval-native: {table.num_families()} "
                    f"families, {table.num_intervals()} intervals "
                    "(rows expand lazily)"
                )
    else:
        table = engine.match(text)
        if args.stats:
            print(f"# output size {len(table)}")
    print(table.pretty(limit=limit))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild a streaming session from snapshot + WAL and report on it."""
    from repro.resilience import recover

    session, report = recover(args.snapshot, args.wal)
    print(f"# {report.summary()}")
    for name in report.queries:
        table = session.table(name)
        print(f"# query {name!r}: output size {len(table)}")
    if args.output is not None:
        save_json(session.graph, args.output)
        print(f"# recovered graph saved to {args.output}")
    if args.match is not None:
        text = _resolve_query(args.match)
        name = text if text in session.query_names() else session.register(text)
        limit = None if args.limit == 0 else args.limit
        print(session.table(name).pretty(limit=limit))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on query service until a shutdown request."""
    # The same flag contract as 'query': contradictory combinations are
    # rejected up front with an actionable message.
    if args.snapshot_every is not None and not args.snapshot:
        print("error: --snapshot-every requires --snapshot", file=sys.stderr)
        return 2
    if args.store is not None and args.graph is not None:
        print(
            "error: --store and --graph are mutually exclusive (the artifact "
            "already contains the graph)",
            file=sys.stderr,
        )
        return 2
    standby_of = None
    if args.standby_of is not None:
        host_part, sep, port_part = args.standby_of.rpartition(":")
        try:
            standby_of = (host_part, int(port_part))
        except ValueError:
            sep = ""
        if not sep or not host_part:
            print(
                f"error: --standby-of expects HOST:PORT, got {args.standby_of!r}",
                file=sys.stderr,
            )
            return 2
        if args.failover_after <= args.heartbeat_interval:
            print(
                f"error: --failover-after ({args.failover_after:g}s) must exceed "
                f"--heartbeat-interval ({args.heartbeat_interval:g}s), or every "
                "quiet heartbeat gap would trigger a promotion",
                file=sys.stderr,
            )
            return 2
    from repro.server import ServerState
    from repro.server.service import serve as run_service

    state = ServerState(workers=args.workers, plan_capacity=args.plan_cache)
    recovery = state.add_graph(
        args.name,
        args.graph,
        wal=args.wal,
        snapshot=args.snapshot,
        snapshot_every=args.snapshot_every or 1,
        store=args.store,
    )
    if recovery is not None:
        print(
            f"# recovered {args.name!r} from {args.snapshot}: "
            f"{recovery['replayed']} WAL record(s) replayed, "
            f"{recovery['skipped']} skipped",
            flush=True,
        )
    host = state.host(args.name)
    for text in args.register or ():
        registered = host.register(text)
        print(f"# registered {registered['result']['name']!r}", flush=True)

    # The resident graph, index and registered answers are millions of
    # long-lived objects: request-time collections must not re-walk them
    # (done here, not in a library: freeze() covers every live object).
    gc.collect()
    gc.freeze()

    def on_listening(server) -> None:
        # Subprocess harnesses (tests, benchmarks) parse this line to
        # learn the bound port, so keep its shape stable and flush it.
        print(f"listening on {server.host}:{server.port}", flush=True)
        if server.standby_of is not None:
            print(f"# standby of {server.primary_address}", flush=True)

    run_service(
        state,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        standby_of=standby_of,
        drain_timeout=args.drain_timeout,
        idle_timeout=args.idle_timeout,
        heartbeat_interval=args.heartbeat_interval,
        failover_after=args.failover_after,
        on_listening=on_listening,
    )
    print("# server stopped", flush=True)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    """Compile a graph's index into a persistent artifact."""
    from repro.store import attach, compile_graph

    graph = _load_graph(args.graph)
    report = compile_graph(graph, args.output)
    print(
        f"wrote {args.output}: {report['objects']} objects "
        f"({report['nodes']} nodes), {report['bytes']} bytes, "
        f"token {report['token']}"
    )
    if args.verify:
        attachment = attach(args.output)
        try:
            attachment.verify()
        finally:
            attachment.close()
        print("# verify: every section passed its checksum")
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    save_json(contact_tracing_example(), args.output)
    print(f"wrote the Figure-1 running example to {args.output}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "recover": _cmd_recover,
    "serve": _cmd_serve,
    "compile": _cmd_compile,
    "example": _cmd_example,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
