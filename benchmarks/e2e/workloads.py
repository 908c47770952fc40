"""The four workloads: generated inputs, oracles, server processes, timed windows.

Every workload drives only default configurations of public entry points
(``DataflowEngine(graph)``, ``python -m repro serve``, ``ServerClient``,
``repro.store.compile_graph``) and never passes an engine knob, so that
making a fast path the default shows up as a gain instead of breaking
the benchmark.  Sizes, warm-ups and think times are constants of the
benchmark; only the seed and the window length come from the command
line.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import harness
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.datagen import (
    ScaleFactor,
    contact_tracing_stream,
    generate_contact_tracing_graph,
)
from repro.errors import ReproError
from repro.eval.engine import ReferenceEngine
from repro.model.io import from_json_dict, load_json, save_json, to_json_dict
from repro.server import ServerClient
from repro.server.protocol import families_to_wire, rows_to_wire
from repro.store import compile_graph
from repro.streaming.delta import DeltaBatch, apply_delta

POSITIVITY = 0.05
#: Set-up is measured this many times per run and the median reported.
SETUP_REPS = 3
WARMUP_ROUNDS = 2
#: ``table2_inproc``: the light list runs this many times per round, so
#: light and heavy work are of comparable weight in one round.
LIGHT_REPEATS = 5
#: ``serve_contend``: connection B's pause after each response.  Shorter
#: than the shortest heavy evaluation, so B always arrives while A holds
#: the lock (B's latency is then A's hold time minus this pause, and the
#: shorter the pause the less it amplifies run-to-run noise), and long
#: enough to bound B's offered load to ~20 % of a core once readers stop
#: serializing, so that B cannot starve A on a two-core host.
THINK_SECONDS = 0.02
#: ``stream_ingest``: events per delta batch, registered queries, and the
#: batches applied before the server is SIGKILLed for the recovery boots.
STREAM_BATCH = 40
REGISTERED = ("Q5", "Q9", "Q11")
WARM_BATCHES = 6
BOOT_TIMEOUT = 60.0

TEXT = {name: query.text for name, query in PAPER_QUERIES.items()}


class BenchmarkError(RuntimeError):
    """The system under test could not be driven at all (fatal for the run)."""


@dataclass(frozen=True)
class Scenario:
    name: str
    scale: ScaleFactor
    #: Query classes.  ``heavy`` is the workload's expensive class:
    #: compute-heavy joins, or (``serve_scan``) the payload-heavy scans.
    light: tuple[str, ...]
    heavy: tuple[str, ...]
    #: How the system starts: in-process, or ``repro serve`` from a graph
    #: JSON, a compiled store, or a graph plus WAL and registered queries.
    boot: str


SCENARIOS = {
    s.name: s
    for s in (
        Scenario(
            "table2_inproc",
            ScaleFactor("B6", 600, 120, 30),
            light=("Q1", "Q2", "Q3", "Q4", "Q6", "Q7", "Q8", "Q9", "Q10"),
            heavy=("Q5", "Q11", "Q12"),
            boot="inproc",
        ),
        Scenario(
            "serve_scan",
            ScaleFactor("B10", 1000, 160, 40),
            light=("Q3", "Q4"),
            heavy=("Q1", "Q2", "Q8"),
            boot="graph",
        ),
        Scenario(
            "serve_contend",
            ScaleFactor("B6", 600, 120, 30),
            light=("Q1", "Q4", "Q9"),
            heavy=("Q5", "Q11", "Q12"),
            boot="store",
        ),
        Scenario(
            "stream_ingest",
            ScaleFactor("B10", 1000, 160, 40),
            light=("Q1", "Q4", "Q9"),
            heavy=REGISTERED,
            boot="wal",
        ),
    )
}


# --------------------------------------------------------------------- #
# Answers
# --------------------------------------------------------------------- #
def wire_answer(table) -> list:
    """An in-process answer table in the protocol's canonical wire form."""
    if hasattr(table, "families"):
        wire = families_to_wire(table.families)
    else:
        wire = rows_to_wire(table.rows)
    return json.loads(json.dumps(wire, default=str))


def served_answer(response: dict) -> list:
    result = response["result"]
    return result[result["kind"]]


def digest(wire: list) -> str:
    return hashlib.sha256(
        json.dumps(wire, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def oracle_answers(graph, queries) -> dict[str, list]:
    engine = DataflowEngine(graph)
    return {name: wire_answer(engine.match(TEXT[name])) for name in queries}


@dataclass
class Tally:
    """Operations attempted and failed (errors, refusals, wrong answers)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 20 - len(self.notes)])


def call(tally: Tally, what: str, fn: Callable, *args, expect=None, **kwargs):
    """One served operation → ``(milliseconds, ok, response)``.

    An error, a refusal (``Overloaded``) and a wrong answer all count as
    failed operations; none of them raises.
    """
    start = time.perf_counter()
    try:
        response = fn(*args, **kwargs)
    except (ReproError, OSError) as error:
        ms = (time.perf_counter() - start) * 1e3
        tally.op(False, f"{what}: {type(error).__name__}: {error}")
        return ms, False, None
    ms = (time.perf_counter() - start) * 1e3
    ok = expect is None or served_answer(response) == expect
    tally.op(ok, f"{what}: wrong answer")
    return ms, ok, response


#: The reference engine is exponentially slower than the dataflow engine;
#: this is the largest graph it answers all twelve queries on in ~2 s.
REFERENCE_SCALE = ScaleFactor("R", 50, 40, 10)


def reference_check(seed: int, tally: Tally) -> None:
    """All twelve queries: default engine vs ``ReferenceEngine`` on a small graph."""
    graph = generate_contact_tracing_graph(
        REFERENCE_SCALE.config(positivity_rate=POSITIVITY, seed=seed)
    )
    engine, reference = DataflowEngine(graph), ReferenceEngine(graph)
    for name, text in TEXT.items():
        same = engine.match(text).as_set() == reference.match(text).as_set()
        tally.op(same, f"reference {name}: DataflowEngine != ReferenceEngine")


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
#: The generator's own seed is a constant of the benchmark, like the
#: scale: re-rolling it moves the cost of Q5/Q8/Q11/Q12 by 10-20 % (who
#: is high-risk, who tests positive, which rooms are crowded), which
#: would drown every bound.  ``--seed`` instead permutes the person and
#: room identifiers: answers, digests, sort and hash orders change with
#: the seed, the amount of work does not.
GENERATOR_SEED = 11


def id_permutation(scale: ScaleFactor, seed: int) -> dict[str, str]:
    rng = random.Random(seed)
    mapping: dict[str, str] = {}
    for prefix, count in (("p", scale.num_persons), ("r", scale.num_locations)):
        numbers = list(range(count))
        rng.shuffle(numbers)
        mapping.update((f"{prefix}{i}", f"{prefix}{j}") for i, j in enumerate(numbers))
    return mapping


def relabel(payload, mapping: dict[str, str]):
    """``payload`` (graph or delta JSON) with every identifier mapped."""
    if isinstance(payload, str):
        return mapping.get(payload, payload)
    if isinstance(payload, list):
        return [relabel(item, mapping) for item in payload]
    if isinstance(payload, dict):
        return {key: relabel(value, mapping) for key, value in payload.items()}
    return payload


@dataclass
class Inputs:
    scenario: Scenario
    seed: int
    workdir: Path
    graph_path: Path
    boot_args: list[str]
    #: query name → canonical wire answer of an in-process default engine
    #: on the generated graph (empty for ``stream_ingest``: its graph moves).
    expected: dict[str, list]
    generate_seconds: float
    #: ``stream_ingest``: the delta batches in wire form, and how many
    #: events they carry in total.
    batches: list[dict] = field(default_factory=list)
    stream_events: int = 0

    def oracle_at(self, epoch: int) -> dict[str, list]:
        """``stream_ingest``: in-process answers after replaying ``epoch`` batches."""
        graph = load_json(self.graph_path)
        for payload in self.batches[:epoch]:
            apply_delta(graph, DeltaBatch.from_json_dict(payload))
        return oracle_answers(graph, self.scenario.light + ("Q5",))


def prepare(scenario: Scenario, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's inputs from ``seed`` (none of this is timed
    as set-up: generation and ``store compile`` are per-layer metrics)."""
    config = scenario.scale.config(positivity_rate=POSITIVITY, seed=GENERATOR_SEED)
    mapping = id_permutation(scenario.scale, seed)
    batches: list[dict] = []
    events = 0
    start = time.perf_counter()
    if scenario.boot == "wal":
        stream = contact_tracing_stream(
            config, batch_size=STREAM_BATCH, initial_fraction=0.5
        )
        generate_seconds = time.perf_counter() - start
        payload = stream.initial_payload
        batches = [relabel(batch.to_json_dict(), mapping) for batch in stream.batches]
        events = stream.total_events - stream.initial_events
    else:
        payload = to_json_dict(generate_contact_tracing_graph(config))
        generate_seconds = time.perf_counter() - start
    graph = from_json_dict(relabel(payload, mapping))
    graph_path = workdir / "graph.json"
    save_json(graph, graph_path)
    if scenario.boot == "store":
        compile_graph(graph, str(workdir / "graph.idx"))
        boot_args = ["--store", str(workdir / "graph.idx")]
    else:
        boot_args = ["--graph", str(graph_path)]
    expected: dict[str, list] = {}
    if scenario.boot == "wal":
        boot_args += ["--wal", str(workdir / "deltas.wal")]
        for name in REGISTERED:
            boot_args += ["--register", name]
    else:
        expected = oracle_answers(graph, scenario.light + scenario.heavy)
    return Inputs(
        scenario=scenario,
        seed=seed,
        workdir=workdir,
        graph_path=graph_path,
        boot_args=boot_args,
        expected=expected,
        generate_seconds=generate_seconds,
        batches=batches,
        stream_events=events,
    )


# --------------------------------------------------------------------- #
# Server processes
# --------------------------------------------------------------------- #
class ServerProcess:
    """One real ``python -m repro serve`` subprocess, always reaped."""

    _LISTENING = re.compile(r"^listening on (\S+):(\d+)$", re.MULTILINE)

    def __init__(self, args: list[str], workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(harness.SRC), env.get("PYTHONPATH")])
        )
        fd, log_path = tempfile.mkstemp(dir=self.workdir, prefix="server-", suffix=".log")
        with os.fdopen(fd, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.args],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=self.workdir,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            output = Path(log_path).read_text(errors="replace")
            match = self._LISTENING.search(output)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening: {output[-400:]!r}"
                )
            time.sleep(0.002)
        self.kill()
        raise BenchmarkError(f"no 'listening on' line within {BOOT_TIMEOUT:g}s")

    def client(self) -> ServerClient:
        return ServerClient(self.host, self.port, timeout=30.0)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def stop(self) -> None:
        """``shutdown`` op → SIGTERM → SIGKILL, whichever first succeeds."""
        if not self.alive():
            return self.kill()
        try:
            with self.client() as client:
                client.shutdown()
        except (ReproError, OSError):
            pass
        for escalate in (self.proc.terminate, self.proc.kill):
            try:
                self.proc.wait(timeout=10)
                return
            except subprocess.TimeoutExpired:
                escalate()
        self.proc.wait()


def boot(inputs: Inputs, first_pass: Callable[[ServerClient], None]):
    """``Popen`` → ``health`` ready → one complete pass; returns the seconds."""
    start = time.perf_counter()
    server = ServerProcess(inputs.boot_args, inputs.workdir).start()
    try:
        client = server.client()
        while client.health()["status"] != "ready":
            if time.perf_counter() - start > BOOT_TIMEOUT:
                raise BenchmarkError("server never reported ready")
            time.sleep(0.002)
        first_pass(client)
    except BaseException:
        server.kill()
        raise
    return server, client, time.perf_counter() - start


def measure_setup(inputs: Inputs, first_pass: Callable[[ServerClient], None]):
    """Boot ``SETUP_REPS`` times (SIGKILL in between); keep the last server."""
    samples = []
    for rep in range(SETUP_REPS):
        server, client, seconds = boot(inputs, first_pass)
        samples.append(seconds)
        if rep < SETUP_REPS - 1:
            client.close()
            server.kill()
    return server, client, samples


# --------------------------------------------------------------------- #
# Outcome of one untraced run
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    tally: Tally
    setup_samples: list[float]
    window_seconds: float
    ok_ops: int
    #: class → one latency list (ms) per round.
    rounds: dict[str, list[list[float]]]
    peak_rss_mb: float
    digests: dict[str, str]
    #: Workload-specific client-side numbers, ``name → (value, unit)``
    #: (printed and written to the result file, never bounded).
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)


def served_pass(
    tally: Tally, client: ServerClient, expected: dict, queries, pause: float = 0.0
) -> list:
    """One closed-loop pass over ``queries`` → ``[(ms, ok), ...]``.

    ``expected`` maps a query name to its wire answer; a name it does
    not hold is only checked for a successful response.  ``pause`` is
    the think time after each response.
    """
    results = []
    for name in queries:
        results.append(call(tally, name, client.query, name, expect=expected.get(name))[:2])
        if pause:
            time.sleep(pause)
    return results


def require_alive(server: ServerProcess) -> None:
    if not server.alive():
        raise BenchmarkError(
            f"server died mid-window (exit code {server.proc.returncode})"
        )


# --------------------------------------------------------------------- #
# table2_inproc
# --------------------------------------------------------------------- #
def run_table2_inproc(inputs: Inputs, seconds: float) -> Outcome:
    scenario, tally = inputs.scenario, Tally()
    reference_check(inputs.seed, tally)
    order = scenario.light + scenario.heavy
    setup = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        engine = DataflowEngine(load_json(inputs.graph_path))
        tables = {name: engine.match(TEXT[name]) for name in order}
        setup.append(time.perf_counter() - start)
        for name, table in tables.items():
            tally.op(wire_answer(table) == inputs.expected[name], f"cold {name}: wrong answer")
    sizes = {name: len(table) for name, table in tables.items()}

    def one_class(queries) -> tuple[list[float], int]:
        latencies, ok = [], 0
        for name in queries:
            start = time.perf_counter()
            tables[name] = engine.match(TEXT[name])
            latencies.append((time.perf_counter() - start) * 1e3)
            # The full wire comparison costs as much as a light query, so
            # in the loop only the answer size is checked; the last
            # round's tables are compared in full after the window.
            ok += tally.op(len(tables[name]) == sizes[name], f"{name}: wrong size")
        return latencies, ok

    rounds: dict[str, list[list[float]]] = {"light": [], "heavy": []}
    ok_ops = 0
    for _ in range(WARMUP_ROUNDS):
        one_class(scenario.light * LIGHT_REPEATS)
        one_class(scenario.heavy)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for cls, queries in (
            ("light", scenario.light * LIGHT_REPEATS),
            ("heavy", scenario.heavy),
        ):
            latencies, ok = one_class(queries)
            rounds[cls].append(latencies)
            ok_ops += ok
    window = time.perf_counter() - start
    answers = {name: wire_answer(table) for name, table in tables.items()}
    for name, answer in answers.items():
        tally.op(answer == inputs.expected[name], f"final {name}: wrong answer")
    return Outcome(
        tally=tally,
        setup_samples=setup,
        window_seconds=window,
        ok_ops=ok_ops,
        rounds=rounds,
        peak_rss_mb=harness.peak_rss_mb(),
        digests={name: digest(answer) for name, answer in answers.items()},
    )


# --------------------------------------------------------------------- #
# serve_scan
# --------------------------------------------------------------------- #
def run_serve_scan(inputs: Inputs, seconds: float) -> Outcome:
    scenario, tally = inputs.scenario, Tally()
    order = sorted(scenario.light + scenario.heavy, key=lambda name: int(name[1:]))
    server, client, setup = measure_setup(
        inputs, lambda c: served_pass(tally, c, inputs.expected, order)
    )
    try:
        rounds: dict[str, list[list[float]]] = {"light": [], "heavy": []}
        ok_ops = 0
        for _ in range(WARMUP_ROUNDS):
            served_pass(tally, client, inputs.expected, order)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            results = dict(zip(order, served_pass(tally, client, inputs.expected, order)))
            for cls, queries in (("light", scenario.light), ("heavy", scenario.heavy)):
                rounds[cls].append([results[name][0] for name in queries])
            ok_ops += sum(ok for _, ok in results.values())
            require_alive(server)
        window = time.perf_counter() - start
        rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    return Outcome(
        tally=tally,
        setup_samples=setup,
        window_seconds=window,
        ok_ops=ok_ops,
        rounds=rounds,
        peak_rss_mb=rss,
        digests={name: digest(inputs.expected[name]) for name in order},
    )


# --------------------------------------------------------------------- #
# serve_contend
# --------------------------------------------------------------------- #
class Contender(threading.Thread):
    """Connection A: a closed loop over the heavy list, no think time."""

    def __init__(self, server: ServerProcess, queries, expected: dict) -> None:
        super().__init__(daemon=True)
        self.server, self.queries, self.expected = server, queries, expected
        self.tally = Tally()
        self.halt = threading.Event()
        #: One entry per completed round: (start, end, [(ms, ok), ...]).
        self.rounds: list[tuple[float, float, list]] = []

    def run(self) -> None:
        with self.server.client() as client:
            while not self.halt.is_set() and self.server.alive():
                start = time.perf_counter()
                results = served_pass(self.tally, client, self.expected, self.queries)
                self.rounds.append((start, time.perf_counter(), results))


def run_serve_contend(inputs: Inputs, seconds: float) -> Outcome:
    scenario, tally = inputs.scenario, Tally()
    server, client, setup = measure_setup(
        inputs,
        lambda c: served_pass(tally, c, inputs.expected, scenario.light + scenario.heavy),
    )
    contender = Contender(server, scenario.heavy, inputs.expected)
    try:
        solo = [ms for ms, _ in served_pass(tally, client, inputs.expected, scenario.light * 5)]
        contender.start()

        def light_round() -> list:
            return served_pass(tally, client, inputs.expected, scenario.light, THINK_SECONDS)

        for _ in range(WARMUP_ROUNDS):
            light_round()
        light: list[list[float]] = []
        ok_ops = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            results = light_round()
            light.append([ms for ms, _ in results])
            ok_ops += sum(ok for _, ok in results)
            require_alive(server)
        end = time.perf_counter()
        rss = server.peak_rss_mb()
    finally:
        contender.halt.set()
        if contender.ident is not None:
            contender.join(timeout=60)
        client.close()
        server.stop()
    if contender.is_alive():
        raise BenchmarkError("connection A did not finish")
    tally.merge(contender.tally)
    inside = [r for s, e, r in contender.rounds if s >= start and e <= end]
    ok_ops += sum(ok for results in inside for _, ok in results)
    return Outcome(
        tally=tally,
        setup_samples=setup,
        window_seconds=end - start,
        ok_ops=ok_ops,
        rounds={"light": light, "heavy": [[ms for ms, _ in r] for r in inside]},
        peak_rss_mb=rss,
        digests={name: digest(answer) for name, answer in inputs.expected.items()},
        extras={"solo_light_ms": (harness.median(solo), "ms")},
    )


# --------------------------------------------------------------------- #
# stream_ingest
# --------------------------------------------------------------------- #
def run_stream_ingest(inputs: Inputs, seconds: float) -> Outcome:
    scenario, tally = inputs.scenario, Tally()
    batches = inputs.batches
    reads = scenario.light

    def ingest_round(client: ServerClient, position: int, keep: Optional[dict] = None):
        """``apply_delta`` → ad-hoc reads → registered-table read."""
        write_ms, ok, _ = call(tally, "apply_delta", client.apply_delta, batches[position])
        results = [(write_ms, ok)]
        for name in reads:
            ms, ok, response = call(tally, name, client.query, name)
            ok = ok and tally.op(
                response["server"]["epoch"] == position + 1, f"{name}: stale epoch"
            )
            results.append((ms, ok))
            if keep is not None and response is not None:
                keep[name] = served_answer(response)
        ms, ok, response = call(tally, "table Q5", client.table, "Q5")
        results.append((ms, ok))
        if keep is not None and response is not None:
            keep["Q5"] = served_answer(response)
        return results

    def check_state(client: ServerClient, epoch: int, expected: dict) -> None:
        """A (re)started server: every acknowledged batch present, answers right."""
        tally.op(
            client.health()["epochs"]["default"] == epoch,
            f"restart lost acknowledged batches (expected epoch {epoch})",
        )
        for name in reads:
            call(tally, name, client.query, name, expect=expected[name])
        call(tally, "table Q5", client.table, "Q5", expect=expected["Q5"])

    # A first server applies the warm-up batches and is SIGKILLed; set-up
    # is then the crash-recovery boot on the WAL it left behind (load,
    # index, WAL scan and replay, re-registration, first correct pass).
    server, client, _ = boot(inputs, lambda c: None)
    try:
        for position in range(WARM_BATCHES):
            ingest_round(client, position)
    finally:
        client.close()
        server.kill()
    warm = inputs.oracle_at(WARM_BATCHES)
    server, client, setup = measure_setup(
        inputs, lambda c: check_state(c, WARM_BATCHES, warm)
    )
    try:
        rounds: dict[str, list[list[float]]] = {"light": [], "heavy": []}
        table_ms: list[float] = []
        kept: dict[int, dict] = {}
        ok_ops = 0
        position = WARM_BATCHES
        start = time.perf_counter()
        while time.perf_counter() - start < seconds and position < len(batches):
            keep = kept.setdefault(position + 1, {}) if position % 8 == 0 else None
            results = ingest_round(client, position, keep)
            position += 1
            rounds["heavy"].append([results[0][0]])
            rounds["light"].append([ms for ms, _ in results[1:-1]])
            table_ms.append(results[-1][0])
            ok_ops += sum(ok for _, ok in results)
            require_alive(server)
        window = time.perf_counter() - start
        rss = server.peak_rss_mb()
    finally:
        client.close()
        server.kill()
    # Answers read mid-window, checked against the oracle afterwards (the
    # window itself checks every response's status and epoch label).
    sampled = sorted(kept)[:: max(1, len(kept) // 2)]
    for epoch in sampled:
        expected = inputs.oracle_at(epoch)
        for name, answer in kept[epoch].items():
            tally.op(answer == expected[name], f"epoch {epoch} {name}: wrong answer")
    # Durability: after SIGKILL every acknowledged batch must be there.
    final = inputs.oracle_at(position)
    server, client, recovery = boot(inputs, lambda c: check_state(c, position, final))
    client.close()
    server.stop()
    events = min(inputs.stream_events, position * STREAM_BATCH) - WARM_BATCHES * STREAM_BATCH
    return Outcome(
        tally=tally,
        setup_samples=setup,
        window_seconds=window,
        ok_ops=ok_ops,
        rounds=rounds,
        peak_rss_mb=rss,
        # The state after the warm-up batches is the same on every commit;
        # the final epoch depends on how fast this one ingested.
        digests={f"{name}@{WARM_BATCHES}": digest(answer) for name, answer in warm.items()},
        extras={
            "batches": (position - WARM_BATCHES, "count"),
            "events_per_s": (events / window, "1/s"),
            "table_read_ms": (harness.median(table_ms), "ms"),
            "recovery_s": (recovery, "s"),
        },
    )


RUNNERS = {
    "table2_inproc": run_table2_inproc,
    "serve_scan": run_serve_scan,
    "serve_contend": run_serve_contend,
    "stream_ingest": run_stream_ingest,
}
