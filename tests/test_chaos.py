"""Chaos suite: the resilience runtime under injected faults.

Every test here drives a *real* execution path — the columnar kernel's
step loop and its degenerate-chain shortcut, the WAL appender, the CLI
stream reader, served primaries and standbys — through the
deterministic failpoint registry (:mod:`repro.resilience.failpoints`)
and checks the acceptance bar of the PR-6 charter:

* a configured deadline fires within **2x** its budget, mid-chain and
  on the degenerate-chain shortcut (slow steps injected), and every
  paper query expires at its first step once a stall outruns the budget;
* an injected step fault surfaces from the call it hit, unretried, on
  every paper query, and the engine answers the next call;
* a crash mid-WAL-append (torn write) loses exactly the torn record:
  recovery lands on the longest durable prefix;
* a malformed delta surfaces through the real CLI as a structured error
  (exit code 2 with file/line context), leaving engine state untouched.

Primitive-level unit tests live in ``test_resilience.py``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.datagen import (
    ContactTracingConfig,
    TrajectoryConfig,
    generate_contact_tracing_graph,
)
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import DeadlineExceeded, InjectedFault
from repro.eval import ReferenceEngine
from repro.model.io import save_json
from repro.model.itpg import IntervalTPG
from repro.resilience import failpoints, recover, scan_wal, write_snapshot
from repro.streaming import DeltaBatch, StreamingEngine


@pytest.fixture(scope="module")
def contact_graph():
    """Large enough that Q11's injected per-op stalls outrun a budget."""
    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=30, num_locations=10, num_rooms=5, num_windows=16, seed=7
        ),
        positivity_rate=0.2,
        seed=7,
    )
    return generate_contact_tracing_graph(config)


@pytest.fixture(scope="module")
def reference_answer(contact_graph):
    """The reference engine's answer to a paper query on the contact
    graph, computed once per query."""
    reference = ReferenceEngine(contact_graph)
    answers = {}

    def answer(name):
        if name not in answers:
            answers[name] = reference.match(PAPER_QUERIES[name].text).as_set()
        return answers[name]

    return answer


@pytest.fixture(autouse=True)
def _clean_slate():
    failpoints.disarm_all()
    yield
    failpoints.disarm_all()


def small_graph() -> IntervalTPG:
    graph = IntervalTPG((0, 9))
    graph.add_node("a", "Person", [(0, 4)])
    graph.add_node("b", "Person", [(2, 9)])
    graph.add_node("r", "Room", [(0, 9)])
    graph.add_edge("e0", "meets", "a", "b", [(2, 4)])
    graph.add_edge("v0", "visits", "a", "r", [(1, 3)])
    return graph


QUERY = "MATCH (x:Person) ON g"


# --------------------------------------------------------------------- #
# Deadlines fire within 2x the configured budget
# --------------------------------------------------------------------- #
class TestDeadlineUnderSlowExecution:
    #: The acceptance bound: expiry must surface within twice the budget
    #: (the injected stall per step is sized so one stall cannot
    #: overshoot it).
    def _assert_within_bound(self, error: DeadlineExceeded, budget: float):
        assert error.deadline_seconds == budget
        assert error.elapsed >= budget
        assert error.elapsed <= 2.0 * budget, (
            f"deadline fired after {error.elapsed:.3f}s, over 2x the "
            f"{budget:g}s budget"
        )

    def test_serial_backend_cancels_slow_steps(self, contact_graph):
        budget = 0.25
        failpoints.arm("engine.step", "sleep", seconds=0.1, times=0)
        engine = DataflowEngine(contact_graph, deadline_seconds=budget)
        with pytest.raises(DeadlineExceeded) as excinfo:
            # Q11 runs six ops on this graph (Q5's converse runs dry
            # after two): the injected 0.1s stalls blow the budget a
            # couple of ops in.
            engine.match(PAPER_QUERIES["Q11"].text)
        self._assert_within_bound(excinfo.value, budget)
        assert "steps_completed" in excinfo.value.partial

    def test_shortcut_cancels_a_slow_step(self, contact_graph):
        """Q1 is one absorbed condition plus a bind: the kernel answers it
        from the condition table without running an op, after one step
        hook and one deadline check."""
        budget = 0.25
        failpoints.arm("engine.step", "sleep", seconds=0.3, times=0)
        engine = DataflowEngine(contact_graph, deadline_seconds=budget)
        with pytest.raises(DeadlineExceeded) as excinfo:
            engine.match(PAPER_QUERIES["Q1"].text)
        self._assert_within_bound(excinfo.value, budget)
        # No op ran, so no op recorded its progress.
        assert excinfo.value.partial == {}
        assert failpoints.hits("engine.step") == 1

    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_every_paper_query_expires_then_answers(
        self, contact_graph, reference_answer, name
    ):
        """Every query shape — condition-table shortcut, chain, point
        output, alternation leaves — checks its deadline after its first
        step: one stall longer than the budget expires the call there,
        and the same engine answers the next call in full."""
        budget = 0.02
        query = PAPER_QUERIES[name].text
        engine = DataflowEngine(contact_graph)
        failpoints.arm("engine.step", "sleep", seconds=0.03, times=1)
        with pytest.raises(DeadlineExceeded) as excinfo:
            engine.match_with_stats(query, deadline_seconds=budget)
        assert excinfo.value.deadline_seconds == budget
        assert excinfo.value.elapsed >= budget
        assert failpoints.hits("engine.step") == 1
        assert engine.match(query).as_set() == reference_answer(name)

    def test_within_budget_query_is_unaffected(self, contact_graph):
        engine = DataflowEngine(contact_graph, deadline_seconds=60.0)
        baseline = DataflowEngine(contact_graph)
        query = PAPER_QUERIES["Q1"].text
        assert engine.match(query).as_set() == baseline.match(query).as_set()


# --------------------------------------------------------------------- #
# A failing step fails its query, once, and leaves the engine intact
# --------------------------------------------------------------------- #
class TestInjectedStepFault:
    def test_raising_step_propagates_and_the_next_call_answers(self, contact_graph):
        """Nothing retries a query: an injected step fault surfaces from
        the call it hit — mid-chain (Q5) and on the condition-table
        shortcut (Q1) — and the same engine answers the next calls."""
        engine = DataflowEngine(contact_graph)
        reference = ReferenceEngine(contact_graph)
        failpoints.arm("engine.step", "raise", times=2, message="step blew up")
        for name in ("Q5", "Q1"):
            with pytest.raises(InjectedFault, match="step blew up"):
                engine.match(PAPER_QUERIES[name].text)
        assert failpoints.hits("engine.step") == 2
        for name in ("Q5", "Q1"):
            query = PAPER_QUERIES[name].text
            assert engine.match(query).as_set() == reference.match(query).as_set()


    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_every_paper_query_surfaces_a_step_fault(
        self, contact_graph, reference_answer, name
    ):
        """Every query shape fires the step hook: a fault there fails
        that one call, unretried, and the next call answers in full."""
        query = PAPER_QUERIES[name].text
        engine = DataflowEngine(contact_graph)
        failpoints.arm("engine.step", "raise", times=1, message="step blew up")
        with pytest.raises(InjectedFault, match="step blew up"):
            engine.match(query)
        assert failpoints.hits("engine.step") == 1
        assert engine.match(query).as_set() == reference_answer(name)


# --------------------------------------------------------------------- #
# Per-call state: a call's deadline never leaks into another call
# --------------------------------------------------------------------- #
class TestPerCallIsolation:
    def test_concurrent_calls_on_one_engine_are_isolated(self, contact_graph):
        """Without any lock, a call's deadline stays with that call.

        A starts with a tight per-call deadline; once it is inside the
        kernel run, B runs the same query on the same engine without
        one.  A must expire, B must answer in full, and
        the engine must look the same throughout as before either call.
        """
        query = PAPER_QUERIES["Q11"].text
        expected = ReferenceEngine(contact_graph).match(query).as_set()
        engine = DataflowEngine(contact_graph)
        before = dict(vars(engine))
        outcome = {}

        def run(name, **overrides):
            try:
                outcome[name] = engine.match_with_stats(query, **overrides)
            except Exception as error:
                outcome[name] = error

        # Every kernel op stalls 0.05s: Q11's six ops take ~0.3s, so
        # A's 0.15s budget expires mid-run while B is still running.
        failpoints.arm("engine.step", "sleep", seconds=0.05, times=0)
        first = threading.Thread(
            target=run,
            args=("a",),
            kwargs={"deadline_seconds": 0.15},
        )
        first.start()
        deadline = time.monotonic() + 10
        while failpoints.hits("engine.step") == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        during = dict(vars(engine))
        second = threading.Thread(target=run, args=("b",))
        second.start()
        first.join(30)
        second.join(30)
        assert isinstance(outcome["a"], DeadlineExceeded), outcome["a"]
        assert not isinstance(outcome["b"], Exception), outcome["b"]
        assert outcome["b"].table.as_set() == expected
        assert during == before
        assert dict(vars(engine)) == before


# --------------------------------------------------------------------- #
# Torn WAL writes: crash mid-append loses exactly the torn record
# --------------------------------------------------------------------- #
class TestTornWALWrites:
    def test_crash_mid_append_recovers_the_durable_prefix(self, tmp_path):
        wal_path = tmp_path / "deltas.wal"
        snap_path = tmp_path / "state.snap"
        session = StreamingEngine(small_graph())
        name = session.register(QUERY)
        session.attach_wal(str(wal_path))
        write_snapshot(session, snap_path)  # pre-stream checkpoint

        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        failpoints.arm("wal.append", "torn", times=1)
        with pytest.raises(InjectedFault):
            # The "process dies" here: batch 2 reaches memory but only
            # half its WAL record reaches the disk.
            session.apply(DeltaBatch(sequence=2).add_existence("b", 0, 1))

        scan = scan_wal(wal_path)
        assert scan.torn_tail and scan.last_seq == 1

        recovered, report = recover(snap_path, wal_path)
        assert report.torn_tail
        assert report.replayed == 1  # the durable prefix: batch 1 only

        # The recovered state equals a continuous run that stopped at
        # the last durable batch.
        prefix = StreamingEngine(small_graph())
        prefix.register(QUERY)
        prefix.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        assert recovered.table(name).as_set() == prefix.table(QUERY).as_set()

    def test_reopened_wal_resumes_after_torn_write(self, tmp_path):
        wal_path = tmp_path / "deltas.wal"
        session = StreamingEngine(small_graph())
        session.register(QUERY)
        session.attach_wal(str(wal_path))
        session.apply(DeltaBatch(sequence=1).add_existence("a", 5, 7))
        failpoints.arm("wal.append", "torn", times=1)
        with pytest.raises(InjectedFault):
            session.apply(DeltaBatch(sequence=2).add_existence("b", 0, 1))
        failpoints.disarm_all()

        # The restarted writer repairs the tail and appends cleanly.
        resumed = StreamingEngine(small_graph())
        resumed.register(QUERY)
        resumed.attach_wal(str(wal_path))
        resumed.apply(DeltaBatch(sequence=5).add_existence("b", 0, 1))
        scan = scan_wal(wal_path)
        assert not scan.torn_tail
        assert [record.seq for record in scan.records] == [1, 2]


# --------------------------------------------------------------------- #
# Malformed deltas through the real CLI
# --------------------------------------------------------------------- #
class TestMalformedDeltaViaCli:
    def _stream_files(self, tmp_path):
        graph_path = tmp_path / "graph.json"
        save_json(small_graph(), graph_path)
        deltas_path = tmp_path / "deltas.jsonl"
        deltas_path.write_text(
            "\n".join(
                json.dumps(batch.to_json_dict())
                for batch in (
                    DeltaBatch(sequence=1).add_existence("a", 5, 7),
                    DeltaBatch(sequence=2).add_existence("b", 0, 1),
                )
            )
            + "\n"
        )
        return str(graph_path), str(deltas_path)

    def test_injected_malformed_delta_exits_with_context(self, tmp_path, capsys):
        graph_path, deltas_path = self._stream_files(tmp_path)
        # Corrupt every parsed record in flight (a buggy producer).
        failpoints.arm("stream.delta", "malformed", times=0)
        code = cli_main(
            ["query", QUERY, "--graph", graph_path, "--stream", deltas_path]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"{deltas_path}:1:" in captured.err
        assert "invalid delta batch" in captured.err
        # Nothing was applied: the failure struck before the first batch.
        assert "# batch 1" not in captured.out

    def test_failure_after_good_batches_keeps_their_output(self, tmp_path, capsys):
        graph_path, _ = self._stream_files(tmp_path)
        deltas_path = tmp_path / "partly-bad.jsonl"
        deltas_path.write_text(
            json.dumps(DeltaBatch(sequence=1).add_existence("a", 5, 7).to_json_dict())
            + "\n"
            + json.dumps({"sequence": 2, "nodes": [{"bogus": True}]})
            + "\n"
        )
        code = cli_main(
            ["query", QUERY, "--graph", graph_path, "--stream", str(deltas_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"{deltas_path}:2:" in captured.err
        assert "# batch 1 (seq 1):" in captured.out
        assert "# batch 2" not in captured.out

    def test_clean_stream_is_unaffected_by_unarmed_registry(self, tmp_path, capsys):
        graph_path, deltas_path = self._stream_files(tmp_path)
        code = cli_main(
            ["query", QUERY, "--graph", graph_path, "--stream", deltas_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# batch 2 (seq 2):" in out


# --------------------------------------------------------------------- #
# Replicated serving under chaos: SIGKILL the primary mid-stream, pin
# that the promoted standby answers epoch-identically to a never-crashed
# run up to the last acknowledged record (PR-9 acceptance).
# --------------------------------------------------------------------- #
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path


def _subprocess_env(**extra) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(failpoints.ENV_VAR, None)  # no inherited failpoints by default
    env.update(extra)
    return env


def _chaos_batch(sequence: int) -> dict:
    """A delta over the Figure-1 example that changes Q1/Q5 answers."""
    batch = DeltaBatch(sequence=sequence)
    node = f"n_chaos{sequence}"
    batch.add_node(node, "Person", [(2, 8)])
    batch.set_property(node, "name", f"C{sequence}", 2, 8)
    batch.set_property(node, "risk", "high", 2, 8)
    batch.add_edge(f"e_chaos{sequence}", "meets", "n1", node, [(3, 6)])
    return batch.to_json_dict()


def _spawn_serve(args: list, env: dict) -> tuple:
    """Start ``repro serve`` and return ``(process, bound_port)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.match(r"listening on [\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise AssertionError("serve subprocess never printed its listening line")


def _wait_until(predicate, *, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.time() + timeout
    last = None
    while time.time() < deadline:
        last = predicate()
        if last:
            return last
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s (last: {last!r})")


def _health(port: int):
    from repro.resilience.retry import RetryPolicy
    from repro.server import ServerClient

    try:
        with ServerClient("127.0.0.1", port, retry=RetryPolicy(retries=0)) as probe:
            return probe.health()
    except Exception:
        return None


class TestReplicatedServingChaos:
    FAST = [
        "--heartbeat-interval", "0.2",
        "--failover-after", "1.0",
    ]

    def _reference_after(self, batches: int):
        """The never-crashed run: same deltas, one process, no failover."""
        from repro.server import ServerState

        state = ServerState()
        state.add_graph("default")
        host = state.host("default")
        host.register("Q5")
        for seq in range(1, batches + 1):
            host.apply_delta(_chaos_batch(seq))
        answer = host.query("Q5")
        return answer["result"]["families"], answer["server"]["epoch"]

    def test_sigkill_primary_standby_promotes_epoch_identical(self, tmp_path):
        from repro.server import ServerClient

        primary_proc, primary_port = _spawn_serve(
            ["--wal", str(tmp_path / "primary.wal"), "--register", "Q5"]
            + self.FAST,
            _subprocess_env(),
        )
        standby_proc = None
        try:
            standby_proc, standby_port = _spawn_serve(
                ["--standby-of", f"127.0.0.1:{primary_port}"] + self.FAST,
                _subprocess_env(),
            )
            pc = ServerClient("127.0.0.1", primary_port)
            pc.apply_delta(_chaos_batch(1))
            pc.apply_delta(_chaos_batch(2))
            _wait_until(
                lambda: (h := _health(standby_port))
                and h["status"] == "standby"
                and h["epochs"]["default"] == 2
            )
            pc.close()
            primary_proc.kill()  # SIGKILL: no drain, no close frame
            primary_proc.wait(timeout=30)
            # Failover window is 1.0 s (FAST): promotion has a 10 s ceiling.
            health = _wait_until(
                lambda: (h := _health(standby_port))
                and h["role"] == "primary"
                and h,
                timeout=10.0,
            )
            assert health["status"] == "ready"
            assert health["fence"]["previous_primary"] == f"127.0.0.1:{primary_port}"
            assert health["fence"]["fence_seq"] == {"default": 2}

            expected, epoch = self._reference_after(2)
            with ServerClient("127.0.0.1", standby_port) as sc:
                answer = sc.query("Q5")
                assert answer["result"]["families"] == expected
                assert answer["server"]["epoch"] == epoch
                # The registered query replicated and is epoch-identical.
                assert sc.table("Q5")["result"]["families"] == expected
                # The promoted standby accepts writes.
                applied = sc.apply_delta(_chaos_batch(3))
                assert applied["server"]["epoch"] == epoch + 1
        finally:
            for proc in (primary_proc, standby_proc):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

    def test_primary_killed_mid_ship_promotes_at_last_acked(self, tmp_path):
        """The `replicate.ship` failpoint kills the primary between the
        local apply (record 3 reaches its WAL) and the ship, so the
        standby promotes at the last *acked* record — exactly seq 2."""
        from repro.errors import ConnectionClosed
        from repro.server import ServerClient

        fp_dir = str(tmp_path / "failpoints")
        primary_proc, primary_port = _spawn_serve(
            ["--wal", str(tmp_path / "primary.wal"), "--register", "Q5"]
            + self.FAST,
            _subprocess_env(**{failpoints.ENV_VAR: fp_dir}),
        )
        standby_proc = None
        try:
            standby_proc, standby_port = _spawn_serve(
                ["--standby-of", f"127.0.0.1:{primary_port}"] + self.FAST,
                _subprocess_env(),
            )
            pc = ServerClient("127.0.0.1", primary_port)
            pc.apply_delta(_chaos_batch(1))
            pc.apply_delta(_chaos_batch(2))
            _wait_until(
                lambda: (h := _health(standby_port))
                and h["status"] == "standby"
                and h["epochs"]["default"] == 2
            )
            # Arm NOW (records 1-2 already shipped): the very next ship
            # attempt — record 3 — dies mid-stream with no cleanup.
            failpoints.arm(
                "replicate.ship", "kill", times=0, directory=fp_dir
            )
            try:
                pc.apply_delta(_chaos_batch(3))
            except (ConnectionClosed, OSError):
                pass  # the primary died racing the response write
            pc.close()
            assert primary_proc.wait(timeout=30) != 0
            # Failover window is 1.0 s (FAST): promotion has a 10 s ceiling.
            health = _wait_until(
                lambda: (h := _health(standby_port))
                and h["role"] == "primary"
                and h,
                timeout=10.0,
            )
            # Record 3 existed only on the dead primary: the fence and
            # the promoted answers stop at the last acked record.
            assert health["fence"]["fence_seq"] == {"default": 2}
            expected, epoch = self._reference_after(2)
            with ServerClient("127.0.0.1", standby_port) as sc:
                answer = sc.query("Q5")
                assert answer["result"]["families"] == expected
                assert answer["server"]["epoch"] == epoch
        finally:
            for proc in (primary_proc, standby_proc):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

    def test_sigterm_drains_finishes_in_flight_and_snapshots(self, tmp_path):
        """SIGTERM triggers the graceful drain — the in-flight request
        answers, the host's checkpoint lands on disk, and the exit code
        is 0."""
        from repro.server import ServerClient

        snapshot = tmp_path / "drain.rix"
        proc, port = _spawn_serve(
            [
                "--wal", str(tmp_path / "drain.wal"),
                # Only closing the host (the drain) writes the checkpoint.
                "--snapshot", str(snapshot),
                "--drain-timeout", "15",
            ],
            _subprocess_env(),
        )
        try:
            with ServerClient("127.0.0.1", port) as client:
                client.apply_delta(_chaos_batch(1))
                assert not snapshot.exists()  # pre-drain: no checkpoint
                proc.send_signal(signal.SIGTERM)
                # The draining server still answers the request already
                # on the wire (satellite 5 at the process level): either
                # this response or a clean close, never a hang.
                deadline = time.time() + 30
                while time.time() < deadline and proc.poll() is None:
                    time.sleep(0.05)
            assert proc.wait(timeout=30) == 0
            assert snapshot.exists(), "drain did not write the checkpoint"
            output = proc.stdout.read()
            assert "# server stopped" in output
            # The checkpoint holds the applied batch: a restart replays
            # nothing of the WAL.
            _session, report = recover(snapshot, tmp_path / "drain.wal")
            assert (report.skipped, report.replayed) == (1, 0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
