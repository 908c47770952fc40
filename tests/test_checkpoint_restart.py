"""Checkpoint restarts through ``repro serve``, end to end.

A ``repro serve --graph --wal --snapshot`` process applies delta
batches, drains on SIGTERM (the drain writes the checkpoint), restarts
from that checkpoint, applies more batches, is SIGKILLed and restarts
again.  Every boot after the first attaches the checkpoint, building
the graph from the artifact's records; the second restart replays the
WAL tail onto that graph.  The served answers to a
families query (Q1) and a points query (Q8) must then equal the wire
form (``families_to_wire`` / ``rows_to_wire``) of an in-process engine
that applied the same batches, and the epoch must count every batch.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datagen import ContactTracingConfig, TrajectoryConfig
from repro.datagen.streaming import contact_tracing_stream
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.model.io import load_json, save_json
from repro.resilience import failpoints
from repro.server import ServerClient
from repro.server.protocol import families_to_wire, rows_to_wire
from repro.streaming import StreamingEngine

_BATCHES = 4


def _env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(failpoints.ENV_VAR, None)  # no inherited failpoints
    return env


def _serve(args: list) -> tuple:
    """Start ``repro serve``; returns ``(process, port, boot lines)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    lines = []
    for line in proc.stdout:
        match = re.match(r"listening on [\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1)), lines
        lines.append(line)
    proc.kill()
    proc.wait(timeout=30)
    raise AssertionError(f"serve never printed its listening line: {lines}")


def _apply(port: int, batches) -> None:
    with ServerClient("127.0.0.1", port, timeout=60) as client:
        for batch in batches:
            client.apply_delta(batch.to_json_dict())


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=50, num_locations=10, num_rooms=4, num_windows=12, seed=11
        ),
        seed=11,
    )
    workload = contact_tracing_stream(config, num_batches=_BATCHES)
    path = tmp_path_factory.mktemp("restart") / "prefix.json"
    save_json(workload.initial, path)
    return str(path), workload.batches


def test_sigterm_then_sigkill_restarts_answer_like_one_process(stream, tmp_path):
    graph_path, batches = stream
    assert len(batches) == _BATCHES
    wal, snapshot = tmp_path / "deltas.wal", tmp_path / "state.rix"
    args = ["--graph", graph_path, "--wal", str(wal), "--snapshot", str(snapshot)]
    half = _BATCHES // 2
    procs = []
    try:
        proc, port, _boot = _serve(args)
        procs.append(proc)
        _apply(port, batches[:half])
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert snapshot.exists(), "the drain did not write the checkpoint"

        proc, port, boot = _serve(args)
        procs.append(proc)
        assert any(f"0 WAL record(s) replayed, {half} skipped" in line for line in boot)
        _apply(port, batches[half:])
        proc.kill()  # SIGKILL: no drain, no new checkpoint
        proc.wait(timeout=30)

        proc, port, boot = _serve(args)
        procs.append(proc)
        replayed = _BATCHES - half
        assert any(
            f"{replayed} WAL record(s) replayed, {half} skipped" in line for line in boot
        ), boot
        with ServerClient("127.0.0.1", port, timeout=60) as client:
            served = {name: client.query(name) for name in ("Q1", "Q8")}
            client.shutdown()
        assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    session = StreamingEngine(load_json(graph_path))
    for batch in batches:
        session.apply(batch)
    engine = DataflowEngine(session.graph)
    q1, q8 = PAPER_QUERIES["Q1"].text, PAPER_QUERIES["Q8"].text
    assert served["Q1"]["result"]["families"] == families_to_wire(
        engine.match_intervals(q1)
    )
    assert served["Q8"]["result"]["rows"] == rows_to_wire(engine.match(q8).rows)
    assert served["Q8"]["result"]["rows"], "Q8 answers nothing: the check is void"
    for response in served.values():
        assert response["server"]["epoch"] == _BATCHES
