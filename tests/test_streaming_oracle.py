"""Streaming differential oracle: incremental == cold, after every batch.

The streaming engine rewrites the maintenance path of every compiled
structure the evaluators rely on (graph index condition tables, hop
tables, per-seed cached families), so this suite holds it to the same
standard the coalescing frontier was held to in PR 2: randomized
differential fuzzing.

For ≥ 200 fuzzed ``(graph, query, delta-sequence)`` cases:

* a **streaming** session (``StreamingEngine``) applies the delta
  batches to its own copy of the graph;
* after *every* batch, the session's table must equal a **cold** full
  evaluation by a fresh engine on a pristine rebuild of the materialized
  graph — no shared index, no shared caches;
* per-seed re-derivation is the streaming walk, so the session is also
  read *ad hoc*: after every batch the query runs unregistered on the
  maintained index, through the delta-patched ``ColumnarContext``, and
  must answer the same;
* the registered plan also runs in each direction on its own — as
  written and its converse (the kernel seeds from the end with fewer
  points, which deltas may change) — and both must answer the same;
* the maintained table's served wire bytes must equal the reference
  form (``families_to_wire``/``rows_to_wire``) of the cold answer;
* where the coalesced output is defined, the maintained families must
  also be canonical (one entry per binding tuple, nonempty coalesced
  times) and expand exactly to the cold rows — the interval-vs-point
  oracle of PR 3, now over mutated graphs;
* every fourth case additionally cross-checks the cold row set against
  the reference engine, closing the loop with the ground truth.

Failure messages carry the seeds needed to replay a case in isolation
(`run_streaming_case(seed)`).  ``REPRO_FUZZ_SEED_OFFSET`` shifts the
window, so the CI fuzz matrix exercises disjoint cases.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.datagen.random_graphs import (
    random_delta_batches,
    random_itpg,
    random_match_query,
)
from repro.dataflow import DataflowEngine
from repro.errors import EvaluationError
from repro.eval import ReferenceEngine
from repro.eval.bindings import IntervalBindingTable, expand_match_families
from repro.model.io import from_json_dict, to_json_dict
from repro.perf import columnar
from repro.server import protocol
from repro.streaming import DeltaBatch, StreamingEngine, apply_delta

#: Sweep size: ``BATCHES x BATCH_SIZE`` cases (each with 3 delta batches).
BATCH_SIZE = 25
BATCHES = 8  # 200 cases, the floor required by the acceptance criteria
#: Every Nth case also cross-checks the reference engine on the cold side.
REFERENCE_EVERY = 4
SEED_OFFSET = int(os.environ.get("REPRO_FUZZ_SEED_OFFSET", "0"))


def check_intervals(name, session, query_name, variables, cold_rows, context) -> None:
    """Canonicity + exact expansion of the maintained coalesced output."""
    try:
        families = session.results(query_name)
    except EvaluationError:
        return
    seen = set()
    for bindings, times in families:
        assert bindings not in seen, (
            f"{name} produced duplicate family bindings {bindings!r} ({context})"
        )
        seen.add(bindings)
        assert not times.is_empty(), (
            f"{name} produced an empty-times family for {bindings!r} ({context})"
        )
    expanded = expand_match_families(families, variables)
    assert expanded == cold_rows, (
        f"{name} interval output diverged from the cold point table ({context}): "
        f"{len(expanded)} rows vs {len(cold_rows)}; "
        f"extra={sorted(expanded - cold_rows, key=repr)[:5]}, "
        f"missing={sorted(cold_rows - expanded, key=repr)[:5]}"
    )


def check_wire(table, cold_table, context) -> None:
    """The maintained table's served bytes equal the reference form of
    the cold answer."""
    if isinstance(table, IntervalBindingTable):
        written = protocol.encode_families(table)
        wire = protocol.families_to_wire(cold_table.families)
    else:
        written = protocol.encode_rows(table)
        wire = protocol.rows_to_wire(cold_table.rows)
    expected = json.dumps(wire, separators=(",", ":"), default=str).encode()
    assert written.data == expected, f"the served bytes diverged ({context})"


def check_directions(session, query_name, cold_rows, context) -> None:
    """The registered plan as written and its converse, each run alone on
    the session's delta-patched image, answer the cold rows."""
    plan = session._plan(query_name)
    ctx = session.engine.index.columnar_context()
    written = plan.kernel_plan
    for direction, planned in (
        ("forward", columnar.ColumnarPlan(written.seed_condition, written.leaves)),
        ("converse", written.converse),
    ):
        if planned is None:
            continue
        output, _rows, _merged = columnar._run(
            ctx, planned, plan.variables, plan.mode, None
        )
        if plan.mode == "families":
            rows = expand_match_families(output.families, plan.variables)
        else:
            rows = output.as_set()
        assert rows == cold_rows, (
            f"the registered plan's {direction} run diverged from cold "
            f"evaluation ({context}): {len(rows)} vs {len(cold_rows)} rows"
        )


def check_durability(payload, query, batches, cold_rows, context, tmpdir) -> None:
    """The WAL + checkpoint differential: restart-from-disk == continuous.

    A durable session (delta WAL + one checkpoint after the middle batch)
    applies the same stream; the state recovered from its checkpoint +
    WAL tail — a cold process that never saw the live stream — must
    answer exactly like the continuous run (= the cold oracle).
    """
    from repro.resilience import recover, write_snapshot

    wal_path = os.path.join(tmpdir, "deltas.wal")
    snap_path = os.path.join(tmpdir, "state.rix")
    session = StreamingEngine(from_json_dict(payload))
    name = session.register(query)
    session.attach_wal(wal_path)
    middle = len(batches) // 2
    for batch in batches[:middle]:
        session.apply(DeltaBatch.from_json_dict(batch.to_json_dict()))
    write_snapshot(session, snap_path)
    for batch in batches[middle:]:
        session.apply(DeltaBatch.from_json_dict(batch.to_json_dict()))
    session.wal.close()
    # ``queries=`` because the fuzzed MatchQuery objects carry no
    # parseable text for recovery to re-register from.
    recovered, report = recover(snap_path, wal_path, queries={name: query})
    assert not report.torn_tail, f"clean WAL reported torn ({context})"
    assert (report.skipped, report.replayed) == (middle, len(batches) - middle), (
        f"recovery covered {report.skipped}+{report.replayed} WAL records, "
        f"expected {middle}+{len(batches) - middle} ({context})"
    )
    if len(batches) >= 2:
        assert report.skipped > 0 and report.replayed > 0, context
    assert recovered.epoch == session.epoch, context
    recovered_rows = recovered.table(name).as_set()
    assert recovered_rows == cold_rows, (
        f"checkpoint+WAL recovery diverged from the continuous run ({context}): "
        f"{len(recovered_rows)} vs {len(cold_rows)} rows; "
        f"extra={sorted(recovered_rows - cold_rows, key=repr)[:5]}, "
        f"missing={sorted(cold_rows - recovered_rows, key=repr)[:5]}"
    )


def run_streaming_case(seed: int) -> None:
    """One streaming differential case; raises AssertionError on divergence.

    Reproduce a failure with::

        graph = random_itpg(<seed>)
        query = random_match_query(<seed> * 31 + 7)
        batches = random_delta_batches(graph, <seed> * 17 + 3)
    """
    base = random_itpg(seed)
    query = random_match_query(seed * 31 + 7)
    batches = random_delta_batches(base, seed * 17 + 3)
    payload = to_json_dict(base)
    session = StreamingEngine(from_json_dict(payload))
    name = session.register(query)  # cold registration
    # The non-registered reader: a plain engine on the session's graph
    # shares its delta-maintained index.  Reading once builds the
    # index-owned array image, so every batch below patches it.
    adhoc = DataflowEngine(session.graph)
    adhoc.match(query)
    shadow = from_json_dict(payload)
    check_reference = seed % REFERENCE_EVERY == 0

    for number, batch in enumerate(batches, start=1):
        context = f"seed={seed}, batch={number}/{len(batches)}"
        apply_delta(shadow, batch)
        # Re-serialize: a batch applies to one graph once.
        session.apply(DeltaBatch.from_json_dict(batch.to_json_dict()))
        cold_engine = DataflowEngine(from_json_dict(to_json_dict(shadow)))
        cold_table = cold_engine.match(query)
        cold_rows = cold_table.as_set()
        maintained_rows = session.table(name).as_set()
        assert maintained_rows == cold_rows, (
            f"the session diverged from cold evaluation ({context}): "
            f"{len(maintained_rows)} vs {len(cold_rows)} rows; "
            f"extra={sorted(maintained_rows - cold_rows, key=repr)[:5]}, "
            f"missing={sorted(cold_rows - maintained_rows, key=repr)[:5]}"
        )
        check_wire(session.table(name), cold_table, context)
        check_intervals(
            "the session", session, name, cold_table.variables, cold_rows, context
        )
        check_directions(session, name, cold_rows, context)
        assert adhoc.match(query).as_set() == cold_rows, (
            f"the ad-hoc read diverged from cold evaluation ({context})"
        )
        if check_reference:
            pristine = from_json_dict(to_json_dict(shadow))
            assert ReferenceEngine(pristine).match(query).as_set() == cold_rows, (
                f"the reference engine disagreed with the cold dataflow engine "
                f"({context})"
            )
    # Durability oracle (PR 6): a session restarted from its snapshot +
    # WAL must answer exactly like the continuous run.  ``cold_rows``
    # here is the final-state cold table from the last loop iteration.
    with tempfile.TemporaryDirectory(prefix="repro-durable-") as tmpdir:
        check_durability(
            payload, query, batches, cold_rows, f"seed={seed}, final", tmpdir
        )


@pytest.mark.parametrize("batch", range(BATCHES))
def test_streaming_differential_batch(batch: int) -> None:
    for position in range(BATCH_SIZE):
        run_streaming_case(SEED_OFFSET + batch * BATCH_SIZE + position)


def test_sweep_size_meets_charter() -> None:
    assert BATCHES * BATCH_SIZE >= 200


def test_recovery_with_torn_final_wal_record_matches_prefix_run() -> None:
    """A crash mid-append loses exactly the torn record, nothing else.

    The WAL's last line is cut in half (what an interrupted write leaves
    behind); recovery must drop it, report the tear, and land on the
    state of the stream *prefix* — identical to a continuous run that
    never saw the final batch.
    """
    from repro.resilience import recover, write_snapshot

    seed = 1
    base = random_itpg(seed)
    query = random_match_query(seed * 31 + 7)
    batches = random_delta_batches(base, seed * 17 + 3)
    payload = to_json_dict(base)
    with tempfile.TemporaryDirectory(prefix="repro-torn-") as tmpdir:
        wal_path = os.path.join(tmpdir, "deltas.wal")
        snap_path = os.path.join(tmpdir, "state.snap")
        session = StreamingEngine(from_json_dict(payload))
        name = session.register(query)
        session.attach_wal(wal_path)
        write_snapshot(session, snap_path)  # checkpoint of the pre-stream state
        for batch in batches:
            session.apply(DeltaBatch.from_json_dict(batch.to_json_dict()))
        session.wal.close()

        # Tear the final record the way a power cut would.
        with open(wal_path, "rb") as handle:
            raw = handle.read()
        lines = raw.rstrip(b"\n").split(b"\n")
        torn = b"\n".join(lines[:-1])
        if torn:
            torn += b"\n"
        torn += lines[-1][: len(lines[-1]) // 2]
        with open(wal_path, "wb") as handle:
            handle.write(torn)

        recovered, report = recover(snap_path, wal_path, queries={name: query})
        assert report.torn_tail
        assert report.replayed == len(batches) - 1

        # The continuous prefix run: same stream minus the lost batch.
        prefix = StreamingEngine(from_json_dict(payload))
        prefix_name = prefix.register(query)
        for batch in batches[:-1]:
            prefix.apply(DeltaBatch.from_json_dict(batch.to_json_dict()))
        assert recovered.table(name).as_set() == prefix.table(prefix_name).as_set()
