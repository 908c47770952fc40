"""Fault-tolerance runtime: deadlines, retries, durability, failpoints.

The robustness substrate the always-on server layer will stand on; each
pillar is woven through the existing subsystems rather than bolted on:

* :mod:`repro.resilience.deadline` — cooperative per-query deadlines
  (``DataflowEngine(deadline_seconds=…)``), raising a structured
  :class:`~repro.errors.DeadlineExceeded` with partial-progress stats;
* :mod:`repro.resilience.retry` — the capped-exponential-backoff
  schedule :class:`RetryPolicy` that the failover client
  (:class:`~repro.server.client.ServerClient`) re-sends under;
* :mod:`repro.resilience.wal` / :mod:`repro.resilience.snapshot` —
  durable streaming state: a checksummed, fsynced JSONL delta WAL (the
  durability) plus checkpoints — ``repro-index/1`` store artifacts with
  a ``session`` header record (the restart speed) — with ``recover()`` =
  attach + idempotent WAL-tail replay (CLI: ``repro serve --wal
  --snapshot``, whose every boot is that recovery);
* :mod:`repro.resilience.failpoints` — the deterministic, cross-process
  fault-injection registry the chaos suite drives (slow or failing
  kernel steps, torn WAL writes, malformed deltas, a primary killed
  mid-ship).

See ``RELIABILITY.md`` for the operational semantics.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.failpoints import (
    Failpoint,
    arm,
    disarm,
    disarm_all,
    fire,
    hits,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.snapshot import (
    RecoveryReport,
    recover,
    write_snapshot,
)
from repro.resilience.wal import (
    DeltaWAL,
    WALRecord,
    WALScan,
    record_frame,
    scan_wal,
    verify_frame,
)

__all__ = [
    "Deadline",
    "DeltaWAL",
    "Failpoint",
    "RecoveryReport",
    "RetryPolicy",
    "WALRecord",
    "WALScan",
    "arm",
    "disarm",
    "disarm_all",
    "fire",
    "hits",
    "record_frame",
    "recover",
    "scan_wal",
    "verify_frame",
    "write_snapshot",
]
