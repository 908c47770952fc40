"""Fault-tolerance runtime: deadlines, retries, durability, failpoints.

The robustness substrate the always-on server layer will stand on; each
pillar is woven through the existing subsystems rather than bolted on:

* :mod:`repro.resilience.deadline` — cooperative per-query deadlines
  (``DataflowEngine(deadline_seconds=…)``), raising a structured
  :class:`~repro.errors.DeadlineExceeded` with partial-progress stats;
* :mod:`repro.resilience.retry` — capped-exponential-backoff retry of
  crash-shaped failures under a per-query budget, then automatic
  backend demotion ``process → serial`` recorded as a
  :class:`DegradationReport` (``DataflowEngine(retry=RetryPolicy(…))``);
* :mod:`repro.resilience.wal` / :mod:`repro.resilience.snapshot` —
  durable streaming state: a checksummed JSONL delta WAL plus atomic
  engine snapshots, with ``recover()`` = snapshot + idempotent WAL-tail
  replay (CLI: ``query --stream --wal/--snapshot-every``, ``repro
  recover``);
* :mod:`repro.resilience.failpoints` — the deterministic, cross-process
  fault-injection registry the chaos suite drives (worker kills, slow
  steps, torn WAL writes, malformed deltas).

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
from repro.resilience.retry import (
    AttemptRecord,
    BACKEND_LADDER,
    DegradationReport,
    RETRYABLE_EXCEPTIONS,
    RetryPolicy,
    is_retryable,
)
from repro.resilience.snapshot import (
    RecoveryReport,
    load_snapshot,
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
    "AttemptRecord",
    "BACKEND_LADDER",
    "Deadline",
    "DegradationReport",
    "DeltaWAL",
    "Failpoint",
    "RETRYABLE_EXCEPTIONS",
    "RecoveryReport",
    "RetryPolicy",
    "WALRecord",
    "WALScan",
    "arm",
    "disarm",
    "disarm_all",
    "fire",
    "hits",
    "is_retryable",
    "load_snapshot",
    "record_frame",
    "recover",
    "scan_wal",
    "verify_frame",
    "write_snapshot",
]
