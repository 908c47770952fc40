"""Retry with capped exponential backoff, jitter, and backend demotion.

The policy half of the resilience runtime: *what* counts as retryable,
*how long* to wait between attempts, and *where* to go when the budget
is spent.  The dataflow engine consumes this through
:meth:`repro.dataflow.executor.DataflowEngine` (``retry=RetryPolicy(…)``):

* a retryable failure (worker crash, plan-install failure, injected
  fault, OS-level error) is retried on the same backend with capped
  exponential backoff plus deterministic jitter, up to the per-query
  ``retries`` budget;
* once the budget is spent, the engine *demotes* the backend —
  ``process → serial`` — instead of failing the query, and
  records the whole escalation in a :class:`DegradationReport` that
  the call's ``MatchResult.degradation`` carries;
* non-retryable failures (semantic evaluation errors, deadline
  expiries) propagate immediately — retrying a deterministic error
  only burns the budget, and a deadline is a hard stop by definition.

Jitter is drawn from a policy-owned seeded PRNG so chaos tests replay
identical schedules; production callers leave ``seed=None`` for
process-entropy jitter (the usual thundering-herd defence).
"""

from __future__ import annotations

import random
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import DeadlineExceeded, InjectedFault, WorkerCrashError

#: Failure types worth retrying: crash-shaped, environment-shaped, or
#: injected.  Deliberately excludes plain ``EvaluationError`` — semantic
#: failures are deterministic and would fail every attempt — and
#: ``DeadlineExceeded`` (a hard stop, not a fault).
RETRYABLE_EXCEPTIONS = (
    WorkerCrashError,
    BrokenProcessPool,
    InjectedFault,
    OSError,
)

#: The demotion ladder: the worker-process pool, then the engine's own
#: process.
BACKEND_LADDER = ("process", "serial")


def is_retryable(error: BaseException) -> bool:
    # ``DeadlineExceeded`` inherits ``TimeoutError`` (an ``OSError``
    # since 3.3) for except-compatibility, but a spent budget is a hard
    # stop — never a fault worth another attempt.
    if isinstance(error, DeadlineExceeded):
        return False
    return isinstance(error, RETRYABLE_EXCEPTIONS)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-query retry budget and backoff schedule."""

    #: Same-backend re-attempts after the first failure (the budget).
    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    #: Multiplicative jitter: each delay is scaled by a factor drawn
    #: uniformly from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.5
    #: Demote the backend (process → serial) once the retry
    #: budget is spent, instead of failing the query.
    degrade: bool = True
    #: Deterministic jitter for tests; ``None`` uses process entropy.
    seed: Optional[int] = None

    def delays(self) -> Iterator[float]:
        """The backoff delay before each re-attempt, jittered and capped."""
        rng = random.Random(self.seed)
        for attempt in range(self.retries):
            delay = min(self.max_delay, self.base_delay * (2**attempt))
            if self.jitter > 0:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, delay)

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "degrade": self.degrade,
        }


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt inside a resilient run."""

    backend: str
    attempt: int
    error_type: str
    error: str
    #: Backoff slept *before* this attempt (0 for the first).
    delay: float = 0.0

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "attempt": self.attempt,
            "error_type": self.error_type,
            "error": self.error,
            "delay": round(self.delay, 4),
        }


@dataclass(frozen=True)
class DegradationReport:
    """How a query actually got executed, failure by failure.

    ``final_backend`` is where the answer came from; ``degraded`` is
    true when that differs from the configured backend.  An empty
    ``failures`` tuple with ``degraded=False`` means the first attempt
    succeeded (the report is then usually omitted entirely).
    """

    configured_backend: str
    final_backend: str
    failures: tuple[AttemptRecord, ...] = field(default_factory=tuple)

    @property
    def degraded(self) -> bool:
        return self.final_backend != self.configured_backend

    @property
    def retries(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {
            "configured_backend": self.configured_backend,
            "final_backend": self.final_backend,
            "degraded": self.degraded,
            "retries": self.retries,
            "failures": [record.to_dict() for record in self.failures],
        }

    def summary(self) -> str:
        if not self.failures and not self.degraded:
            return f"clean run on {self.final_backend!r}"
        path = " -> ".join(
            dict.fromkeys(
                [record.backend for record in self.failures] + [self.final_backend]
            )
        )
        return (
            f"{len(self.failures)} failure(s), backend path {path}"
            + (" (degraded)" if self.degraded else " (recovered in place)")
        )
