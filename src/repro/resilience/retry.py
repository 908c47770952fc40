"""Retry with capped exponential backoff and jitter.

:class:`RetryPolicy` is the resend schedule of
:class:`~repro.server.client.ServerClient`: after a connection-level
failure the client sleeps the next delay (capped exponential backoff
plus jitter), rotates to the next endpoint and re-sends, until the
policy's ``retries`` budget is spent.

Jitter is drawn from a policy-owned seeded PRNG so chaos tests replay
identical schedules; production callers leave ``seed=None`` for
process-entropy jitter (the usual thundering-herd defence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class RetryPolicy:
    """A retry budget and its backoff schedule."""

    #: Re-attempts after the first failure (the budget).
    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    #: Multiplicative jitter: each delay is scaled by a factor drawn
    #: uniformly from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.5
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
