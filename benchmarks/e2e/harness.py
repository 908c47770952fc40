"""The one timer / statistics / span / result implementation of the e2e benchmark.

Everything that turns raw samples into a reported number lives here, so
the four workloads and the per-layer ledger cannot drift apart:

* :func:`class_latency` — the benchmark's latency statistic: the median
  over rounds of the round's mean latency for one class of operation;
* :func:`quartiles`, :func:`tail_percentile` — spread and the highest
  percentile that still has ten samples beyond it;
* :class:`Tracer` — in-memory spans (``name, start, end, parent,
  request_id``) with self-time accounting, written out at exit;
* :func:`calibration_ms` — a fixed pure-Python loop, so two result files
  from different hosts (or a noisy moment on one host) can be told apart;
* :func:`environment`, :func:`write_result` — the one result schema.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

SCHEMA = "repro-e2e/1"

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"


def spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics, units and window."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def median(samples) -> float:
    return float(statistics.median(samples))


def quartiles(samples) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles(n=4)``)."""
    if len(samples) < 2:
        only = float(samples[0])
        return only, only
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q3)


def class_latency(rounds: list[list[float]]) -> float:
    """Median over rounds of each round's mean latency.

    A round holds the latencies of every operation of one class issued
    in that round, so the statistic moves when any member query moves,
    while one GC pause or scheduler hiccup shifts a single round only.
    """
    return median(round_means(rounds))


def round_means(rounds: list[list[float]]) -> list[float]:
    return [statistics.fmean(r) for r in rounds if r]


def tail_percentile(samples) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than 20 samples the tail
    is not resolvable and the maximum is reported as ``p100``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100, float(ordered[-1])
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100.0 >= 10:
            return pct, float(ordered[min(n - 1, int(n * pct / 100.0))])
    return 50, float(ordered[n // 2])


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    id: int
    name: str
    request_id: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: Counts recorded at the same boundary (rows, bytes, hits ...).
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; a disabled tracer records nothing.

    The disabled form still runs the wrapped code through the same
    context manager, which is what makes the traced / untraced replay
    ratio (``harness.trace_overhead_ratio``) an honest overhead figure.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, request_id: str = "") -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            request_id=request_id or (parent.request_id if parent else ""),
            parent=None if parent is None else parent.id,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover."""
        own = {span.id: span.seconds for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        own = self.self_seconds()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "request_id": span.request_id,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                            "self_seconds": own[span.id],
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


# --------------------------------------------------------------------- #
# Host facts
# --------------------------------------------------------------------- #
def calibration_ms() -> float:
    """Best of three timings of a fixed pure-Python loop (interpreter speed)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += (i * i) % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of ``pid`` (default: this process) in MiB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def environment() -> dict:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha,
        "argv": sys.argv[1:],
    }


# --------------------------------------------------------------------- #
# Result schema
# --------------------------------------------------------------------- #
def metric(value: Optional[float], unit: str, samples: Optional[list] = None) -> dict:
    """One reported number: value + unit, with sample count and quartiles."""
    entry: dict = {"value": value, "unit": unit}
    if samples:
        q1, q3 = quartiles(samples)
        entry.update(samples=len(samples), q1=q1, q3=q3)
    return entry


def class_latency_metric(rounds: list[list[float]], unit: str) -> dict:
    """:func:`class_latency` of ``rounds``, with the round means as its samples."""
    return metric(class_latency(rounds), unit, round_means(rounds))


def write_result(runs: list[dict], *, seed: int, seconds: float, comparable: bool) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / "result.json"
    path.write_text(
        json.dumps(
            {
                "schema": SCHEMA,
                "env": environment(),
                "seed": seed,
                "seconds": seconds,
                "comparable": comparable,
                "runs": runs,
            },
            indent=1,
        )
        + "\n"
    )
    return path
