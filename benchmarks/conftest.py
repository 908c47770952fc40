"""Shared fixtures and helpers for the paper-reproduction scripts.

Each ``bench_*.py`` here regenerates one table, figure or ablation of
the paper's Section VII (no performance claim: that is ``benchmarks/e2e/``)
and prints its rows.  Plain ``pytest`` collects only ``test_*``, so::

    REPRO_SCALE=S1 PYTHONPATH=src python -m pytest -q \
        -o python_files='bench_*.py' -o python_functions='bench_*' benchmarks/

Environment knobs:

* ``REPRO_SCALE`` — largest scale factor used (default ``S4``; use
  ``S6`` for the most faithful but slowest sweep).
* ``REPRO_BENCH_POSITIVITY`` — positivity rate of the default graphs
  (default ``0.05``, i.e. 5%).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.datagen import generate_contact_tracing_graph
from repro.datagen.scale import SCALE_FACTORS, default_scale_name, scales_up_to

_GRAPH_CACHE: dict[tuple[str, float], object] = {}


def default_positivity() -> float:
    return float(os.environ.get("REPRO_BENCH_POSITIVITY", "0.05"))


def graph_for(scale_name: str, positivity: float | None = None):
    """Generate (and cache) the contact-tracing graph for one scale factor."""
    rate = default_positivity() if positivity is None else positivity
    key = (scale_name, rate)
    if key not in _GRAPH_CACHE:
        config = SCALE_FACTORS[scale_name].config(positivity_rate=rate)
        _GRAPH_CACHE[key] = generate_contact_tracing_graph(config)
    return _GRAPH_CACHE[key]


@pytest.fixture(scope="session")
def largest_scale_name() -> str:
    return default_scale_name()


@pytest.fixture(scope="session")
def largest_graph(largest_scale_name):
    """The largest experimental graph (the stand-in for the paper's G10)."""
    return graph_for(largest_scale_name)


@pytest.fixture(scope="session")
def scale_sweep(largest_scale_name):
    """All scale factors from S1 up to the configured largest one."""
    return scales_up_to(largest_scale_name)


#: Paper-style tables produced by the scripts, emitted in the terminal summary
#: so they survive pytest's output capturing.
_REPORTED_TABLES: list[str] = []


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a fixed-width table, print it, and queue it for the terminal summary."""
    widths = [len(h) for h in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "",
        f"=== {title} ===",
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    text = "\n".join(lines)
    _REPORTED_TABLES.append(text)
    print(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: ARG001
    """Emit the collected paper-style tables after the benchmark summary."""
    if not _REPORTED_TABLES:
        return
    terminalreporter.section("paper-style result tables")
    for text in _REPORTED_TABLES:
        terminalreporter.write_line(text)
