"""Figure 3: effect of parallelism on query execution time (PR-4 harness).

The paper sweeps CPU cores from 1 to 48 with Rayon-based data
parallelism and observes near-linear speedup for the demanding queries.
This harness sweeps the dataflow engine's worker count over **both**
parallel backends on the Q10–Q12 frontier-explosion mix (plus Q5 for
context):

* ``thread`` — the GIL-bound thread pool: output-invariant, but the
  measured curve is expected to be ~flat on CPU-bound queries (the
  documented CPython substitution recorded since the seed);
* ``process`` — the :mod:`repro.parallel` worker-process pool: the
  execution plan ships the graph to each worker once, chunk-level
  Steps 1–3 run in the workers, and the parent does a single coalescing
  merge.  This is the backend that can actually reproduce the shape of
  the paper's Fig. 3 — *given cores*.  On a single-core host the sweep
  degenerates into an honest measurement of dispatch overhead, so the
  report records ``cpu_count`` next to every ratio.

Per point the harness reports the wall-clock time, the speedup vs the
single-worker run, and the **parallel efficiency** ``t(1) / (w · t(w))``
(1.0 = perfect scaling).  Every measured table is cross-checked against
the sequential engine; any divergence makes the process exit non-zero.

Measurements land in ``BENCH_PR4.json`` keyed by scale factor::

    PYTHONPATH=src python benchmarks/bench_fig3_parallelism.py             # REPRO_SCALE or S4
    PYTHONPATH=src python benchmarks/bench_fig3_parallelism.py --smoke \\
        --out bench_smoke_pr4.json --check-against BENCH_PR4.json \\
        --tolerance 0.25                                                   # CI gate

With ``--check-against`` the run also fails if the process-backend
median speedup at the gate worker count falls more than ``--tolerance``
below the same-scale baseline — skipped (with a warning) on single-core
hosts, where no speedup is physically possible.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
_BENCH_DIR = Path(__file__).resolve().parent
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

from ci_gate import speedup_gate_decision

from repro.datagen import generate_contact_tracing_graph
from repro.datagen.scale import SCALE_FACTORS, default_scale_name
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import EvaluationError

#: The frontier-explosion mix whose median is the headline number.
FOCUS_QUERIES = ("Q10", "Q11", "Q12")
#: Additional demanding query measured for context.
CONTEXT_QUERIES = ("Q5",)
WORKER_COUNTS = (1, 2, 4, 8)
BACKENDS = ("thread", "process")
#: Worker count the regression gate reads (the paper's "sweet spot" range).
GATE_WORKERS = 4


def best_of(rounds: int, fn, *args):
    """Smallest wall-clock time of ``rounds`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def canonical_families(engine, text):
    try:
        families = engine.match_intervals(text)
    except EvaluationError:
        return None
    return sorted(
        ((bindings, tuple(times.intervals)) for bindings, times in families), key=repr
    )


def bench_scale(scale_name: str, positivity: float, rounds: int) -> dict:
    """The worker × backend sweep on one graph."""
    config = SCALE_FACTORS[scale_name].config(positivity_rate=positivity)
    graph = generate_contact_tracing_graph(config)

    sequential = DataflowEngine(graph)
    queries: dict[str, dict] = {}
    divergences = 0

    for name in FOCUS_QUERIES + CONTEXT_QUERIES:
        text = PAPER_QUERIES[name].text

        def run(engine):
            return engine.match_with_stats(text, expand_output=True)

        # Single-worker reference: the common sequential path of both
        # backends, and the ground truth for every divergence check.
        base_seconds, base_result = best_of(rounds, run, sequential)
        reference_rows = base_result.table.as_set()
        reference_families = canonical_families(sequential, text)

        points: dict[str, dict] = {}
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                if workers == 1:
                    entry = {
                        "seconds": round(base_seconds, 6),
                        "speedup": 1.0,
                        "efficiency": 1.0,
                        "outputs_agree": True,
                    }
                    points[f"{backend}-1"] = entry
                    continue
                engine = DataflowEngine(
                    graph, workers=workers, parallel_backend=backend
                )
                # Warm-up: ships the plan payload (process) and builds
                # hop/condition caches, so the timed region measures the
                # steady state — repeated queries on an installed graph.
                warm = run(engine)
                agree = warm.table.as_set() == reference_rows
                seconds, result = best_of(rounds, run, engine)
                agree = agree and result.table.as_set() == reference_rows
                if reference_families is not None:
                    agree = agree and (
                        canonical_families(engine, text) == reference_families
                    )
                if not agree:
                    divergences += 1
                points[f"{backend}-{workers}"] = {
                    "seconds": round(seconds, 6),
                    "speedup": round(base_seconds / max(seconds, 1e-9), 3),
                    "efficiency": round(
                        base_seconds / max(workers * seconds, 1e-9), 3
                    ),
                    "outputs_agree": agree,
                }
        queries[name] = {
            "baseline_seconds": round(base_seconds, 6),
            "output_size": base_result.output_size,
            "points": points,
        }

    def median_speedup(backend: str, workers: int, names=FOCUS_QUERIES) -> float:
        return round(
            statistics.median(
                queries[name]["points"][f"{backend}-{workers}"]["speedup"]
                for name in names
            ),
            3,
        )

    summary = {
        backend: {
            str(workers): median_speedup(backend, workers)
            for workers in WORKER_COUNTS
        }
        for backend in BACKENDS
    }
    return {
        "scale": scale_name,
        "positivity_rate": positivity,
        "cpu_count": os.cpu_count(),
        "num_nodes": graph.num_nodes(),
        "num_edges": graph.num_edges(),
        "queries": queries,
        "focus_queries": list(FOCUS_QUERIES),
        "focus_median_speedup": summary,
        "gate_workers": GATE_WORKERS,
        "divergences": divergences,
    }


def check_against(baseline_path: Path, measured: dict, tolerance: float) -> int:
    """Gate the process-backend focus median at ``GATE_WORKERS`` workers.

    The skip/engage rule (core minimum, missing baseline, core-count
    mismatch) is the shared :func:`ci_gate.speedup_gate_decision` — the
    single, unit-tested definition every core-sensitive gate uses.
    """
    cores = os.cpu_count() or 1
    scale = measured["scale"]
    decision = speedup_gate_decision(
        baseline_path,
        scale,
        cores,
        min_cores=2,
        harness=Path(__file__).name,
    )
    if not decision.engage:
        print(f"WARNING: {decision.reason}")
        return 0
    reference = decision.reference
    expected = reference["focus_median_speedup"]["process"][str(GATE_WORKERS)]
    floor = expected * (1.0 - tolerance)
    got = measured["focus_median_speedup"]["process"][str(GATE_WORKERS)]
    print(
        f"regression check at {scale}: process backend Q10-Q12 median at "
        f"{GATE_WORKERS} workers {got:.2f}x, baseline {expected:.2f}x "
        f"(recorded on {reference.get('cpu_count', '?')} cores, running on "
        f"{cores}), floor {floor:.2f}x"
    )
    if got < floor:
        print(
            f"ERROR: process-backend speedup regressed more than "
            f"{tolerance:.0%} vs {baseline_path}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALE_FACTORS),
        help="scale factor (default: REPRO_SCALE or S4; --smoke forces S1)",
    )
    parser.add_argument("--positivity", type=float, default=0.05)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR4.json"),
        help="JSON report path; existing per-scale sections are preserved",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline BENCH_PR4.json to compare the process-backend median against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression of the gate median (default 25%%)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: smallest scale (still best-of rounds so ratios are stable)",
    )
    args = parser.parse_args(argv)

    scale = args.scale or ("S1" if args.smoke else default_scale_name())
    rounds = max(1, args.rounds)

    measured = bench_scale(scale, args.positivity, rounds)

    out_path = Path(args.out)
    report = {"benchmark": "bench_fig3_parallelism", "results": {}}
    if out_path.exists():
        try:
            report = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            pass
    report["benchmark"] = "bench_fig3_parallelism"
    report["python"] = platform.python_version()
    report.setdefault("results", {})[scale] = measured
    report["rounds"] = rounds
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"=== Figure 3: parallelism at {scale} "
        f"({measured['num_nodes']} nodes, {measured['num_edges']} edges, "
        f"{measured['cpu_count']} CPU core(s)) ==="
    )
    header = (
        f"{'query':<6}{'backend':<9}{'workers':>8}{'time (s)':>11}"
        f"{'speedup':>9}{'efficiency':>12}  agree"
    )
    print(header)
    print("-" * len(header))
    for name, entry in measured["queries"].items():
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                point = entry["points"][f"{backend}-{workers}"]
                print(
                    f"{name:<6}{backend:<9}{workers:>8}{point['seconds']:>11.4f}"
                    f"{point['speedup']:>8.2f}x{point['efficiency']:>12.3f}"
                    f"  {'yes' if point['outputs_agree'] else 'NO'}"
                )
    for backend in BACKENDS:
        medians = measured["focus_median_speedup"][backend]
        curve = ", ".join(f"{w}w: {medians[str(w)]:.2f}x" for w in WORKER_COUNTS)
        print(f"Q10-Q12 median speedup [{backend}]: {curve}")
    print(f"report written to {out_path}")

    status = 0
    if args.check_against:
        status = check_against(Path(args.check_against), measured, args.tolerance)
    if measured["divergences"]:
        print("ERROR: engine outputs diverged", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
