"""PR-10 regression harness: columnar kernel vs interpreted evaluation.

PR 10 added a second evaluation kernel (``DataflowEngine(kernel=
"columnar")``): fused step chains compile into columnar ops over dense
NumPy arrays — adjacency/existence/condition tables as int64 CSR,
interval families as flat ``(owner, start, end)`` arrays on a guarded
global time axis, navigation and coalescing as sort + ``searchsorted``
sweeps.  The interpreted per-row engine remains the semantics oracle;
chain shapes the kernel does not cover fall back to it with the reason
recorded in ``explain()``.

The harness runs the full **Table-II query mix** (Q1–Q12) twice on the
same graph —

* **interpreted** — the per-row coalescing engine
  (``kernel="interpreted"``, the oracle);
* **columnar** — the default kernel, named explicitly
  (Q6–Q8 are point-mode and legitimately fall back, so their ratio
  hovers around 1x and drags the median down — that is the honest
  number for the whole mix);

cross-checks every answer (point tables, and interval families where
defined) between the two engines, and reports per-query and median
speedups.  The headline number is the median over all twelve queries.

The measurements land in ``BENCH_PR10.json`` keyed by scale factor::

    PYTHONPATH=src python benchmarks/bench_columnar.py               # REPRO_SCALE or S4
    PYTHONPATH=src python benchmarks/bench_columnar.py --scale S1    # add the S1 section
    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke \\
        --out bench_smoke_pr10.json --check-against BENCH_PR10.json  # CI regression gate

With ``--check-against`` the process exits non-zero if any output pair
diverges or if the measured median speedup falls more than
``--tolerance`` below the same-scale baseline.  When NumPy is not
importable (the bench-gate CI job installs none) the speedup leg is
skipped — there is nothing to measure — but the harness still verifies
that the columnar-configured engine degrades to interpreted with
identical output.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datagen import generate_contact_tracing_graph
from repro.datagen.scale import SCALE_FACTORS, default_scale_name
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import EvaluationError
from repro.perf import columnar, graph_index_for

#: The whole Table-II mix; the headline median runs over all of it.
MIX = tuple(PAPER_QUERIES)


def best_of(rounds: int, fn, *args):
    """Smallest wall-clock time of ``rounds`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def _families_agree(a_engine, b_engine, text: str) -> bool:
    """Interval output parity: same families, or the same rejection."""
    try:
        expected = a_engine.match_intervals(text)
    except EvaluationError:
        try:
            b_engine.match_intervals(text)
        except EvaluationError:
            return True
        return False
    try:
        got = b_engine.match_intervals(text)
    except EvaluationError:
        return False
    return sorted(got, key=repr) == sorted(expected, key=repr)


def bench_scale(scale_name: str, positivity: float, rounds: int) -> dict:
    """The Table-II mix, columnar vs interpreted, on one graph."""
    config = SCALE_FACTORS[scale_name].config(positivity_rate=positivity)
    graph = generate_contact_tracing_graph(config)

    start = time.perf_counter()
    graph_index_for(graph)
    compile_seconds = time.perf_counter() - start

    interpreted = DataflowEngine(graph, kernel="interpreted")
    columnar_engine = DataflowEngine(graph, kernel="columnar")

    queries: dict[str, dict] = {}
    divergences = 0
    for name in MIX:
        text = PAPER_QUERIES[name].text
        plan = columnar_engine.explain(text)
        interpreted_seconds, expected = best_of(
            rounds, interpreted.match_with_stats, text
        )
        columnar_seconds, got = best_of(
            rounds, columnar_engine.match_with_stats, text
        )
        agree = got.table.as_set() == expected.table.as_set() and _families_agree(
            interpreted, columnar_engine, text
        )
        if not agree:
            divergences += 1
        queries[name] = {
            "interpreted_seconds": round(interpreted_seconds, 6),
            "columnar_seconds": round(columnar_seconds, 6),
            "speedup": round(interpreted_seconds / max(columnar_seconds, 1e-9), 3),
            "output_size": expected.output_size,
            "effective_kernel": plan["effective_kernel"],
            "kernel_fallback": plan["kernel_fallback"],
            "outputs_agree": agree,
        }

    speedups = [entry["speedup"] for entry in queries.values()]
    covered = [
        entry["speedup"]
        for entry in queries.values()
        if entry["effective_kernel"] == "columnar"
    ]
    return {
        "scale": scale_name,
        "positivity_rate": positivity,
        "num_nodes": graph.num_nodes(),
        "num_edges": graph.num_edges(),
        "index_compile_seconds": round(compile_seconds, 6),
        "queries": queries,
        "median_speedup": round(statistics.median(speedups), 3),
        "covered_median_speedup": (
            round(statistics.median(covered), 3) if covered else None
        ),
        "covered_queries": sum(
            1 for e in queries.values() if e["effective_kernel"] == "columnar"
        ),
        "divergences": divergences,
    }


def check_fallback_parity(scale_name: str, positivity: float) -> int:
    """NumPy-absent leg: the columnar engine must answer interpreted-identical."""
    config = SCALE_FACTORS[scale_name].config(positivity_rate=positivity)
    graph = generate_contact_tracing_graph(config)
    interpreted = DataflowEngine(graph, kernel="interpreted")
    degraded = DataflowEngine(graph, kernel="columnar")
    failures = 0
    for name in MIX:
        text = PAPER_QUERIES[name].text
        plan = degraded.explain(text)
        if plan["effective_kernel"] != "interpreted":
            print(f"ERROR: {name} claims columnar without numpy", file=sys.stderr)
            failures += 1
            continue
        if degraded.match(text).as_set() != interpreted.match(text).as_set():
            print(f"ERROR: {name} diverged in degraded mode", file=sys.stderr)
            failures += 1
    print(
        f"numpy unavailable: verified interpreted-degradation parity on "
        f"{len(MIX)} queries at {scale_name} ({failures} failures); "
        "skipping the speedup measurement"
    )
    return failures


def check_against(baseline_path: Path, measured: dict, tolerance: float) -> int:
    """Compare the measured Table-II median against the same-scale baseline."""
    if not baseline_path.exists():
        print(f"WARNING: baseline {baseline_path} not found; skipping check")
        return 0
    baseline = json.loads(baseline_path.read_text())
    scale = measured["scale"]
    reference = baseline.get("results", {}).get(scale)
    if reference is None:
        print(
            f"WARNING: baseline {baseline_path} has no {scale} section; "
            "skipping regression check"
        )
        return 0
    expected = reference["median_speedup"]
    floor = expected * (1.0 - tolerance)
    got = measured["median_speedup"]
    print(
        f"regression check at {scale}: measured Table-II median {got:.2f}x, "
        f"baseline {expected:.2f}x, floor {floor:.2f}x"
    )
    if got < floor:
        print(
            f"ERROR: columnar median speedup regressed more than "
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
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR10.json"),
        help="JSON report path; existing per-scale sections are preserved",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline BENCH_PR10.json to compare the Table-II median against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression of the Table-II median (default 25%%)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: smallest scale (still best-of-3 so the ratio is stable)",
    )
    args = parser.parse_args(argv)

    scale = args.scale or ("S1" if args.smoke else default_scale_name())
    rounds = max(1, args.rounds)

    if not columnar.available():
        failures = check_fallback_parity(scale, args.positivity)
        Path(args.out).write_text(
            json.dumps(
                {
                    "benchmark": "bench_columnar",
                    "skipped": "numpy is not installed",
                    "degradation_parity_failures": failures,
                },
                indent=2,
            )
            + "\n"
        )
        return 1 if failures else 0

    measured = bench_scale(scale, args.positivity, rounds)

    out_path = Path(args.out)
    report = {"benchmark": "bench_columnar", "results": {}}
    if out_path.exists():
        try:
            report = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            pass
    report["benchmark"] = "bench_columnar"
    report["python"] = platform.python_version()
    report.setdefault("results", {})[scale] = measured
    report["rounds"] = rounds
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"=== columnar kernel at {scale} "
        f"({measured['num_nodes']} nodes, {measured['num_edges']} edges) ==="
    )
    header = (
        f"{'query':<6}{'interp (s)':>12}{'columnar (s)':>14}{'speedup':>9}"
        f"{'rows':>9}  kernel       agree"
    )
    print(header)
    print("-" * len(header))
    for name, entry in measured["queries"].items():
        print(
            f"{name:<6}{entry['interpreted_seconds']:>12.4f}"
            f"{entry['columnar_seconds']:>14.4f}{entry['speedup']:>8.2f}x"
            f"{entry['output_size']:>9}  {entry['effective_kernel']:<12}"
            f"{'yes' if entry['outputs_agree'] else 'NO'}"
        )
    covered = measured["covered_median_speedup"]
    print(
        f"median speedup: {measured['median_speedup']:.2f}x over the full "
        f"Table-II mix ({measured['covered_queries']}/12 columnar-covered, "
        f"{covered:.2f}x on the covered set; "
        f"index compile: {measured['index_compile_seconds']:.3f}s)"
    )
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
