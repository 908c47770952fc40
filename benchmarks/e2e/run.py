#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, five end-to-end
metrics, a per-layer ledger.

    python3 benchmarks/e2e/run.py                      # every workload, both passes
    python3 benchmarks/e2e/run.py --workload serve_scan --seed 12 --trace 0
    python3 benchmarks/e2e/run.py --selftest

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the per-layer ledger (spans, probes, a short real
server pass).  Every answer is checked; every metric is printed by name
with its unit; after each pass one JSON object
``{"correct", "attempted", "failed", "metrics"}`` is printed on its own
line, so the last line of output is the last pass's result.  The exit
code is non-zero if any answer was wrong or any operation failed.

The window length defaults to ``run_seconds`` of ``BENCHMARK.json``;
any other ``--seconds`` marks the result file ``comparable: false``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness

if not (harness.SRC / "repro").is_dir():
    sys.exit(f"error: {harness.SRC} does not hold the repro package; nothing to benchmark")
sys.path.insert(0, str(harness.SRC))

import ledger  # noqa: E402
import workloads  # noqa: E402

SPEC = harness.spec()


def end_to_end(outcome: workloads.Outcome) -> dict[str, dict]:
    metrics = {
        "setup_s": harness.metric(harness.median(outcome.setup_samples), "s", outcome.setup_samples),
        "ops_per_s": harness.metric(outcome.ok_ops / outcome.window_seconds, "1/s"),
        "light_p50_ms": harness.class_latency_metric(outcome.rounds["light"], "ms"),
        "heavy_p50_ms": harness.class_latency_metric(outcome.rounds["heavy"], "ms"),
        "peak_rss_mb": harness.metric(outcome.peak_rss_mb, "MiB"),
    }
    # Tail diagnostics: printed and written to the result file, never bounded.
    for cls in ("light", "heavy"):
        samples = [ms for r in outcome.rounds[cls] for ms in r]
        pct, value = harness.tail_percentile(samples)
        metrics[f"client.{cls}_p{pct}_ms"] = harness.metric(value, "ms", samples)
    for name, (value, unit) in outcome.extras.items():
        metrics[f"client.{name}"] = harness.metric(value, unit)
    return metrics


def run_pass(scenario: workloads.Scenario, seed: int, seconds: float, trace: int, tamper=None) -> dict:
    """One (workload, trace) pass in a fresh temp directory.

    ``tamper`` (the self-test's seam) may alter the generated inputs
    before they are used.
    """
    name = scenario.name
    harness.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=harness.OUT, prefix=f"{name}-")
    before = harness.calibration_ms()
    try:
        inputs = workloads.prepare(scenario, seed, Path(workdir))
        if tamper is not None:
            tamper(inputs)
        # The inputs and oracle answers are millions of small objects; keep
        # the load generator's own collector from walking them mid-window.
        gc.collect()
        gc.freeze()
        if trace:
            metrics, tally, digests = ledger.run(inputs, seconds)
        else:
            outcome = workloads.RUNNERS[name](inputs, seconds)
            metrics, tally, digests = end_to_end(outcome), outcome.tally, outcome.digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = harness.calibration_ms()
    metrics["harness.calibration_ms"] = harness.metric((before + after) / 2, "ms", [before, after])
    return {
        "workload": name,
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # The interpreter itself ran at two speeds around this pass.
        "noisy": abs(after - before) > 0.10 * min(before, after),
        "metrics": metrics,
        "digests": digests,
        "notes": tally.notes,
    }


def report(run: dict) -> None:
    declared = [m["name"] for m in SPEC["per_layer" if run["trace"] else "end_to_end"]]
    label = f"{run['workload']} [{'per-layer' if run['trace'] else 'end-to-end'}]"
    for name, entry in run["metrics"].items():
        value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
        spread = ""
        if "samples" in entry:
            spread = f"  (n={entry['samples']}, q1={entry['q1']:.4g}, q3={entry['q3']:.4g})"
        mark = " " if name in declared else "~"  # ~ = diagnostic, not in BENCHMARK.json
        print(f"{label:32s} {mark}{name:40s} {value:>12s} {entry['unit']}{spread}")
    for note in run["notes"]:
        print(f"{label:32s} ! {note}")
    if run["noisy"]:
        print(f"{label:32s} ! noisy: calibration loop moved by more than 10 % during the pass")
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": run["metrics"][name]["value"], "unit": run["metrics"][name]["unit"]}
                    for name in declared
                },
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.SCENARIOS), help="default: all four")
    parser.add_argument("--seed", type=int, default=11, help="input seed (default 11)")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--selftest", action="store_true", help="check the benchmark itself (< 60 s)")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.main()
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    try:
        for name in names:
            for trace in traces:
                runs.append(run_pass(workloads.SCENARIOS[name], args.seed, args.seconds, trace))
                report(runs[-1])
    except workloads.BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        harness.write_result(
            runs,
            seed=args.seed,
            seconds=args.seconds,
            comparable=args.seconds == SPEC["run_seconds"],
        )
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
