"""``run.py --selftest``: checks of the benchmark itself, on small graphs.

Runs every workload's two passes with one-second windows at 200 persons
and asserts what a reader of the numbers relies on:

* every metric declared in ``BENCHMARK.json`` is emitted, as a number,
  with the declared unit, by every workload;
* the ``dataflow.*`` counts and the answer digests repeat exactly at one
  seed, and the digests change at another seed;
* an oracle fed another seed's answers is noticed: ``failed`` rises and
  the pass is not ``correct`` (which is what makes ``run.py`` exit 1);
* the written spans form one tree per ``request_id``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from pathlib import Path

import harness
import run
import workloads
from repro.datagen import SCALE_FACTORS

SECONDS = 1.0
SMALL = {
    name: dataclasses.replace(scenario, scale=SCALE_FACTORS["S2"])
    for name, scenario in workloads.SCENARIOS.items()
}
COUNTS = ("frontier_rows", "rows_merged", "output_families", "output_points")


def check_declared(result: dict, declared: list[dict]) -> None:
    for entry in declared:
        emitted = result["metrics"].get(entry["name"])
        where = f"{result['workload']}: {entry['name']}"
        assert emitted is not None, f"{where} not emitted"
        assert isinstance(emitted["value"], (int, float)), f"{where} is {emitted['value']!r}"
        assert emitted["unit"] == entry["unit"], f"{where} has unit {emitted['unit']!r}"


def check_span_tree(path: Path) -> None:
    spans = {}
    for line in path.read_text().splitlines():
        span = json.loads(line)
        spans[span["id"]] = span
    roots = defaultdict(int)
    for span in spans.values():
        if span["parent"] is None:
            roots[span["request_id"]] += 1
            continue
        parent = spans[span["parent"]]
        assert parent["request_id"] == span["request_id"], f"span {span['id']} crosses requests"
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (
            f"span {span['id']} is not inside its parent"
        )
    assert roots and all(count == 1 for count in roots.values()), "a request has several roots"


def swap_oracle(inputs: workloads.Inputs) -> None:
    """Feed the oracle another seed's answers: every comparison must now fail."""
    mapping = workloads.id_permutation(inputs.scenario.scale, inputs.seed + 1)
    inputs.expected = {
        name: workloads.relabel(answer, mapping) for name, answer in inputs.expected.items()
    }


def main() -> int:
    spec = harness.spec()
    traced = {}
    for name, scenario in SMALL.items():
        result = run.run_pass(scenario, 11, SECONDS, trace=0)
        assert result["correct"], f"{name}: {result['notes']}"
        check_declared(result, spec["end_to_end"])
        traced[name] = run.run_pass(scenario, 11, SECONDS, trace=1)
        assert traced[name]["correct"], f"{name}: {traced[name]['notes']}"
        check_declared(traced[name], spec["per_layer"])
        check_span_tree(harness.OUT / f"trace_{name}.jsonl")
        print(f"selftest: {name}: declared metrics emitted, spans form trees")

    first = traced["serve_scan"]
    again = run.run_pass(SMALL["serve_scan"], 11, SECONDS, trace=1)
    other = run.run_pass(SMALL["serve_scan"], 12, SECONDS, trace=1)
    for count in COUNTS:
        values = [r["metrics"][f"dataflow.{count}"]["value"] for r in (first, again, other)]
        # A seed permutes identifiers, so the amount of work is seed-independent.
        assert len(set(values)) == 1, f"dataflow.{count} does not repeat: {values}"
    assert first["digests"] == again["digests"], "digests differ at one seed"
    assert first["digests"]["Q1"] != other["digests"]["Q1"], "digests did not change with the seed"
    print("selftest: counts and digests repeat at one seed; digests change with the seed")

    wrong = run.run_pass(SMALL["serve_scan"], 11, SECONDS, trace=0, tamper=swap_oracle)
    assert not wrong["correct"] and wrong["failed"] > 0, "a wrong answer went unnoticed"
    print(f"selftest: swapped oracle noticed ({wrong['failed']} of {wrong['attempted']} failed)")
    return 0
