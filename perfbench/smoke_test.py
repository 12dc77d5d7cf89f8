#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload once through `run.py --workload all` untraced, then each
workload traced, all at `--size tiny`.  It asserts that every end-to-end
metric of BENCHMARK.json prints for every workload with its declared unit,
that every per-layer metric prints in the traced runs, that every run's
outputs pass their checks, and that each workload's untraced and traced
digests agree.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["survey", "crowd", "sessions"]


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digests = dict(re.findall(r"^digest (\w+) ([0-9a-f]{16})$", proc.stdout, re.MULTILINE))
    return json.loads(lines[-1]), digests


def check_metrics(result, declared, prefix=""):
    for metric in declared:
        name = prefix + metric["name"]
        assert name in result["metrics"], f"{name} missing"
        assert result["metrics"][name]["unit"] == metric["unit"], f"{name} has the wrong unit"
    assert len(result["metrics"]) == len(declared), "undeclared metrics printed"


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS

    combined, untraced = run("all", 0)
    assert combined["correct"] and combined["failed"] == 0, combined
    assert len(combined["metrics"]) == len(WORKLOADS) * len(spec["end_to_end"])
    for workload in WORKLOADS:
        check_metrics(
            {"metrics": {k: v for k, v in combined["metrics"].items()
                         if k.startswith(workload + ".")}},
            spec["end_to_end"],
            prefix=workload + ".",
        )

    for workload in WORKLOADS:
        traced, digests = run(workload, 1)
        assert traced["correct"] and traced["failed"] == 0, (workload, traced)
        check_metrics(traced, spec["per_layer"])
        assert digests[workload] == untraced[workload], f"{workload}: digests differ"
        print(f"{workload}: digest {digests[workload]}, "
              f"{len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics print")
    print("smoke test passed")


if __name__ == "__main__":
    main()
