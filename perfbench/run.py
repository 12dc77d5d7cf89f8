#!/usr/bin/env python3
"""Builds and runs the MFC reproduction's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload survey|crowd|sessions|all --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--record FILE] [--spans FILE]
    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

The first form builds `perfbench` (a Cargo package of its own that depends
on the repository's crates by path) in release mode and runs one workload;
the last line of its output is the JSON result.  `--workload all` runs each
workload in its own process, one after another, prints every metric with
its unit in one table and ends with a combined JSON result.  `--record FILE`
appends one JSON record per run (digest, effective core count, host
slowdown, result) to FILE; two such files, one per commit, are the input of
`compare`.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["survey", "crowd", "sessions"]


def build():
    """Builds the benchmark and returns the path of its executable."""
    manifest = HERE / "Cargo.toml"
    if not (HERE.parent / "crates").is_dir():
        sys.exit("perfbench: the repository's crates are not next to perfbench/")
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    return target.resolve() / "release" / "mfc-perfbench"


def option(args, flag):
    """The value given for `flag`, or None."""
    index = args.index(flag) if flag in args else len(args)
    return args[index + 1] if index + 1 < len(args) else None


def run_all(binary, args):
    """Runs every workload in its own process and combines the results."""
    correct, attempted, failed, metrics, rows = True, 0, 0, {}, []
    for workload in WORKLOADS:
        child = list(args)
        child[child.index("--workload") + 1] = workload
        proc = subprocess.run([str(binary)] + child, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{workload}.{name}"] = value
            rows.append((workload, name, value["value"], value["unit"]))
    print()
    print(f"{'workload':<10} {'metric':<42} {'value':>18} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<10} {name:<42} {value:>18.4f} {unit}")
    print(f"failed_frac {failed / attempted if attempted else 0} ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """One metric of one workload: better, worse, unchanged or unresolved.

    A change is better when it wins at least nine tenths of the pairs
    (ties count for neither side) and the medians differ by more than the
    parent's interquartile range.  With a bound, it is worse when its median
    is worse than the parent's by more than the bound; when either side's
    spread is wider than the bound it is unresolved unless every change run
    beats every parent run; otherwise it is unchanged.  Without a bound,
    anything short of a clear win or loss is unresolved.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    q1, median_b, q3 = quartiles(base)
    c1, median_c, c3 = quartiles(change)
    iqr = q3 - q1
    moved = abs(median_c - median_b) > iqr
    if pairs and wins >= 0.9 * len(pairs) and moved:
        return "better"
    if bound is None:
        return "worse" if pairs and losses >= 0.9 * len(pairs) and moved else "unresolved"
    spread = max(iqr / median_b if median_b else 0, (c3 - c1) / median_c if median_c else 0)
    if spread > bound:
        if all(sign * (c - b) > 0 for b in base for c in change):
            return "better"
        return "unresolved"
    if median_b and sign * (median_c - median_b) / median_b < -bound:
        return "worse"
    return "unchanged"


def compare(base_path, change_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(base_path), load(change_path)
    for label, records in (("base", base), ("change", change)):
        cores = sorted({round(r["effective_cores"], 2) for r in records})
        print(f"{label}: {len(records)} runs, effective cores {cores}")
    print(f"{'workload':<10} {'metric':<42} {'base':>16} {'change':>16}  verdict")
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in base + change}):
        # Runs pair up by seed: the k-th base run of a seed with the k-th
        # change run of the same seed.
        pairs = []
        for seed in sorted({r["seed"] for r in base}):
            key = (workload, trace, seed)
            side_b = [r for r in base if (r["workload"], r["trace"], r["seed"]) == key]
            side_c = [r for r in change if (r["workload"], r["trace"], r["seed"]) == key]
            pairs.extend(zip(side_b, side_c))
        if not pairs:
            print(f"{workload:<10} (trace {trace}) has no base and change runs of a common seed")
            continue
        same = all(b["digest"] == c["digest"] for b, c in pairs)
        print(f"{workload:<10} {'digest (per seed)':<42} {len(pairs):>16} {'pairs':>16}  "
              f"{'equal' if same else 'differs'}")
        for name in pairs[0][0]["result"]["metrics"]:
            try:
                b = [p[0]["result"]["metrics"][name]["value"] for p in pairs]
                c = [p[1]["result"]["metrics"][name]["value"] for p in pairs]
            except KeyError:
                print(f"{workload:<10} {name:<42} missing on one side")
                continue
            meta = declared.get(name, {"unit": "", "better": "lower"})
            if meta["unit"] == "count":
                row = "equal" if b == c else "differs"
            else:
                row = verdict(b, c, meta["better"], meta.get("bound"))
            print(f"{workload:<10} {name:<42} {statistics.median(b):>16.4f} "
                  f"{statistics.median(c):>16.4f}  {row}")


def main():
    args = sys.argv[1:]
    if args and args[0] == "compare":
        if len(args) != 3:
            sys.exit("usage: run.py compare BASE.jsonl CHANGE.jsonl")
        compare(args[1], args[2])
        return
    binary = build()
    if option(args, "--workload") == "all":
        run_all(binary, args)
        return
    sys.exit(subprocess.run([str(binary)] + args).returncode)


if __name__ == "__main__":
    main()
