#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfsuite/spread.py --workload serve-eval --seeds 1,2,3,4,5

Run from the repository root. Each run uses the command in
BENCHMARK.json. For every end-to-end metric (or per-layer metric with
--trace 1) this prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. A spread above
a third of the metric's bound is flagged; the benchmark is steady when
nothing is flagged. --json FILE also saves every run's result line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    declared = {m["name"]: m for m in bench[kind]}
    values = {name: [] for name in declared}
    results = []
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"seed {seed}: no result line (exit {out.returncode})")
        results.append({"seed": int(seed), **result})
        if not result["correct"] or out.returncode != 0:
            sys.exit(f"seed {seed}: incorrect run (exit {out.returncode}): {last}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items() if n in declared),
            flush=True)

    print(f"\n{args.workload}, {len(results)} runs")
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = declared[name].get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else f"WIDE (bound/3 = {bound / 3:.3f})"
        print(f"  {name:36} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f} {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
