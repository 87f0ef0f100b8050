"""Steadiness tool: run one workload N times and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload fig1-sweep-web --runs 10
    python3 perfbench/steady.py --workload serve-mixed --runs 10 \\
        --trees /path/to/parent /path/to/change      # alternate two trees

Each run gets its own seed (``--first-seed``, then the next ones).  With
two trees, runs alternate between them, starting with the first tree on
even pairs and the second on odd ones, and every pair uses one seed.  For
each tree and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound in
``BENCHMARK.json``; with two trees, also the change of the second median
against the first.  Use it to set and check the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per tree")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trees", nargs="+", type=Path, default=[ROOT])
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("at most two trees")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {tree: [] for tree in args.trees}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = args.trees if i % 2 == 0 else list(reversed(args.trees))
        for tree in order:
            out = run_once(tree, args.workload, seed, seconds)
            results[tree].append(out)
            values = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
            print(f"run {i} seed {seed} {tree}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {values}", flush=True)

    medians = {}
    for tree, outs in results.items():
        print(f"\n{tree}  ({len(outs)} runs, {args.workload}, {seconds}s)")
        shares = {o["failed"] / o["attempted"] for o in outs}
        print(f"  correct in every run: {all(o['correct'] for o in outs)}; "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}")
        for name in outs[0]["metrics"]:
            values = [o["metrics"][name]["value"] for o in outs]
            median, q1, q3, spread = describe(values)
            medians.setdefault(name, []).append(median)
            bound = bounds.get(name)
            share = f"{spread / bound:7.2f}" if bound else "      -"
            print(f"  {name:28s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {share}")
    if len(args.trees) == 2:
        print("\nsecond tree's median against the first's:")
        for name, (first, second) in medians.items():
            change = (second - first) / first if first else 0.0
            bound = bounds.get(name)
            note = "" if bound is None else ("  WORSE THAN BOUND" if change > bound else "")
            print(f"  {name:28s} {change:+8.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
