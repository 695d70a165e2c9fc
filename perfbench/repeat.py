#!/usr/bin/env python3
"""Run workloads repeatedly, one seed per run, and report each metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/repeat.py --runs 10 --first-seed 1 --seconds 15
    python3 perfbench/repeat.py --workloads estimate-large --runs 5 --trace 1
    python3 perfbench/repeat.py --first-seed 11 --against first-set.json

Run from the repository root. The spreads are what the bounds in
``BENCHMARK.json`` are set from: a metric is flagged when its spread is not
below a third of its bound. With ``--against``, an earlier summary, each
median is also compared with that set's and flagged when it is worse by
more than the bound. The summary is also written to
``perfbench/out/repeat-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, spec


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": values}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="summary JSON of an earlier set to compare with")
    args = parser.parse_args()
    benchmark = spec()
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    earlier = json.loads(open(args.against).read()) if args.against else {}

    report = {}
    for workload in args.workloads.split(","):
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}",
                  file=sys.stderr)
        summary = summarize(results, bounds)
        shares = {r["failed"] / r["attempted"] for r in results}
        report[workload] = {"metrics": summary, "failed_shares": sorted(shares),
                            "all_correct": all(r["correct"] for r in results),
                            "wall_s": walls}
        print(f"\n{workload}: {args.runs} runs, all correct {report[workload]['all_correct']}, "
              f"failed shares {sorted(shares)}, wall {statistics.median(walls):.1f} s median")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and not s["spread"] < s["bound"] / 3:
                flag = "  <-- spread not below bound/3"
            if name in earlier.get(workload, {}).get("metrics", {}):
                before = earlier[workload]["metrics"][name]["median"]
                change = s["median"] / before - 1.0
                worse = change if better.get(name) == "lower" else -change
                flag += f"  {change:+.1%} vs earlier set"
                if s["bound"] is not None and worse > s["bound"]:
                    flag += " <-- worse by more than bound"
            print(f"  {name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {s['bound']}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
