"""Paired benchmark runs of two checkouts, summarised per metric.

    python3 scripts/bench_pairs.py BASE CHANGE --workload ring_scale \
        --seeds 201,202,203 --pairs 10 --slug chord_routing

BASE and CHANGE are checkout directories. Pair i runs
`perfbench/run.py --workload W --seed S --seconds N --trace 0` once in each,
each in a fresh process with the checkout as its working directory, where S
is the i-th seed of the list (the list repeats when shorter than the pairs)
and N is BENCHMARK.json's run_seconds. The base runs first in even pairs
and second in odd ones, so host drift falls on both sides.

For each end-to-end metric of BASE's BENCHMARK.json it records each side's
median and quartiles (`statistics.quantiles(values, n=4)`), the pairs the
change won, the ties and every run's value, and writes them under the
workload's name in BENCH_<slug>.json in the current directory, keeping
the other workloads already in that file. It stops with an error if a run
fails, fails its checks or prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("base", "change")


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its checks")
    return result


def summarise(metric: dict, runs: dict[str, list[dict]]) -> dict:
    name = metric["name"]
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    sign = 1 if metric["better"] == "higher" else -1
    diffs = [sign * (c - b) for b, c in zip(values["base"], values["change"])]
    out: dict = {"unit": metric["unit"], "better": metric["better"]}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(values[side], n=4)
        out[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3,
                     "runs": values[side]}
    out["change_won"] = sum(d > 0 for d in diffs)
    out["ties"] = sum(d == 0 for d in diffs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="checkout directory of the parent")
    parser.add_argument("change", help="checkout directory of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated, e.g. 201,202")
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    parser.add_argument("--slug", required=True, help="names the output BENCH_<slug>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    seeds = [int(s) for s in args.seeds.split(",")]
    checkouts = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["base"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(checkouts[side], args.workload, seed, seconds))
        print(f"{args.workload} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    entry = {
        "seeds": [seeds[i % len(seeds)] for i in range(args.pairs)],
        "seconds": seconds,
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "metrics": {m["name"]: summarise(m, runs) for m in spec["end_to_end"]},
    }
    path = f"BENCH_{args.slug}.json"
    report = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    report[args.workload] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        print(f"{args.workload:13s} {name:16s} base {m['base']['median']:10.4g} "
              f"[{m['base']['q1']:.4g}-{m['base']['q3']:.4g}]  change {m['change']['median']:10.4g} "
              f"[{m['change']['q1']:.4g}-{m['change']['q3']:.4g}]  won {m['change_won']}/{args.pairs}"
              f" ties {m['ties']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
