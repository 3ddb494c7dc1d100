"""Steadiness check: do two sets of fresh-process runs of the same code agree?

    python3 perfbench/steady.py                     # every workload, 2 x 10 runs
    python3 perfbench/steady.py --runs 5 --first-seed 21

For each workload of BENCHMARK.json it makes two sets of runs of
run_seconds each, with distinct seeds, set A and set B, alternating A and B
so that host drift falls on both. For each
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median) and the drift of B's median from
A's in the metric's worse direction, next to the bound in BENCHMARK.json.
The last column is the spread over both sets together. It exits non-zero
when a spread or a drift exceeds its bound, when a run fails or fails a
check, or when the two sets' shares of failed operations differ.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        seed = args.first_seed
        for _ in range(args.runs):
            for name in ("A", "B"):
                result = run_once(workload, seed, spec["run_seconds"])
                if result is None:
                    print(f"{workload}: seed {seed} failed or failed a check")
                    ok = False
                else:
                    sets[name].append(result)
                    timings = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                       for m in spec["end_to_end"] if m["unit"] in ("ms", "1/s"))
                    print(f"{workload} {name} seed {seed}: {timings}", flush=True)
                seed += 1
        if len(sets["A"]) < 2 or len(sets["B"]) < 2:
            continue
        shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for n, rs in sets.items()}
        print(f"\n{workload}: {len(sets['A'])} + {len(sets['B'])} runs, "
              f"failed share A {shares['A']:.6f} B {shares['B']:.6f}")
        if shares["A"] != shares["B"]:
            ok = False
            print("  FAIL: the sets' shares of failed operations differ")
        print(f"  {'metric':<16} {'bound':>6}  {'A median [q1, q3]':>32} {'spread':>7}  "
              f"{'B median [q1, q3]':>32} {'spread':>7} {'drift':>7} {'A+B':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for set_name, results in (*sets.items(), ("A+B", sets["A"] + sets["B"])):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
                stats[set_name] = (q1, med, q3, (q3 - q1) / med)
            worse = stats["B"][1] - stats["A"][1]
            drift = (worse if metric["better"] == "lower" else -worse) / stats["A"][1]
            flags = []
            for set_name in ("A", "B", "A+B"):
                spread = stats[set_name][3]
                if spread > bound:
                    flags.append(f"FAIL spread {set_name} > bound")
                elif spread > bound / 3:
                    flags.append(f"spread {set_name} > bound/3")
            if drift > bound:
                flags.append("FAIL drift > bound")
            ok = ok and not any(f.startswith("FAIL") for f in flags)
            cols = [f"{stats[s][1]:.4g} [{stats[s][0]:.4g}, {stats[s][2]:.4g}]" for s in ("A", "B")]
            print(f"  {name:<16} {bound:>6.3f}  {cols[0]:>32} {stats['A'][3]:>7.3f}  "
                  f"{cols[1]:>32} {stats['B'][3]:>7.3f} {drift:>7.3f} {stats['A+B'][3]:>7.3f}  "
                  f"{'; '.join(flags)}")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
