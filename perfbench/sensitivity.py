"""Sensitivity check: slow one public function per layer, see what moves.

    python3 perfbench/sensitivity.py

For each target below it runs every workload with a fixed busy-wait added
to each call of the target, and without, in fresh processes with seed SEED
and --seconds SECONDS. The host's speed drifts over minutes, so each slowed
run is paired with a plain run of the same workload made just before it
(just after it on odd cycles); it prints, for each end-to-end timing, the
median over CYCLES pairs of the slowed run's value over the plain run's.
The program is not edited: the child process
replaces the function before run.py imports the workloads. A timing that
moves under the added cost is measured in host time (scaled to reference
speed, see common.REFERENCE_NS); one that stays put on a workload shows
that workload does not exercise the layer.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# target -> (busy-wait per call in microseconds, the workload it should move)
TARGETS = {
    "chord.node_ident": (2, "ring_scale"),
    "profile.Profile.prefix_digest": (1000, "history_sync"),
    "identity.sign": (5000, "ring_scale, loopback: register"),
    "netio.TcpChannel.request": (500, "loopback"),
}
SEED = 11
SECONDS = 15
CYCLES = 5
WORKLOADS = ("ring_scale", "history_sync", "loopback")
TIMINGS = ("ops_per_s", "register_p50_ms", "locate_p50_ms", "pull_p50_ms", "write_p50_ms",
           "sync_p50_ms")


def slow_down(target: str, cost_us: int) -> None:
    """Add a busy-wait of cost_us to every call of `target` (module.attr or
    module.Class.attr under friendmesh), wherever it was imported by name."""
    import importlib

    module_name, _, rest = target.partition(".")
    module = importlib.import_module(f"friendmesh.{module_name}")
    owner, _, attr = rest.rpartition(".")
    holder = getattr(module, owner) if owner else module
    original = getattr(holder, attr)
    cost_ns = cost_us * 1000

    def slowed(*args, **kwargs):
        end = time.perf_counter_ns() + cost_ns
        while time.perf_counter_ns() < end:
            pass
        return original(*args, **kwargs)

    if owner:
        setattr(holder, attr, slowed)
        return
    for name, mod in list(sys.modules.items()):
        if name.startswith("friendmesh") and mod is not None and vars(mod).get(attr) is original:
            setattr(mod, attr, slowed)


def child(argv: list[str]) -> int:
    target, cost_us, run_args = argv[0], int(argv[1]), argv[2:]
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run

    # setup_s is not compared here; one build per run keeps the check short.
    run.SETUP_REPEATS = dict.fromkeys(run.SETUP_REPEATS, 1)
    if target != "none":
        slow_down(target, cost_us)  # modules imported later pick up the slowed function
    return run.main(run_args)


def measure(target: str, cost_us: int, workload: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", target, str(cost_us),
           "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{target} on {workload} failed:\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--child":
        return child(argv[1:])
    if argv:
        raise SystemExit("usage: python3 perfbench/sensitivity.py (takes no arguments)")
    ratios = {(t, w): [] for t in TARGETS for w in WORKLOADS}
    for cycle in range(CYCLES):
        for workload in WORKLOADS:
            for target, (cost_us, _) in TARGETS.items():
                order = [("none", 0), (target, cost_us)]
                if cycle % 2:
                    order.reverse()
                got = {variant: measure(variant, cost, workload) for variant, cost in order}
                ratios[(target, workload)].append(
                    {t: got[target][t] / got["none"][t] for t in TIMINGS})

    print(f"median over {CYCLES} pairs of each timing's slowed/plain ratio "
          f"(seed {SEED}, {SECONDS} s); ops_per_s below 1 and p50 above 1 mean slower")
    print(f"{'target (+cost per call)':<38} {'workload':<13} "
          + " ".join(f"{t.removesuffix('_ms'):>12}" for t in TIMINGS))
    for target, (cost_us, predicted) in TARGETS.items():
        for w in WORKLOADS:
            cells = " ".join(f"{statistics.median(r[t] for r in ratios[(target, w)]):>12.2f}"
                             for t in TIMINGS)
            print(f"{target + f' (+{cost_us} us)':<38} {w:<13} {cells}")
        print(f"{'':<38} predicted to move: {predicted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
