"""The simulator at growing scale: ring_scale's world and mix per grid cell.

    python3 scripts/scale_sweep.py --seed 1 --rounds 40

For each cell of --servers x --peers it builds the ring_scale world of
perfbench/simworld.py (its SimWorld with ring_scale's NAT share, chords and
mirrors, and one relay per 50 peers, at least one), plays --rounds rounds
of ring_scale's mix with perfbench's round driver, and runs the world's
final checks, with every chord answer checked against the oracle. Each
cell runs in a fresh process, so its peak RSS is its own. Per cell it
records:

- setup_s: host seconds to build the world;
- host_ms_per_op: host time of the timed phase per operation, upkeep and
  perfbench's per-round reference blocks included;
- virtual_s_per_op: virtual time the timed phase spans, per operation;
- msgs_per_op: frames on the simulated wire per operation;
- ring_maint_per_server_s: ring frames sent by upkeep, per server per
  virtual second of the timed phase;
- ring_hops_per_lookup: ring hops per CHORD_LOOKUP a peer sent in the
  timed phase, read from the servers' `EV chord_lookup hops=` events;
- peak_rss_mb, and the operations attempted and failed.

The grid goes to --out (BENCH_scale.json) as JSON. perfbench/ is only
imported, never changed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def relays_for(peers: int) -> int:
    return max(1, peers // 50)


def run_cell(seed: int, servers: int, peers: int, rounds: int) -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    from common import Recorder
    from simworld import RING_SCALE_MIX, ChordAnswers, SimWorld

    t0 = time.perf_counter()
    world = SimWorld(seed, n_servers=servers, n_relays=relays_for(peers), n_peers=peers,
                     global_mode=True, nat_share=0.1, chords=(1,), mirror_every=4)
    setup_s = time.perf_counter() - t0
    ChordAnswers().install(world.oracle)
    rng = random.Random(f"rounds:{seed}")
    rec = Recorder(None, world.virtual_clock)
    mark, v0 = world.traffic_mark(), world.sim.now
    t0 = time.perf_counter()
    for _ in range(rounds):
        world.play_round(rng, rec, RING_SCALE_MIX)
    host_s = time.perf_counter() - t0
    virtual_s = (world.sim.now - v0) / 1000
    traffic = world.traffic(mark)
    world.check_final()
    frames = sum(c[0] for c in traffic["classes"].values())
    hops = [int(line.split(" hops=", 1)[1].split()[0])
            for line in world.sim.trace[mark:] if " EV chord_lookup " in line]
    return {
        "servers": servers, "peers": peers, "relays": relays_for(peers),
        "setup_s": round(setup_s, 3),
        "host_ms_per_op": round(host_s * 1000 / rec.ops, 3),
        "virtual_s_per_op": round(virtual_s / rec.ops, 4),
        "msgs_per_op": round(frames / rec.ops, 2),
        "ring_maint_per_server_s": round(traffic["maint"] / servers / virtual_s, 3),
        "ring_hops_per_lookup": round(sum(hops) / len(hops), 3) if hops else 0.0,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "attempted": rec.ops + rec.failed, "failed": rec.failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--servers", default="4,8,16,32,64")
    parser.add_argument("--peers", default="16,64,256,1024")
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--cell", help=argparse.SUPPRESS)  # "servers,peers": run one cell here
    args = parser.parse_args(argv)
    if args.cell:
        servers, peers = (int(x) for x in args.cell.split(","))
        print(json.dumps(run_cell(args.seed, servers, peers, args.rounds)))
        return 0
    cells = []
    for servers in (int(x) for x in args.servers.split(",")):
        for peers in (int(x) for x in args.peers.split(",")):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--seed", str(args.seed), "--rounds", str(args.rounds),
                   "--cell", f"{servers},{peers}"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            cell = json.loads(proc.stdout.strip().splitlines()[-1])
            print(json.dumps(cell), file=sys.stderr)
            cells.append(cell)
    report = {"seed": args.seed, "rounds": args.rounds, "mix": "ring_scale",
              "relays": "one per 50 peers, at least one", "cells": cells}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
