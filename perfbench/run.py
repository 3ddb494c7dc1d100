"""friendmesh benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload ring_scale --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (and the tracing overhead). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Reference figures (p90 and sample count per operation kind, simulated ms
per operation) go to standard error. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# setup_s is the median of this many fresh builds; more where a build is cheap.
SETUP_REPEATS = {"ring_scale": 3, "history_sync": 5, "loopback": 9}
# The work of a run is fixed: rounds = ROUNDS_PER_SECOND x --seconds. The
# rates were chosen so a round's busy time is about 1/rate seconds on a
# 2-CPU VM; a slower host takes longer but meets the same states.
ROUNDS_PER_SECOND = {"ring_scale": 16, "history_sync": 5, "loopback": 30}

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "register_p50_ms": "ms", "locate_p50_ms": "ms",
    "pull_p50_ms": "ms", "write_p50_ms": "ms", "sync_p50_ms": "ms",
    "msgs_per_op": "count/op", "bytes_per_op": "B/op", "peak_rss_mb": "MB",
}
MSG_CLASSES = ("ring", "rendezvous", "peer", "relay")


def workloads():
    """name -> (build(seed) -> world, the kinds of one round)"""
    import loopback
    import simworld

    carrier = None

    def build_loopback(seed: int):
        nonlocal carrier
        if carrier is None:  # one counter for every world of the process
            carrier = loopback.Carrier()
        return loopback.LoopbackWorld(seed, os.path.join(OUT, f"loopback-{os.getpid()}"), carrier)

    return {
        "ring_scale": (simworld.build_ring_scale, simworld.RING_SCALE_MIX),
        "history_sync": (simworld.build_history_sync, simworld.HISTORY_SYNC_MIX),
        "loopback": (build_loopback, loopback.LOOPBACK_MIX),
    }


def timed_phase(world, mix, seed: int, rounds: int, tracer=None):
    from common import Recorder

    rng = random.Random(f"rounds:{seed}")
    rec = Recorder(tracer, world.virtual_clock)
    mark = world.traffic_mark()
    for _ in range(rounds):
        world.play_round(rng, rec, mix)
    return rec, world.traffic(mark)


def end_to_end(rec, traffic: dict, setup_times: list) -> dict:
    """setup_times: scaled seconds per build."""
    from common import OP_KINDS

    frames = sum(c[0] for c in traffic["classes"].values())
    payload = sum(c[1] for c in traffic["classes"].values())
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": rec.ops_per_s(),
        **{f"{kind}_p50_ms": rec.p50_ms(kind) for kind in OP_KINDS},
        "msgs_per_op": frames / rec.ops,
        "bytes_per_op": payload / rec.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer(rec, traffic: dict, tracer, checker, untraced_ops_per_s: float) -> dict:
    from tracing import LAYERS

    ops = rec.ops
    speed = rec.speed_factor()  # self times and waits at reference speed
    calls = tracer.calls()
    self_ns = tracer.self_ns()
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls_per_op"] = sum(
            n for q, n in calls.items() if q.startswith(layer + ".")) / ops
        values[f"{layer}.self_ms_per_op"] = self_ns[layer] * speed / 1e6 / ops
    lookups = calls["chord.RingNode.find_successor"]
    values.update({
        "chord.node_ident_per_op": calls["chord.node_ident"] / ops,
        "chord.lookups_per_op": lookups / ops,
        "chord.hops_per_lookup": tracer.hops / lookups if lookups else 0.0,
        "chord.maint_msgs_per_op": traffic["maint"] / ops,
        "identity.sign_per_op": calls["identity.sign"] / ops,
        "identity.verify_per_op": calls["identity.verify"] / ops,
        "identity.seal_per_op": calls["identity.seal"] / ops,
        "secure.handshakes_per_op":
            (calls["secure.connect_secure"] + calls["secure.SecureClient.establish"]) / ops,
        "store.ops_per_op": sum(n for q, n in calls.items()
                                if q.startswith(("store.MemoryStore.", "store.SqliteStore."))) / ops,
        "profile.entries_sent_per_pull": checker.sent_total / max(checker.pulls, 1),
        "profile.useful_entry_ratio":
            checker.lacked_total / checker.sent_total if checker.sent_total else 1.0,
        "profile.entries_replayed_per_op": tracer.replayed / ops,
        # Log entries visited: prefix_digest, pull_updates, merge_logs and
        # replay call component_of on each entry they pass over.
        "profile.log_scans_per_op": calls["profile.Profile.component_of"] / ops,
        "netio.connects_per_op": calls["netio.TcpEndpoint.connect"] / ops,
        "netio.wait_ms_per_op":
            tracer.total_ns("netio.TcpChannel.request", tracer.main_thread) * speed / 1e6 / ops,
        # Requests that reached a service more than once (a lost or silent
        # attempt is re-sent); no loss is injected, so this reads 0 unless
        # the protocol starts timing out.
        "simnet.retries_per_op":
            max(traffic.get("requests", 0) - calls["simnet.SimChannel.request"], 0) / ops,
        **{f"msgs.{c}_per_op": traffic["classes"][c][0] / ops for c in MSG_CLASSES},
        "trace.overhead_ratio": rec.ops_per_s() / untraced_ops_per_s,
        "trace.spans_per_op": tracer.span_count() / ops,
    })
    units = {"self_ms_per_op": "ms/op", "wait_ms_per_op": "ms/op", "hops_per_lookup": "hops",
             "overhead_ratio": "ratio", "useful_entry_ratio": "ratio",
             "entries_sent_per_pull": "entries", "log_scans_per_op": "entries/op"}
    return {k: {"value": v, "unit": units.get(k.split(".", 1)[1], "count/op")}
            for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "friendmesh", "__init__.py")):
        print(f"perfbench: no friendmesh sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for every thread of the run: the loopback servers' threads then
    # run on the CPU whose speed the reference block measures, and a thread
    # handoff waits for no other CPU. The GIL lets one thread run at a time
    # anyway, so this takes no parallelism away.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, HERE]
    import checks
    from common import timed_scaled
    from simworld import ChordAnswers

    table = workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload}; one of {sorted(table)}", file=sys.stderr)
        return 2
    build, mix = table[args.workload]
    rounds = ROUNDS_PER_SECOND[args.workload] * args.seconds
    chord_answers = ChordAnswers()
    host_setup: list[float] = []  # unscaled build times, for reference

    def fresh_world():
        """Build the world anew: the world and its build time, scaled."""
        world, scaled, host = timed_scaled(build, args.seed)
        chord_answers.install(world.oracle)
        host_setup.append(host)
        return world, scaled

    def discard(world) -> None:
        """Stop `world`; the caller drops its last reference before the next
        build, so one world at a time counts in peak_rss_mb."""
        if world is not None:
            world.close()

    world = None
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.trace == 0:
            setup_times = []
            for _ in range(SETUP_REPEATS[args.workload]):
                discard(world)
                world = None
                gc.collect()
                world, elapsed = fresh_world()
                setup_times.append(elapsed)
            rec, traffic = timed_phase(world, mix, args.seed, rounds)
            world.check_final()
            metrics = end_to_end(rec, traffic, setup_times)
        else:
            from tracing import Tracer

            world, _ = fresh_world()
            base, _traffic = timed_phase(world, mix, args.seed, rounds)
            world.check_final()
            discard(world)
            world = None
            gc.collect()
            world, _ = fresh_world()
            tracer = Tracer()
            tracer.install()
            try:
                rec, traffic = timed_phase(world, mix, args.seed, rounds, tracer)
            finally:
                tracer.uninstall()
            world.check_final()
            metrics = per_layer(rec, traffic, tracer, world.checker, base.ops_per_s())
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.txt.gz"))
        result = {"correct": True, "attempted": rec.ops + rec.failed, "failed": rec.failed,
                  "metrics": metrics}
        print("perfbench reference: " + json.dumps({"workload": args.workload, "seed": args.seed,
              "rounds": rounds, "host_setup_s": host_setup, **rec.summary()}), file=sys.stderr)
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
    finally:
        discard(world)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
