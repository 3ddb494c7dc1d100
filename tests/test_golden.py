"""Golden replay gate: the trace of every committed scenario, byte for byte.

Every hash was re-recorded, on purpose, when the registration record
lost its unsigned NAT kind and a peer that needs a relay came to register
port 0. Each trace kept its lines, times and events; only the sizes of
the frames that carry a record shrank: 8 bytes for a public owner's, 11
for a full-cone owner's, 18 or 19 for a relayed owner's. s1_sybil's was
re-recorded again when a ring node came to route through the servers that
answered its lookups: its 100 sybils make the one ring large enough for
lookups to take fewer hops, and one more locate meets a sybil that owns
the key but holds no row. Every hash was last re-recorded when the
registration record lost the server's last_refresh stamp: again each trace
kept its lines, times and events, and only the locate replies and the
ring_replicate and ring_transfer frames shrank, by 5 or 6 bytes per record
(the stamp's decimal digits and their length prefix). baseline's was
re-recorded once more when a relayed peer's liveness became its held leg:
its three relayed peers no longer send server_is_alive each tick, so the
trace lost those 45 requests and their replies, the 3 admit replies lost
their 24 bytes of interval and token, and the times after the first
keepalive moved, as every exchange draws its latency from one generator.
Its outcomes did not move. Every hash was re-recorded again when a batch
of log entries or a mirror table became its message's last fields and a
seal lost its wrapped data key. Each trace kept its lines, times and events
(each pull and sync event its bytes), and only two kinds of frame shrank:
app_data frames carrying a batch (pull replies, sync_push and mirror_init
requests, friend_accept both ways) by 2 bytes, the batch's own length
prefix, and frames carrying a sealed blob (session_key, cert_reply both
ways, passphrase_blob requests and the register replies that deliver them)
by 60. In baseline 457 app_data frames lost 2 bytes, and 86 session_key,
32 cert_reply and 32 app_data frames lost 60. Every hash was re-recorded
again when a peer came to ask each lookup first of the configured server
preceding the key, which answers from its own successor list: lookups
reach other servers, ring_closest hops mostly vanish and every later time
moves. Detections and evictions did not move. r2_misroute's
locates_failed went 0 -> 10: the accomplice that claims the victim's keys
precedes both, so peers now ask it first and read its empty answer before
the fallback through their registration servers finds the record
(pulls_ok did not move). In s1_sybil one locate that ended at two sybils holding no row now
falls back to a registration server, which names a server still holding
the row: locates_ok 50 -> 51 and pulls ok/failed 46/2 -> 47/1.
Every hash was re-recorded again when a server came to push a row to its
successor only when the row or that successor changed: the ring_replicate
exchange that followed an owner's unchanged re-registration, to the
successor that had already accepted that row's replica, vanished. Of
their ring_replicate exchanges baseline kept 25 of 47, churn 10 of 19,
e1_eclipse 4 of 8, eviction 10 of 22, island_partition 14 of 22, r1_drop
3 of 7, r2_misroute 4 of 9, r3_claim_key 4 of 9, s1_sybil 23 of 31 and
t1_falsify 4 of 8. Setup ends sooner, so every time after the first
vanished exchange moved, the workload, adversary and partition start
times with it. Every other line stayed, but for two kinds: in churn and
eviction the log entries written during setup are stamped below 1,000 ms,
one decimal digit shorter, so the pull replies carrying five of them
(4 in churn, 6 in eviction) and their pull events' byte counts shrank by
5; and in s1_sybil, whose
sybils join at the earlier start, the ring's own upkeep among them came
out differently (ring_closest 3282 -> 3270, ring_notify 5966 -> 5978,
ring_state 1298 -> 1306 lines). No outcome moved.
Any change to a wire byte, a message count, a timestamp or an event in
any scenario changes a hash.

Beside the hashes, golden_outcomes.json pins what each scenario came to,
without times: locates and pulls ok and failed, the detection count, the
evicted addresses in order, each replica's final digest and the key
owners. A change that moves frames but no outcome re-records hashes only;
one that moves an outcome shows it as a diff of named values. Rewrite the
file with `PYTHONPATH=src python tests/test_golden.py`, which also prints
each scenario's trace hash now beside the pinned one and marks those that
moved; TRACE_SHA256 is edited by hand.
"""
import functools
import hashlib
import json
import pathlib

import pytest

from friendmesh.simnet.metrics import metrics_from_trace
from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
OUTCOMES = pathlib.Path(__file__).with_name("golden_outcomes.json")

TRACE_SHA256 = {
    "baseline": "b81a18c905e95f4683d159e20244c5d0a656b7af067759e7515a1fdafb9ed792",
    "churn": "514a7910a2a27ef75fd073e75f8c37f7b60b790bedf48a8d1ec27c13c80166ab",
    "e1_eclipse": "bfeb479a3fc69ea045d1256a39061924889129fa0718d7e5e3cc45844576e35e",
    "eviction": "684ad616a402cb9de3e271bfcbe44d9c1615ad5910c54fa2770fb25f95de2eaf",
    "island_partition": "dbcbc4b268581b940dd6af323d5f004155f96f5a90203e007d3a5100ba38a324",
    "r1_drop": "d412930a4c1e2627a07b804d5e226d37cfb00b61b4f180464878325657820a66",
    "r2_misroute": "be38c03128df65cac4d28a343c225287c5083831e7e3d2a4b87137b9ebaefdeb",
    "r3_claim_key": "7443106092257615a70f46cf90fdea04943c82a3ebbc5acc923d38060c53dbe9",
    "s1_sybil": "2b9489b6a2ba649e86c30c35236a635b050a31c863064961e515505ca0545488",
    "t1_falsify": "8529e13b10bc88b0a9cc84568d114d0ab1b8a4ea1b541dcd23083f91e2e2838f",
}


@functools.cache
def run(name: str) -> tuple[str, dict]:
    """The scenario's trace hash and outcomes, from one run shared by both tests."""
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    m = metrics_from_trace(trace)
    outcomes = {
        "locates_ok": m.locates_ok,
        "locates_failed": m.locates_failed,
        "pulls_ok": m.pulls_ok,
        "pulls_failed": m.pulls_failed,
        "detections": len(m.detections),
        "evictions": [accused for _, accused in m.evictions],
        # "owner holder" -> the digest of the holder's last replica state
        "replicas": {f"{owner} {holder}": digest for _, owner, holder, digest in m.replica_states},
        "key_owners": {
            user: {"md5": md5, "sha1": sha1} for user, (md5, sha1) in m.key_owners.items()
        },
    }
    return hashlib.sha256(trace.encode("utf-8")).hexdigest(), outcomes


def test_every_scenario_is_pinned():
    names = sorted(p.stem for p in SCENARIOS.glob("*.json"))
    assert names == sorted(TRACE_SHA256)
    assert names == sorted(json.loads(OUTCOMES.read_text()))


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    assert run(name)[0] == TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_outcomes_unchanged(name):
    assert run(name)[1] == json.loads(OUTCOMES.read_text())[name]


if __name__ == "__main__":
    pinned = {}
    for name in sorted(TRACE_SHA256):
        digest, pinned[name] = run(name)
        moved = "" if digest == TRACE_SHA256[name] else "  MOVED"
        print(f"{name:<17} now {digest}  pinned {TRACE_SHA256[name]}{moved}")
    OUTCOMES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
