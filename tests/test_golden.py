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
Every hash was re-recorded again when a locate came to name, by its tag,
the record its locator holds, and a server to answer "unchanged" for a
record that has it, with a 16-byte proof in place of the record. Each
trace kept its lines, times and events, and only locate frames moved:
each locate request grew by the tag field, 2 bytes when the locator held
no record of the user and 18 when it did, and each reply answering
"unchanged" shrank by its record less the proof, 202 to 333 bytes. In
baseline 318 of 350 locate requests carried a tag and 316 replies came
back unchanged; in t1_falsify 48 carried one and 33 came back unchanged,
the falsified rows being sent, and detected, as before.
Every hash was re-recorded again when an unchanged re-registration came
to name its record by tag (refresh) and a notify the state it last took
from its successor, and a node adopted as its successor's predecessor
came to push that successor its primary rows in one ring_replicate. In
nine scenarios each trace kept its lines, times and events, and only
three kinds of frame moved: each refresh request shrank by its record
less the tag, 193 to 202 bytes (22 in baseline); each ring_notify request
grew by its tag field, 2 bytes without a tag and 10 with one; and each
ring_notify reply grew by 3 bytes (the adopted flag) when it sent the
state, or shrank by 25 to 70 when it answered "unchanged" (82 of 95 in
baseline). No refresh was refused. In s1_sybil, whose sybils join after
the peers registered, 23 more ring_replicate exchanges carried the rows
of the nodes the sybils adopted as predecessors, every later time moved,
and the ring's own upkeep came out differently (ring_notify 2989 -> 2979,
ring_state 653 -> 668, ring_closest 1635 -> 1638 exchanges). No outcome
moved.
Every hash was re-recorded again when a friend's hello came to name the
initiator's certificate by its 16-byte tag and the answer to leave the
responder's certificate out, a version vector lost its component names,
and a row a successor hands to its new predecessor stopped coming back to
it in a push of its own. In nine scenarios each trace kept its lines,
times and events, and only three kinds of frame shrank: each friend hello
by its certificate less the tag, 142 to 145 bytes (38 in baseline, 6 of
them the copies a relay forwards), each answer to one by the responder's
certificate, 158 to 161 bytes, and each app_data frame carrying a version
vector (pull, sync_vec's reply, sync_push) by 53 bytes (416 in baseline).
No friend hello was refused. In s1_sybil, whose sybils join after the
peers registered, the 15 ring_replicate exchanges that carried handed-over
rows back to the node that handed them over vanished, every later time
moved, and the ring's own upkeep came out differently (ring_replicate
46 -> 34, ring_notify 2979 -> 2994, ring_state 668 -> 653, ring_closest
1638 -> 1636 exchanges). No outcome moved.
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
    "baseline": "87b21447526b541ba7cccc9ede2c212bf9dcee2079c0ec0d9addd98138ee3433",
    "churn": "c4f96cf1b2a7d6013f5a56a9c0ffa72e3fd711d846458d6e81d2a3cc69628a4e",
    "e1_eclipse": "f71a435951ee37e8afaedce35b1b687158b32a2cb808186e067ed24c8b87051e",
    "eviction": "b212a3809fef62cf47e5f7df5bf294727db23f6b6a02526eddfe230597b4e255",
    "island_partition": "c4c86b61d914f12efd3538af74a9d58fc1be526aa149d889371efbc1882c931c",
    "r1_drop": "73ea0d7e7621a0fe0179c9b5b934c3c3d740570a9b24cc6f367f249de22ceb80",
    "r2_misroute": "0391e33c19d275c5aec4f282b93d46adda26521244f1ccb6264cd9e9e5faa7f8",
    "r3_claim_key": "6b451f07ed374f56b5cb5373c388b433829a6a24359b878bcf0e6332b3afba3f",
    "s1_sybil": "675bad5b85cd361fc3b0d71db7cf3735cb03b4f761f66685b69fdaec2c8c5a08",
    "t1_falsify": "7e2c885a1822646a715194f6f745cf4bf65600196dada8c388f7a688fceff8c9",
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
