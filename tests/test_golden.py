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
Every hash was re-recorded again when the refresh app kind folded into
register, whose one field carries the record's fields packed, or the tag
of the record the server last accepted. scripts/trace_diff.py, run on
the two checkouts, reads: every trace kept its lines and times (0 added,
0 removed), and only register requests moved, each an app_data request: +2
bytes for one that sends the record (the packed fields' own length
prefix) and +1 for one that sends the tag (the kind's name is one letter
longer than refresh's). Baseline: 25 frames +2 B and 22 +1 B; churn 10
and 9; e1_eclipse 4 and 4; eviction 10 and 12; island_partition 14 and
8; r1_drop 3 and 4; r2_misroute 4 and 5; r3_claim_key 4 and 5; s1_sybil
8 and 8; t1_falsify 4 and 4. No outcome moved.
Every hash of the three scenarios whose owners sync with mirrors
(baseline, churn, island_partition) was re-recorded again when a warm
mirror sync became one sync_push that names, by its tag, the version
vector the owner last left on the replica, and sync_vec went.
scripts/trace_diff.py --untimed (lines compared without their times),
run on the two checkouts, reads: the other seven traces kept every line
and time; in these three every line but app_data frames and sync events
was kept, in order, and every time after the first sync moved, as every
exchange draws its latency from one generator. Counted by kind, baseline
went from 12 sync_vec and 12 sync_push exchanges to 12 sync_push, churn
from 6 and 5 to 6 (in each, one sync's first request met a reset kept
channel and was sent again on a new one), and island_partition from 12
and 12 to 13: isle013's write reached the mirror isle007 while isle000 was
cut off, so one sync named a vector that replica no longer held and
pushed once more. Each sync event's bytes moved with its push and reply.
No outcome moved.
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
    "baseline": "4acc9a5725e6fd8a1b0da4dfd7f60db3c7a4f06ba01c67d739ae667f17cff7de",
    "churn": "c45f83bdd557701c6afdf9dd77dd5143495f4587fa503a96dba0b29b474ba7b4",
    "e1_eclipse": "9d8468a5520457f95fc6482b9fc21e6997672ee6f4edfb8a13f6395363a89332",
    "eviction": "73a5acb6faa7f35de68e755267283d67d20cafaa60fde26e0e035f2932819281",
    "island_partition": "80d7ce77f847ef29d863c378f7669e703865dc8b950f61df3df01f08fcf587f7",
    "r1_drop": "297e45bd16da8610c75ca131a974401f96a81db5698ae4d4a5a261ee5509857e",
    "r2_misroute": "0dcae4a9004e45eade670ceecc2a2c43e348acb7f2ce7679f8e60037b2373309",
    "r3_claim_key": "2840780db1c2cc6b8f40dfe8e8e20ed8f909aff1e75585f43436de7ae271f537",
    "s1_sybil": "54d78c633ad8d6438c7e3333d539b8bba5915b2a336809d139ed48f3a94023d1",
    "t1_falsify": "3639b352b67e6c1dcd500a1a05c0a7f6edc8d03309b06b6f7f71464c4aee77cd",
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
