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
    "baseline": "352f70652aa31ca5965073cce49550f91786b171362e8510b40dfe4743eeac6c",
    "churn": "681a74da235e0c901eab2bba5ad4cd23b7ab729dc421331ac9e1f61328200ebe",
    "e1_eclipse": "e1ce8f044d603809632b037ff9f4109c603a267cb19bb2df8df0209f07c367b1",
    "eviction": "bca4e361d8922237419ffdf1fcbb01060d0f021835ca2cdba6c50b496f5d45c0",
    "island_partition": "686e161ee01826107dd06e7ace8bb6e2a6d07e0a246516d68a7fd603c180eddf",
    "r1_drop": "c7364391ad0cc52facb27a2705535e00d97a1836d6f495560e8be0a96e2602a3",
    "r2_misroute": "a76f88177709457a9a48f2bc726edd0f48054596f1e314a78be058ecafe3aba1",
    "r3_claim_key": "8aeba537ae6b1c97ddb0c9e73ef40a45cb608eab54f65bc71347b7d0f768e76f",
    "s1_sybil": "b432d6eb5604a41811540871885183b7cbc16d5d2145f3b6d64faec3d5678fcf",
    "t1_falsify": "b3b67b01efc92a3b3032fe78dc0c079a22a37b3df131237e47edb22ca8546ef5",
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
