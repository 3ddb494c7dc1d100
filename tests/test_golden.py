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
32 cert_reply and 32 app_data frames lost 60. Any change to a wire byte, a
message count, a timestamp or an event in any scenario changes a hash.

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
    "baseline": "5615868d2a4ab1e33e5e46a894738c0affce6f8ad5c1b8823e08041e3520a9bd",
    "churn": "791a2a3e87db52fdcc389ee332280e189547c3a4659f240721d09eb290ae844d",
    "e1_eclipse": "208ce14bea5bdb7ce953c79458f341ef2f547c4072a061fdd9053d357494e8d1",
    "eviction": "3078a02a7bb625f752efe8ed877466a07632f079da561cd33a5bad9847e56725",
    "island_partition": "50e765a1337cb4e87f410b22a4a7d15b7e51232e0d790edac6b96562c1e99137",
    "r1_drop": "60298dabe2f89f82fcfe841449b0457b03abfae8dd712c49a22523f64236d063",
    "r2_misroute": "9fe30c55ec3736286574c3079486a0bfa599bb9eeef016e49b62ac0e59cc3213",
    "r3_claim_key": "f14e3961bac6aed6318cca947148859d0b20a0d1447f29d8155e2bdbc74e8f95",
    "s1_sybil": "ecbd54b06b2b3847fbfe8de9c849ed694b54052c1c29163336706838dcd5e745",
    "t1_falsify": "5ac40b79c36c98de4fadd24ad2345e61c342f6bcac485ad6306e2d4ee0895ab4",
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
