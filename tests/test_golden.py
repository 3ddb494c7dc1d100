"""Golden replay gate: the trace of every committed scenario, byte for byte.

The baseline hash was last re-recorded, on purpose, when a relay came to
admit a peer with the one handshake (register_peer, then the app kind
admit) in place of the sealed challenge (is_server, challenge,
challenge_reply). Baseline is the one scenario that admits anyone: its
trace differs from the one before only in the 12 lines of its 3
admissions, each exchange renamed and resized, with the same times and
line count. The other hashes were last re-recorded when ring_replicate and
ring_transfer came to carry each PeerRow as its own layout. Any change to
a wire byte, a message count, a timestamp or an event in any scenario
changes a hash.

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
    "baseline": "48d23339e4e4f250c6a56902d48f30ff91c46e46d442d3ca5f44aef022efc53b",
    "churn": "f785a5968b28b84fdec50e81399a47f628cc2bc63e4c24d3737ed33fe10bd3f9",
    "e1_eclipse": "8eaea3f0d06ba73df43b95649c18882464d60f13ebae99744c9f65ccb92ef510",
    "eviction": "879b3faa568e666ee39427e54efbbe5c33deb31431605878b2223ddef5d3e1c4",
    "island_partition": "faeaaf9da3445dec0c5b41cbec8e9a3082063395c8168a70e63fd47e54b29aa2",
    "r1_drop": "a0f83c68e162db14bfde53c36ae473f6d1e2ddc4b86a9b3addb8a5bbd9ebd803",
    "r2_misroute": "021577a33083d04cb5db1b74d8fc799437955f59e1aa1fbd3f8fd7555100cac1",
    "r3_claim_key": "2f501dfda9ead1b3ebc637d3b257d8f93c810afe62906ea9edb9a9ddd37827ae",
    "s1_sybil": "4e915dcf466dabdbf301bb447ab0c27b094ab5ae46c29eda65614fc974aa3f33",
    "t1_falsify": "006451d2551a609c77a70a0f78a36114031f5ff0bd8eef12d71e8fe857285b70",
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
