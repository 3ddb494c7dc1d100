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
Its outcomes did not move. Any change to a wire byte, a message count, a
timestamp or an event in any scenario changes a hash.

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
    "baseline": "c206217e5e1555daa33a5de80d76edc8f96122aa2fb0bf3f2712c4da4fa13ed9",
    "churn": "cf7ad7f92b4aca16919b2ea9b4cd9a895544ffca9d2b97d2da9183135c6e0fed",
    "e1_eclipse": "1433043133f243d54433079957f2494541ce3a4084ce60bcc2ddb29e6c695e23",
    "eviction": "7edfaaa6d407be71d3e7872e7fd2cc51a45c4fcc2ca4343065bc8841e495e616",
    "island_partition": "19a4133a71340591d234c709f3f2aa2d926870c18e8db604c393635b178f8dec",
    "r1_drop": "2c003b2cf9eaa6713dacd45750ac99884a623959fa2865240f67e9e0fd80cd69",
    "r2_misroute": "234c9deb163b5671f4d8fef4e385ae9018f2c220dbcc005fa4d3abf3b6e6dc33",
    "r3_claim_key": "bfebb153a9bacbc54ddca0505e4a05e31287b1ee8771e8f56dc97abcf5c16a26",
    "s1_sybil": "58cbc118bc9feaf53ec9dde8d4347f79f5b25bb9d51cbfd168f95ebad942753b",
    "t1_falsify": "e4600894fff3896c345655f814247f470c4a3ff20fb084e19e894d3680a6e493",
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
