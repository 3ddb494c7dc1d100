"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were re-recorded, on purpose, when a locate began resolving its
sha1 server only after the md5 server failed and a stabilize became one
notify whose reply carries the successor's state (with a joining node
keeping its bootstrap as a backup successor, and a stabilize moving past a
dead successor at once): every scenario sends fewer ring messages, so every
trace changed. The eclipse adversary poisons the state a notify's reply now
carries, as it poisons a ring_state reply. Any change to a wire byte, a message count, a timestamp or
an event in any scenario changes a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "aecd482443e5ae28075c486f1021e22d469fbf514c20b62fdf8a6774351e9147",
    "churn": "e711dc8bd017f89f2ba8eb746b589db6457364f3022cc44758d6e32005813ba7",
    "e1_eclipse": "2c8c9c96ebbdc5a1a1b08411425151a8b1a1dbe2073a5376b64661410a1a9360",
    "eviction": "4faba7297b62c938b558160a59e22d1629abd2a3c33c2b6a5c56ea1252f78769",
    "island_partition": "9ff33cdc49f8894431aa6fee94823dbf322be057a44a399568ea82980f560391",
    "r1_drop": "9212bde5fd32a32009bb273a54b6d8c31c54abaed0e581fb5cc9afed49a6c7c9",
    "r2_misroute": "8b7897fbf63b5d6655229853ab6ee2860f9a439f59736bdbc57f5e9039fec06c",
    "r3_claim_key": "1bd804151f6faa628dbf459b58c1022cd1286a1f87832c6862781f9499dfca40",
    "s1_sybil": "c4fd459207bc5c3bf11aa3d4f475394ba4108daf8695afd333ae2a5ea2b5d329",
    "t1_falsify": "235bbc6c0395b690354fc44fe36c7a5a292cc3974981cc8f1869b9cbf66fc8a9",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
