"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were recorded from the simulator before the message schema
replaced hand-written packing; any change to a wire byte, a message
count or an event in any scenario changes a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "51be96053137e976c7539b54944936f5436498ec8b70bf6341251793421a9561",
    "churn": "ae7a14716bc7fe0fc96a5fcf486e9d4bfb68983f22eed79068f2ec115403b8fc",
    "e1_eclipse": "ccdb2b104ee5f9acedf31dc0462cd5204e2d38cda16a02538c6ea1f3311ea422",
    "eviction": "5dfc4ecd150460a4d758088386d31a31045d77e6ad8233283abe595dacede7b2",
    "island_partition": "ed2eb2c63484c732014a1dcc6c905a13f5612052d879c7500ea1983a86dcc1b5",
    "r1_drop": "cb6826ede9546ad1e9103a5f0b3aa3a9a166c4ff164cf1aac0e307996b95d02b",
    "r2_misroute": "8362fcd334591c356f97165870ab30cd60c70dbd3845e7617ae84ad905f3632f",
    "r3_claim_key": "f4d6079d9a2f8382b4e5a2a297dfd9a9ad3e06ee8baba0aea47ac81a103d0b72",
    "s1_sybil": "fb5647aca0b93545a69943e6db2747f988043ed2506b610f292844a4fab6a41f",
    "t1_falsify": "06cc21263329620dbace8a803d7d64d4ecd433a54dd0dc99ff8b22fad033b0ba",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
