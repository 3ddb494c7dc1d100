"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were last re-recorded, on purpose, when rendezvous sessions
and friend channels came to share one encrypted envelope: register,
locate, friend_request and passphrase_blob travel as APP_DATA app kinds
and every encrypted reply starts with its status. Only the MSG lines'
message names and payload sizes changed; every message, timestamp and
event, and each scenario's summary (deliveries, detections, evictions),
is as before. Any
change to a wire byte, a message count, a timestamp or an event in any
scenario changes a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "11f96a01366f7d45cff7fa41623cb47c1ca462ed616f72639eb593591ff5df8a",
    "churn": "ee8fdb41c1b01a9159b88d2d4895a85bd5faa0aacc4c8a229594b4705cc5d473",
    "e1_eclipse": "a453071c323917d81b7542e6ecd1ae9e6ed9f73cc48a30d18a979d248a725669",
    "eviction": "ff5697765de4504ab4e18ef76b4efe964365dd7949c9093f5bbc0022ccab9477",
    "island_partition": "27313b265c9511d55d6115aa0427e38a3a27957b5e8a2279eda7f28443bc91b0",
    "r1_drop": "3f0fd21754371b6b7d78b41ea73ac3f01fc769b9b9851a05c64f001b9f77b62c",
    "r2_misroute": "542a7dc02a159dce1f02b94b1593efeb383f5e8bdd178a0016a43ba116c6b628",
    "r3_claim_key": "dc3b2a95d3bcc25710fc6e90fe1ef74e240f378d825af7565d03ce469a4fef51",
    "s1_sybil": "20a69ef3b41775d96693c92d476ea5d341bec66bb5de220baf79c5dde845f228",
    "t1_falsify": "3b125b05fa40a8ba78731f9c12ba71a412eab375b6a36ab65b3940f926493e54",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
