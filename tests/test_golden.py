"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were recorded when each simulated host got its own clock (and a
relay's leg to a relayed peer became a simulated exchange); any change to a
wire byte, a message count, a timestamp or an event in any scenario changes
a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "3c1d2b4a2894e006995b7a702096b50e4bcea4599d03e0c7fd98a42382dbabf9",
    "churn": "6884c067d6d69486a6eed4e5552a811a660dfd35709895db6e3f311b453b9005",
    "e1_eclipse": "09b8049a2d0c5e3bdf502c5a5d317ce678852cd094bc8bc13e7b53b240191ebf",
    "eviction": "c8e8e57f0e7bbfcef4f246ef64dfb5f8160c4eb06ea11926621b81e45c65e889",
    "island_partition": "473e4afbf93d67eb48a5a8fef023203122da5293a7dbd3ebebba56b6200ea133",
    "r1_drop": "3649d39e78826a9a0d2e1970b4415b006b9d27e65b81d91189e803e1ca617461",
    "r2_misroute": "1c90d515e3d4e3bf6930899bdb10fb64f9d00a8b7550523cf47c53e8429afb39",
    "r3_claim_key": "8fd3c341c59b15ee7a387bf7ea288e9860bdce5344f86c8e6dbd685c6b3e864b",
    "s1_sybil": "13ba218dceb89e04a6061d2db9bce9e17a46be1268b6e039164c87e543e2d4ac",
    "t1_falsify": "fffa20735e5b4f04ffad4e31999efa1632d2471ad6a5842314be26c86a1d306d",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
