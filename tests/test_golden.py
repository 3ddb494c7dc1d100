"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were recorded when peers began to keep one secure session per
rendezvous server and one channel per friend; any change to a wire byte, a
message count or an event in any scenario changes a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "c9e26c42d0a8bbd74ec99c2be089da3860e2a69b773d72411f55616203604047",
    "churn": "8ac51b035ad837e089a7e47abc958a375437ad357f645df56e1935248131a68e",
    "e1_eclipse": "5b4b0ace186aa7a9053749bab67a936a279048932b6f224952f017e0c39ad7b4",
    "eviction": "e29695750029e35e98df0b2d3dd8094760f83812b7eeac128594cd593a463659",
    "island_partition": "33295136bb2095e40e2f4c42a96812545bf1bb38f47343a851be0a3ccec4cdef",
    "r1_drop": "2dcf94c871fdb14d4a2457b68ed4ee75dda0cf4ec1520f17b94f26eaabf67476",
    "r2_misroute": "d14e295411daeb2ba7547c4d3dbd6626329b3e709db7ecf0f8ce44e030da730d",
    "r3_claim_key": "fa606cd88ee4dcaf2f2d976039b80bbe9c87bafc2172251c48ccc90da24daccd",
    "s1_sybil": "353172b2f057d376dd2e9c79c6409bf89ccc21d2e676566ce96ae2afd6b6c89d",
    "t1_falsify": "27698ecbc0d05c0027be2ab947ae81fa365559f4543c951d1548772f4ff5c620",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
