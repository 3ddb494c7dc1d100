"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were last re-recorded, on purpose, when ring upkeep stopped
sending frames whose answers it already had: check_predecessor pings only a
predecessor that sent no notify since the last check, a server tick
refreshes one finger (and the fingers its answer covers) instead of every
finger each fourth tick, and the registration sentinel resolves a friend's
servers one at a time, stopping at the first correct witness. Every
scenario sends fewer ring messages, so every trace changed; each
scenario's summary (deliveries, detections, evictions) is as before. Any
change to a wire byte, a message count, a timestamp or an event in any
scenario changes a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "11d92748f1f8684a25cd4abc46a4c223a01fe427af3d4e0e4c0d8b482c457fd5",
    "churn": "70bab196e43214903ced548f64f75a5f7a0d96bb1f598fe6429b104495e62d5f",
    "e1_eclipse": "6f59e5ee03944b6472215a46218f1110e4b897296a4f21d1ba4126317a2b65a4",
    "eviction": "453f18f7819a5c464dadaf18b7cfe1a0196909e19cc3c6687a3b49dc1ebd9b4e",
    "island_partition": "f23594f8dd074735a3b8f3511d8871ed383f27da1e27d9c48f6de12e28b591d7",
    "r1_drop": "9520017ec981dfeaa765cf022c2293de2170ff5aea07a2463b9e8ff37daa9922",
    "r2_misroute": "668005afb9dccec4713e87314377b70fa575caa45daa364dbe29ebf4f60f7000",
    "r3_claim_key": "2d3084d377b2366753bc674d7d9130d958dca79b3152e0b850c47fb1f98b848a",
    "s1_sybil": "2cd0ca211d02dd50b6183a1db907c5ecf368c107f2c75bde95b7fb9e24b1c54e",
    "t1_falsify": "2baf3cd8ba92afe46d3238fa3b1af4d89d4a881648d5c08311e18263f2699036",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
