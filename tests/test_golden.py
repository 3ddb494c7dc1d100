"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were last re-recorded, on purpose, when friend channels came to
open through the rendezvous session's one handshake: a hello with a nonce,
answered by a session key the responder chose, so each friend handshake
sends 2 frames where it sent 4. The handshake's MSG lines, the message
counts and every time after the first handshake changed (an app reply
carrying a timestamp with one digit fewer changed size with it). r1_drop
also changed in its ring lines: its 4-node ring's successor lists now stop
where they lap round to their own node. Each scenario's summary
(deliveries, detections, evictions) is as before. Any change to a wire
byte, a message count, a timestamp or an event in any scenario changes a
hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "04679a61e062817dc39dd96827e2f9676f6aa13e6b7fd2d71602688fb564c66f",
    "churn": "579b110334b15bfdfdad86beb7eeb13cc0930e931494b7e5a4c2d082c69eb7cb",
    "e1_eclipse": "18c9325b889c0a9ce1d76db63235a543aef25bad067e9782429d5ab6732e3416",
    "eviction": "d0f3a2639a00454e9be98ed6b4bb1896b20f6489f7b965e28047a65b1aa01889",
    "island_partition": "f0a6fc3586436a2e57691504a7ab34d956ecd855b09f667d2112a2d5587e80d5",
    "r1_drop": "bc2f191a710c4eb0bd21f14411d325338282e6b52eb469455c2af6125ab92651",
    "r2_misroute": "40d6674f84913a830cf057c3c0a26c48600dd4a10e7c6e32e869116d34fd59ae",
    "r3_claim_key": "58d809474bf399423d0fb6c97654ab21c15c45084d5096989d68d4822082297c",
    "s1_sybil": "85de2d10db1b2ad93ea3afaa6846f4c3eb4de28512ced232e231a8e32324b7ac",
    "t1_falsify": "9611b6323541371574583b20183950253ab24deb3ed45d46abb5330dc9242d2f",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
