"""Golden replay gate: the trace of every committed scenario, byte for byte.

The hashes were last re-recorded, on purpose, when a RING_CLOSEST answer
came to carry the answering server's successor list and a lookup to end at
the first server whose list covers the key. The scenarios on rings of more
than two servers changed: their ring replies are longer, their lookups
take fewer hops, and every time after the ring's build moved earlier.
churn and island_partition, on 2-server rings where a list holds one
server and no hop is saved, are unchanged. In each scenario the
detections, evictions, replica states and key owners are those of before
but for their times. s1_sybil's peers meet its 100 joining sybil servers at
other moments, as the joins take fewer frames: one locate fewer and one
pull fewer fail. Any change to a wire byte, a message count, a timestamp
or an event in any scenario changes a hash.
"""
import hashlib
import pathlib

import pytest

from friendmesh.simnet.scenario import SimConfig, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TRACE_SHA256 = {
    "baseline": "af0b87127181c4f6e4a97503726714db6c8ab0e95f5b3b1e6e563e025a2f2d39",
    "churn": "579b110334b15bfdfdad86beb7eeb13cc0930e931494b7e5a4c2d082c69eb7cb",
    "e1_eclipse": "83b933d96e4d7f366ffaab01291ff12ce9898bb617e7b96c5add6b7abe786225",
    "eviction": "c6f36acfcd5a8265e72c2ac23efcca80bfbf8acc96805db6e6216423e12e9932",
    "island_partition": "f0a6fc3586436a2e57691504a7ab34d956ecd855b09f667d2112a2d5587e80d5",
    "r1_drop": "8b8cc44e31a4cbfb4a0f380255b7d6aeac0c149eb6486126677996813c97268c",
    "r2_misroute": "9e9dcc88d46da03d8950bf7a5ab15fa0559fa8b50316f63ae923a72a7ee492e2",
    "r3_claim_key": "4534f39310cef09908b50ee69fd1cf86b69eb218fea7707051a46a9bf645d3ed",
    "s1_sybil": "7ffff1193bf78e7c73bf6a99497c22196ff3960e738898fd024b5f261b99ff22",
    "t1_falsify": "2a3337b0498eff2aca0c103eb3aa909a49a9d9ace7b6ba83afe76bf7811fd234",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_unchanged(name):
    config = SimConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    _, trace = run_scenario(config)
    assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == TRACE_SHA256[name]
