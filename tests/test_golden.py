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

Beside the hashes, golden_outcomes.json pins what each scenario came to,
without times: locates and pulls ok and failed, the detection count, the
evicted addresses in order, each replica's final digest and the key
owners. A change that moves frames but no outcome re-records hashes only;
one that moves an outcome shows it as a diff of named values. Rewrite the
file with `PYTHONPATH=src python tests/test_golden.py`.
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
    pinned = {name: run(name)[1] for name in sorted(TRACE_SHA256)}
    OUTCOMES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
