"""Microbenchmarks of the record and message codec, printed as one JSON object.

    python3 scripts/codec_bench.py [--repeat 7]

Run from anywhere; the program is imported from the src/ next to this
script. Each figure is the minimum over --repeat runs of timeit.repeat,
in microseconds per call:

- pack_entries / unpack_entries: a pull reply's fields carrying 50 log
  entries, each encoded for the first time, and reading the result;
- pack_entries_again: the same 50 entries packed a second time;
- digests: the digests of 50 log entries, each computed for the first time;
- certificate_encode / certificate_decode, peer_row_encode / peer_row_decode;
- ring_closest_reply / ring_closest_open: one RING_CLOSEST reply frame,
  built by wire.reply and read by wire.open_reply.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from friendmesh import profile, wire  # noqa: E402
from friendmesh.identity import Certificate, SignedDigest  # noqa: E402
from friendmesh.records import PeerRow, RegistrationRecord  # noqa: E402

ENTRIES = 50


def fresh_entries() -> list[profile.LogEntry]:
    op = profile.op_set(b"x" * 40)
    return [
        profile.LogEntry(f"share_board/post{i}", i + 1, f"user{i % 7:02d}", op, 1_700_000_000_000 + i)
        for i in range(ENTRIES)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)

    cert = Certificate("alice", b"P" * 65, "friendmesh-ca", "ec-p256", b"S" * 72)
    record = RegistrationRecord("alice", "10.0.0.1", 7500, "tcp", "10.0.0.9", 7300,
                                "phrase-0123456789", b"m" * 48, SignedDigest(b"d" * 32, b"s" * 72))
    row = PeerRow(record, cert, ring_id=2**159 + 12345, replica=False)
    successors = [f"10.0.{i}.1:7200" for i in range(4)]
    reply = wire.reply(wire.RING_CLOSEST, "10.0.9.1:7200", successors[0], successors[1:])
    entries = fresh_entries()
    encoded = wire.encode("pull", entries, reply=True)
    env = {
        "profile": profile, "wire": wire, "Certificate": Certificate, "PeerRow": PeerRow,
        "cert": cert, "cert_bytes": cert.encode(), "row": row, "row_bytes": row.encode(),
        "successors": successors, "reply": reply, "entries": entries, "encoded": encoded,
        "fresh_entries": fresh_entries,
    }

    def figure(stmt: str, number: int, setup: str = "pass") -> float:
        runs = timeit.repeat(stmt, setup, repeat=args.repeat, number=number, globals=env)
        return round(min(runs) / number * 1e6, 3)

    # A batch of fresh entries per call, so no encoding or digest is cached.
    cold = "batches = [fresh_entries() for _ in range(200)]"
    figures = {
        "pack_entries": figure("wire.encode('pull', batches.pop(), reply=True)", 200, cold),
        "pack_entries_again": figure("wire.encode('pull', entries, reply=True)", 200),
        "unpack_entries": figure("wire.decode('pull', encoded, reply=True)", 200),
        "digests": figure("for e in batches.pop(): e.digest()", 200, cold),
        "certificate_encode": figure("cert.encode()", 20000),
        "certificate_decode": figure("Certificate.decode(cert_bytes)", 20000),
        "peer_row_encode": figure("row.encode()", 5000),
        "peer_row_decode": figure("PeerRow.decode(row_bytes)", 5000),
        "ring_closest_reply": figure(
            "wire.reply(wire.RING_CLOSEST, '10.0.9.1:7200', successors[0], successors[1:])", 20000),
        "ring_closest_open": figure("wire.open_reply(reply, wire.RING_CLOSEST)", 20000),
    }
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count(), "unit": "us", "figures": figures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
