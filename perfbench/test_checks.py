"""Each benchmark check accepts a right answer and rejects a wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import hashlib
import os
import sys

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from common import entry_key, entry_tuple, tree_of  # noqa: E402

SERVERS = [f"10.9.0.{i}:7200" for i in range(8)]


# -- chord answers and row placement ------------------------------------------


def brute_successor(ident: int) -> str:
    ids = sorted((checks.md5_id(a), a) for a in SERVERS)
    return next((a for i, a in ids if i >= ident), ids[0][1])


def test_oracle_matches_brute_force_and_wraps():
    oracle = checks.SuccessorOracle(SERVERS)
    top = max(checks.md5_id(a) for a in SERVERS)
    for ident in [0, top, top + 1, (1 << 128) - 1] + [checks.md5_id(f"user{i}") for i in range(50)]:
        assert oracle.successor(ident) == brute_successor(ident)


def test_chord_check_rejects_a_wrong_answer_and_too_many_hops():
    oracle = checks.SuccessorOracle(SERVERS)
    ident = checks.md5_id("alice")
    right = oracle.successor(ident)
    oracle.check_lookup(ident, right, 5)  # log2(8) + 2 = 5 hops allowed
    wrong = next(a for a in SERVERS if a != right)
    with pytest.raises(CheckFailed):
        oracle.check_lookup(ident, wrong, 1)
    with pytest.raises(CheckFailed):
        oracle.check_lookup(ident, right, 6)


def test_rows_check_rejects_a_misplaced_or_missing_row():
    oracle = checks.SuccessorOracle(SERVERS)
    expected = oracle.expected_rows("alice")
    primaries = {(s, i) for s, i, replica in expected if not replica}
    assert {i for _, i in primaries} <= {checks.md5_id("alice"), checks.sha1_id("alice")}
    for ident in (checks.md5_id("alice"), checks.sha1_id("alice")):
        assert brute_successor(ident) in {s for s, _ in primaries}
    for server, ident, replica in expected:
        if replica:
            assert any(oracle.next_server(p) == server and i == ident for p, i in primaries)
    checks.check_rows(expected, set(expected), "alice")
    server, ident, replica = sorted(expected)[0]
    moved = next(a for a in SERVERS if a != server)
    with pytest.raises(CheckFailed):
        checks.check_rows(expected, (set(expected) - {(server, ident, replica)})
                          | {(moved, ident, replica)}, "alice")
    with pytest.raises(CheckFailed):
        checks.check_rows(expected, set(expected) - {(server, ident, replica)}, "alice")


# -- located records ------------------------------------------------------------


def signed_record(key, **overrides) -> dict:
    fields = {"ip": "10.2.0.1", "port": 7500, "protocol": "tcp", "relay_address": "",
              "relay_port": 0, "passphrase": "p" * 16, "encrypted_mirror_list": b"\x01\x02"}
    fields.update(overrides)
    payload = checks.join_fields(
        fields["ip"].encode(), str(fields["port"]).encode(), fields["protocol"].encode(),
        fields["relay_address"].encode(), str(fields["relay_port"]).encode(),
        fields["passphrase"].encode(), fields["encrypted_mirror_list"])
    digest = hashlib.sha256(payload).digest()
    r, s = decode_dss_signature(key.sign(digest, ec.ECDSA(hashes.SHA256())))
    fields["digest"] = digest
    fields["signature"] = r.to_bytes(32, "big") + s.to_bytes(32, "big")
    return fields


def public_bytes(key) -> bytes:
    return key.public_key().public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)


def test_located_record_check():
    owner, other = ec.generate_private_key(ec.SECP256R1()), ec.generate_private_key(ec.SECP256R1())
    record = signed_record(owner)
    checks.check_located_record(record, public_bytes(owner), "10.2.0.1", {7500})
    with pytest.raises(CheckFailed):  # signed by someone else
        checks.check_located_record(record, public_bytes(other), "10.2.0.1", {7500})
    with pytest.raises(CheckFailed):  # a field changed after signing
        checks.check_located_record(dict(record, port=7501), public_bytes(owner), "10.2.0.1", {7501})
    with pytest.raises(CheckFailed):  # names another address than the one given
        checks.check_located_record(record, public_bytes(owner), "10.2.0.2", {7500})
    relayed = signed_record(owner, relay_address="10.3.0.0", relay_port=7300)
    checks.check_located_record(relayed, public_bytes(owner), "10.2.0.1", {("10.3.0.0", 7300)})
    with pytest.raises(CheckFailed):
        checks.check_located_record(relayed, public_bytes(owner), "10.2.0.1", {("10.3.0.1", 7300)})


# -- profiles: views, pulls, replicas, replay ------------------------------------


def make_profile():
    from friendmesh.profile import Profile, op_add, op_perm, op_remove, op_set

    profile = Profile("alice")
    profile.apply_update("alice", "share_board", op_perm("write", {"bob"}), timestamp=1)
    profile.apply_update("alice", "share_board", op_add("p1", b"hello"), timestamp=2)
    profile.apply_update("bob", "share_board", op_add("c1", b"hi"), timestamp=3)
    profile.apply_update("alice", "info", op_set(b"v1"), timestamp=4)
    profile.apply_update("alice", "share_board", op_remove("p1"), timestamp=5)
    profile.apply_update("alice", "share_board", op_perm("read", {"bob", "carol"}), timestamp=6)
    return profile


def test_replay_check_accepts_the_program_and_rejects_a_changed_tree():
    profile = make_profile()
    log = [entry_tuple(e) for e in profile.log]
    checks.check_replay(log, tree_of(profile), "alice")
    profile.element("info").content = b"v2"  # the tree no longer matches its log
    with pytest.raises(CheckFailed):
        checks.check_replay(log, tree_of(profile), "alice")
    with pytest.raises(CheckFailed):  # a log entry dropped
        checks.check_replay(log[:-1], tree_of(make_profile()), "alice")


def test_view_check_rejects_a_missing_or_foreign_update():
    ledger = [("share_board", "alice", b"a"), ("share_board", "bob", b"b")]
    checks.check_view(list(reversed(ledger)), ledger, "alice")
    with pytest.raises(CheckFailed):
        checks.check_view(ledger[:1], ledger, "alice")
    with pytest.raises(CheckFailed):
        checks.check_view(ledger + [("info", "mallory", b"x")], ledger, "alice")


def test_pull_minimality_check_rejects_extra_or_repeated_entries():
    keys = [entry_key(e) for e in make_profile().log]
    checks.check_pull_minimal(keys[2:], keys[2:], "alice")
    with pytest.raises(CheckFailed):  # resent something the reader had
        checks.check_pull_minimal(keys, keys[2:], "alice")
    with pytest.raises(CheckFailed):  # sent one entry twice
        checks.check_pull_minimal(keys[2:] + keys[-1:], keys[2:], "alice")
    with pytest.raises(CheckFailed):  # left one out
        checks.check_pull_minimal(keys[3:], keys[2:], "alice")


def test_replica_check_rejects_a_lagging_replica():
    owner = make_profile()
    keys = [entry_key(e) for e in owner.log]
    checks.check_replica(keys, list(keys), b"d", b"d", "alice", "bob")
    with pytest.raises(CheckFailed):
        checks.check_replica(keys, keys[:-1], b"d", b"d", "alice", "bob")
    with pytest.raises(CheckFailed):
        checks.check_replica(keys, keys, b"d", b"e", "alice", "bob")
