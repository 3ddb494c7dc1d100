"""Correctness checks computed apart from the program.

Every expected value here comes from the benchmark's own inputs and its own
re-implementation of the published formats (2-byte length-prefixed fields,
MD5/SHA-1 ring identifiers, ECDSA over the SHA-256 record digest). Nothing
calls into friendmesh, so a fault in the program cannot hide itself by
agreeing with its own helpers. Each check raises CheckFailed.
"""
from __future__ import annotations

import bisect
import hashlib
import math

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature

RING_BITS = 128
COMPONENTS = ("info", "share_board", "events", "groups", "private_messages")


class CheckFailed(Exception):
    pass


def split_fields(data: bytes) -> list[bytes]:
    """Inverse of the 2-byte big-endian length-prefixed field packing."""
    out, pos = [], 0
    while pos < len(data):
        if pos + 2 > len(data):
            raise CheckFailed("truncated field length")
        n = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        if pos + n > len(data):
            raise CheckFailed("truncated field body")
        out.append(data[pos:pos + n])
        pos += n
    return out


def join_fields(*fields: bytes) -> bytes:
    return b"".join(len(f).to_bytes(2, "big") + f for f in fields)


# -- ring --------------------------------------------------------------------


def md5_id(name: str) -> int:
    return int.from_bytes(hashlib.md5(name.encode()).digest(), "big")


def sha1_id(name: str) -> int:
    return int.from_bytes(hashlib.sha1(name.encode()).digest()[:16], "big")


class SuccessorOracle:
    """Brute-force chord successor over a known server set."""

    def __init__(self, server_addrs):
        self.ring = sorted((md5_id(a), a) for a in server_addrs)
        self.ids = [i for i, _ in self.ring]
        self.hop_bound = math.log2(len(self.ring)) + 2

    def successor(self, ident: int) -> str:
        pos = bisect.bisect_left(self.ids, ident)
        return self.ring[pos % len(self.ring)][1]

    def next_server(self, addr: str) -> str:
        return self.successor((md5_id(addr) + 1) % (1 << RING_BITS))

    def check_lookup(self, ident: int, answer: str, hops: int) -> None:
        want = self.successor(ident)
        if answer != want:
            raise CheckFailed(f"chord answered {answer} for {ident:x}, oracle says {want}")
        if hops > self.hop_bound:
            raise CheckFailed(f"lookup of {ident:x} took {hops} hops > {self.hop_bound:.2f}")

    def expected_rows(self, username: str) -> set[tuple[str, int, bool]]:
        """(server, ring id, replica) for each row the user's registration leaves.

        A server owning both identifiers stores one row, under the MD5 id.
        Each primary row has one replica at the next server clockwise.
        """
        rows = set()
        owners: dict[str, int] = {}
        for ident in (md5_id(username), sha1_id(username)):
            owners.setdefault(self.successor(ident), ident)
        for server, ident in owners.items():
            rows.add((server, ident, False))
            nxt = self.next_server(server)
            if nxt != server:
                rows.add((nxt, ident, True))
        return rows


def check_rows(expected: set, held: set, username: str) -> None:
    if held != expected:
        missing = sorted(expected - held)
        extra = sorted(held - expected)
        raise CheckFailed(f"rows of {username}: missing {missing}, unexpected {extra}")


# -- located records ----------------------------------------------------------


def check_located_record(fields: dict, public_key: bytes, want_ip: str, want_ports: set) -> None:
    """The record's owner signature verifies and it names the given address.

    `fields` holds the record's wire values; the digest covers ip, port,
    protocol, relay address, relay port, passphrase and mirror list in that
    order, and the signature is raw r||s ECDSA-P256/SHA-256 over the digest.
    """
    payload = join_fields(
        fields["ip"].encode(),
        str(fields["port"]).encode(),
        fields["protocol"].encode(),
        fields["relay_address"].encode(),
        str(fields["relay_port"]).encode(),
        fields["passphrase"].encode(),
        fields["encrypted_mirror_list"],
    )
    digest = hashlib.sha256(payload).digest()
    if digest != fields["digest"]:
        raise CheckFailed("record digest does not cover the record")
    sig = fields["signature"]
    if len(sig) != 64:
        raise CheckFailed("malformed record signature")
    der = encode_dss_signature(int.from_bytes(sig[:32], "big"), int.from_bytes(sig[32:], "big"))
    key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), public_key)
    try:
        key.verify(der, digest, ec.ECDSA(hashes.SHA256()))
    except InvalidSignature:
        raise CheckFailed("record signature does not verify under the owner's key") from None
    if fields["ip"] != want_ip:
        raise CheckFailed(f"record names {fields['ip']}, benchmark gave {want_ip}")
    # A relayed peer's record names its relay; any other names its own port.
    named = (fields["relay_address"], fields["relay_port"]) if fields["relay_address"] else fields["port"]
    if named not in want_ports:
        raise CheckFailed(f"record names {named}, benchmark gave one of {sorted(map(str, want_ports))}")


# -- profiles -------------------------------------------------------------------


def component_of(path: str) -> str:
    return path.split("/", 1)[0]


def op_kind(op: bytes) -> bytes:
    return split_fields(op)[0]


def check_view(view_keys: list, ledger_keys: list, owner: str) -> None:
    """The reader's non-permission entries are exactly the readable ledger."""
    if sorted(view_keys) != sorted(ledger_keys):
        have, want = set(view_keys), set(ledger_keys)
        raise CheckFailed(
            f"view of {owner}: {len(want - have)} ledger updates missing, "
            f"{len(have - want)} unknown, {len(view_keys)} held vs {len(ledger_keys)}"
        )


def check_pull_minimal(sent: list, lacked: list, owner: str) -> None:
    """A pull carries exactly the entries the reader lacked, each once."""
    if sorted(sent) != sorted(lacked):
        raise CheckFailed(
            f"pull of {owner} sent {len(sent)} entries, reader lacked {len(lacked)}"
        )


def replay_tree(entries) -> dict:
    """Replay (path, version, author, op, timestamp) tuples into a plain tree.

    Order is component, then version; missing parents are created, as a
    replica replays foreign logs. Returns {path: (content, perms)} where
    perms is None or a (read, write, no_access) triple of sorted tuples.
    """
    nodes: dict[str, list] = {c: [b"", None] for c in COMPONENTS}
    children: dict[str, set] = {c: set() for c in COMPONENTS}

    def walk(path: str) -> list:
        parts = path.split("/")
        for i in range(1, len(parts)):
            parent, here = "/".join(parts[:i]), "/".join(parts[: i + 1])
            if here not in nodes:
                nodes[here] = [b"", None]
                children[here] = set()
                children[parent].add(here)
        return nodes[path]

    def drop(path: str) -> None:
        for child in children.pop(path, ()):
            drop(child)
        nodes.pop(path, None)

    ordered = sorted(entries, key=lambda e: (COMPONENTS.index(component_of(e[0])), e[1]))
    for path, _version, _author, op, _ts in ordered:
        fields = split_fields(op)
        kind = fields[0]
        if kind == b"set":
            walk(path)[0] = fields[1] if len(fields) > 1 else b""
        elif kind == b"add":
            walk(path)
            child = f"{path}/{fields[1].decode()}"
            walk(child)[0] = fields[2] if len(fields) > 2 else b""
        elif kind == b"remove":
            walk(path)
            child = f"{path}/{fields[1].decode()}"
            children[path].discard(child)
            drop(child)
        elif kind == b"perm":
            node = walk(path)
            members = {m for m in fields[2].decode().split(",") if m}
            sets = {"read": set(), "write": set(), "no_access": set()}
            if node[1] is not None:
                sets = {k: set(v) for k, v in zip(("read", "write", "no_access"), node[1])}
            for s in sets.values():
                s.difference_update(members)
            sets[fields[1].decode()].update(members)
            node[1] = tuple(tuple(sorted(sets[k])) for k in ("read", "write", "no_access"))
        else:
            raise CheckFailed(f"unknown op kind {kind!r}")
    return {path: (node[0], node[1]) for path, node in nodes.items()}


def check_replay(entries, tree: dict, owner: str) -> None:
    """Replaying the log reproduces the profile's tree."""
    want = replay_tree(entries)
    if want != tree:
        diff = sorted(set(want.items()) ^ set(tree.items()))[:3]
        raise CheckFailed(f"replay of {owner}'s log differs from its profile: {diff}")


def check_replica(owner_keys: list, replica_keys: list, owner_digest: bytes,
                  replica_digest: bytes, owner: str, holder: str) -> None:
    if sorted(owner_keys) != sorted(replica_keys):
        raise CheckFailed(
            f"replica of {owner} at {holder} holds {len(replica_keys)} entries, owner {len(owner_keys)}"
        )
    if owner_digest != replica_digest:
        raise CheckFailed(f"replica of {owner} at {holder}: state digest differs from the owner's")
