"""Rendezvous server state: peers, friendship requests, relay servers.

Two interchangeable backends with one contract: a sqlite database (the
real server) and a dict-backed store (the deterministic simulator and
plain chord ring nodes). Peer rows are keyed by (username, ring id); the
chord ring reads and writes them here directly when it places, replicates
and hands over rows. Lookups are keyed strictly by passphrase; usernames
are a separate namespace used only for friendship requests and
replication bookkeeping.
"""
from __future__ import annotations

import sqlite3
import threading
from typing import Protocol

from .records import FriendshipRequestRecord, PeerRow, RegistrationRecord, RelayRecord
from .identity import SignedDigest


class RendezvousStore(Protocol):
    def upsert_peer(self, row: PeerRow) -> None:
        """Insert or replace by (username, ring id); a replica never
        replaces a primary row, a primary replaces either."""
    def peer_by_passphrase(self, passphrase: str) -> PeerRow | None: ...
    def peer_by_username(self, username: str) -> PeerRow | None: ...
    def peer_rows(self) -> list[PeerRow]: ...
    def remove_peer(self, username: str, ring_id: int) -> None: ...
    def put_friend_request(self, request: FriendshipRequestRecord) -> None: ...
    def pop_friend_requests(self, target: str) -> list[FriendshipRequestRecord]: ...
    def upsert_relay(self, relay: RelayRecord) -> None: ...
    def relay_rows(self) -> list[RelayRecord]: ...
    def remove_relay(self, address: str, port: int) -> None: ...


class MemoryStore:
    def __init__(self) -> None:
        self._peers: dict[tuple[str, int], PeerRow] = {}
        self._requests: dict[tuple[str, str], FriendshipRequestRecord] = {}
        self._relays: dict[tuple[str, int], RelayRecord] = {}

    def upsert_peer(self, row: PeerRow) -> None:
        key = (row.record.username, row.ring_id)
        if row.replica:
            existing = self._peers.get(key)
            if existing is not None and not existing.replica:
                return  # a primary row never downgrades to replica
        self._peers[key] = row

    def peer_by_passphrase(self, passphrase: str) -> PeerRow | None:
        for row in self._peers.values():
            if row.record.passphrase == passphrase:
                return row
        return None

    def peer_by_username(self, username: str) -> PeerRow | None:
        for row in self._peers.values():
            if row.record.username == username:
                return row
        return None

    def peer_rows(self) -> list[PeerRow]:
        return list(self._peers.values())

    def remove_peer(self, username: str, ring_id: int) -> None:
        self._peers.pop((username, ring_id), None)

    def put_friend_request(self, request: FriendshipRequestRecord) -> None:
        self._requests[(request.target_username, request.requester_username)] = request

    def pop_friend_requests(self, target: str) -> list[FriendshipRequestRecord]:
        delivered = [r for (t, _), r in sorted(self._requests.items()) if t == target]
        for request in delivered:
            self._requests.pop((request.target_username, request.requester_username), None)
        return delivered

    def upsert_relay(self, relay: RelayRecord) -> None:
        self._relays[(relay.address, relay.port)] = relay

    def relay_rows(self) -> list[RelayRecord]:
        return list(self._relays.values())

    def remove_relay(self, address: str, port: int) -> None:
        self._relays.pop((address, port), None)


class SqliteStore:
    """Same contract over the three relational tables.

    Serialized on one lock: table mutations are atomic with respect to
    each other and safe under the thread-per-connection servers.
    """

    def __init__(self, db_url: str = ":memory:"):
        self._lock = threading.Lock()
        self._db = sqlite3.connect(db_url, check_same_thread=False)
        self._db.executescript(
            """
            CREATE TABLE IF NOT EXISTS peers (
                username TEXT NOT NULL,
                ip TEXT, port INTEGER, nat_kind TEXT, protocol TEXT,
                relay_address TEXT, relay_port INTEGER,
                passphrase TEXT, encrypted_mirror_list BLOB,
                digest BLOB, signature BLOB, certificate BLOB,
                ring_id TEXT NOT NULL DEFAULT '0', replica INTEGER DEFAULT 0,
                last_refresh INTEGER DEFAULT 0,
                PRIMARY KEY (username, ring_id)
            );
            CREATE TABLE IF NOT EXISTS friendship_requests (
                target_username TEXT NOT NULL,
                requester_username TEXT NOT NULL,
                sealed_passphrase BLOB,
                PRIMARY KEY (target_username, requester_username)
            );
            CREATE TABLE IF NOT EXISTS relay_servers (
                address TEXT NOT NULL, port INTEGER NOT NULL,
                capacity INTEGER, load INTEGER, last_update INTEGER,
                PRIMARY KEY (address, port)
            );
            """
        )

    def upsert_peer(self, row: PeerRow) -> None:
        rec = row.record
        with self._lock:
            # A primary row never downgrades to replica.
            self._db.execute(
                "INSERT INTO peers VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
                " ON CONFLICT(username, ring_id) DO UPDATE SET"
                " ip=excluded.ip, port=excluded.port, nat_kind=excluded.nat_kind,"
                " protocol=excluded.protocol, relay_address=excluded.relay_address,"
                " relay_port=excluded.relay_port, passphrase=excluded.passphrase,"
                " encrypted_mirror_list=excluded.encrypted_mirror_list,"
                " digest=excluded.digest, signature=excluded.signature,"
                " certificate=excluded.certificate, replica=excluded.replica,"
                " last_refresh=excluded.last_refresh"
                " WHERE excluded.replica = 0 OR peers.replica = 1",
                (
                    rec.username, rec.ip, rec.port, rec.nat_kind, rec.protocol,
                    rec.relay_address, rec.relay_port, rec.passphrase,
                    rec.encrypted_mirror_list, rec.signed_digest.digest,
                    rec.signed_digest.signature, row.certificate,
                    format(row.ring_id, "x"), int(row.replica), rec.last_refresh,
                ),
            )
            self._db.commit()

    @staticmethod
    def _row_to_peer(raw) -> PeerRow:
        record = RegistrationRecord(
            username=raw[0], ip=raw[1], port=raw[2], nat_kind=raw[3], protocol=raw[4],
            relay_address=raw[5], relay_port=raw[6], passphrase=raw[7],
            encrypted_mirror_list=raw[8],
            signed_digest=SignedDigest(digest=raw[9], signature=raw[10]),
            last_refresh=raw[14],
        )
        return PeerRow(
            record=record, certificate=raw[11], ring_id=int(raw[12], 16), replica=bool(raw[13])
        )

    def peer_by_passphrase(self, passphrase: str) -> PeerRow | None:
        with self._lock:
            cur = self._db.execute("SELECT * FROM peers WHERE passphrase = ?", (passphrase,))
            raw = cur.fetchone()
        return self._row_to_peer(raw) if raw else None

    def peer_by_username(self, username: str) -> PeerRow | None:
        with self._lock:
            cur = self._db.execute("SELECT * FROM peers WHERE username = ?", (username,))
            raw = cur.fetchone()
        return self._row_to_peer(raw) if raw else None

    def peer_rows(self) -> list[PeerRow]:
        with self._lock:
            cur = self._db.execute("SELECT * FROM peers ORDER BY username, ring_id")
            rows = cur.fetchall()
        return [self._row_to_peer(raw) for raw in rows]

    def remove_peer(self, username: str, ring_id: int) -> None:
        with self._lock:
            self._db.execute(
                "DELETE FROM peers WHERE username = ? AND ring_id = ?",
                (username, format(ring_id, "x")),
            )
            self._db.commit()

    def put_friend_request(self, request: FriendshipRequestRecord) -> None:
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO friendship_requests VALUES (?,?,?)",
                (request.target_username, request.requester_username, request.sealed_passphrase),
            )
            self._db.commit()

    def pop_friend_requests(self, target: str) -> list[FriendshipRequestRecord]:
        with self._lock:
            cur = self._db.execute(
                "SELECT target_username, requester_username, sealed_passphrase"
                " FROM friendship_requests WHERE target_username = ? ORDER BY requester_username",
                (target,),
            )
            delivered = [
                FriendshipRequestRecord(
                    target_username=raw[0], requester_username=raw[1], sealed_passphrase=raw[2]
                )
                for raw in cur.fetchall()
            ]
            self._db.execute("DELETE FROM friendship_requests WHERE target_username = ?", (target,))
            self._db.commit()
        return delivered

    def upsert_relay(self, relay: RelayRecord) -> None:
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO relay_servers VALUES (?,?,?,?,?)",
                (relay.address, relay.port, relay.capacity, relay.load, relay.last_update),
            )
            self._db.commit()

    def relay_rows(self) -> list[RelayRecord]:
        with self._lock:
            cur = self._db.execute("SELECT * FROM relay_servers")
            rows = cur.fetchall()
        return [
            RelayRecord(address=r[0], port=r[1], capacity=r[2], load=r[3], last_update=r[4])
            for r in rows
        ]

    def remove_relay(self, address: str, port: int) -> None:
        with self._lock:
            self._db.execute(
                "DELETE FROM relay_servers WHERE address = ? AND port = ?", (address, port)
            )
            self._db.commit()


def evict_stale_relays(store: RendezvousStore, now: int, age_ms: int) -> list[RelayRecord]:
    """Drop relays whose updates stopped arriving; returns the removals."""
    removed = []
    for relay in store.relay_rows():
        if now - relay.last_update > age_ms:
            store.remove_relay(relay.address, relay.port)
            removed.append(relay)
    return removed


def select_relay(store: RendezvousStore, now: int, age_ms: int) -> RelayRecord | None:
    """Least load/capacity ratio among live relays; ties go lexicographic."""
    evict_stale_relays(store, now, age_ms)
    best: RelayRecord | None = None
    for relay in store.relay_rows():
        if relay.capacity <= 0 or relay.load >= relay.capacity:
            continue
        if best is None:
            best = relay
            continue
        ratio = relay.load / relay.capacity
        best_ratio = best.load / best.capacity
        if ratio < best_ratio or (
            ratio == best_ratio and (relay.address, relay.port) < (best.address, best.port)
        ):
            best = relay
    return best
