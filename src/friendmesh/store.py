"""Rendezvous server state: peers, friendship requests, relay servers.

One implementation of the contract, MemoryStore: dicts behind one lock,
so the thread-per-connection servers may share it. The deterministic
simulator and plain chord ring nodes use it as it is. A call that changes
nothing (a row equal to the stored one, a replica over a primary, a
removal of an absent key, a pop that finds nothing) changes no table and
so writes nothing, and upsert_peer says whether it stored the row, so the
ring pushes again only a row that changed.

SqliteStore is a MemoryStore that also persists: every change is written
through to one table of (kind, key, value) rows, where value is the
record's declared layout (records.py), and every change a call made or
saw is committed before the call returns. The change queues its
statements under the store's lock and commits them after releasing it,
so a lookup on another thread never waits for the disk. Opening the file
reads the table back in insertion order; sqlite is never read after that.
A peer row that no longer decodes, as one written in an older record
layout, is deleted on open: a registration is soft state its owner
re-sends. Any other row that does not decode is an error.

Peer rows are keyed by (username, ring id); the chord ring reads and
writes them here directly when it places, replicates and hands over
rows. Lookups are keyed strictly by passphrase; usernames are a separate
namespace used only for friendship requests and replication bookkeeping.
"""
from __future__ import annotations

import sqlite3
import threading
from collections import deque

from .errors import MalformedRequest
from .records import FriendshipRequestRecord, PeerRow, RelayRecord

# Per kind of record: its class and the key it is stored under.
_KINDS = {
    "peer": (PeerRow, lambda row: (row.record.username, row.ring_id)),
    "request": (FriendshipRequestRecord, lambda r: (r.target_username, r.requester_username)),
    "relay": (RelayRecord, lambda r: (r.address, r.port)),
}


class MemoryStore:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[str, dict] = {kind: {} for kind in _KINDS}
        self._peers: dict[tuple[str, int], PeerRow] = self._tables["peer"]
        self._requests: dict[tuple[str, str], FriendshipRequestRecord] = self._tables["request"]
        self._relays: dict[tuple[str, int], RelayRecord] = self._tables["relay"]

    def _changed(self, kind: str, *records, removed: bool = False) -> None:
        """Called with the lock held after each change: records stored, or removed."""

    def _commit(self) -> None:
        """Called after each call once the lock is released; every change
        made so far, by this call or one it saw, is durable when it returns."""

    def upsert_peer(self, row: PeerRow) -> bool:
        """Insert or replace by (username, ring id); a replica never
        replaces a primary row, a primary replaces either, and an equal
        row changes nothing. True when the row was stored."""
        key = (row.record.username, row.ring_id)
        with self._lock:
            existing = self._peers.get(key)
            stored = existing != row and (existing is None or existing.replica or not row.replica)
            if stored:
                self._peers[key] = row
                self._changed("peer", row)
        self._commit()
        return stored

    def holds_peer(self, row: PeerRow) -> bool:
        """True when the row stored under row's (username, ring id) equals it."""
        with self._lock:
            return self._peers.get((row.record.username, row.ring_id)) == row

    def peer_by_passphrase(self, passphrase: str) -> PeerRow | None:
        with self._lock:
            for row in self._peers.values():
                if row.record.passphrase == passphrase:
                    return row
        return None

    def peer_by_username(self, username: str) -> PeerRow | None:
        with self._lock:
            for row in self._peers.values():
                if row.record.username == username:
                    return row
        return None

    def peer_rows(self) -> list[PeerRow]:
        with self._lock:
            return list(self._peers.values())

    def remove_peer(self, username: str, ring_id: int) -> None:
        with self._lock:
            row = self._peers.pop((username, ring_id), None)
            if row is not None:
                self._changed("peer", row, removed=True)
        self._commit()

    def put_friend_request(self, request: FriendshipRequestRecord) -> None:
        key = (request.target_username, request.requester_username)
        with self._lock:
            if self._requests.get(key) != request:
                self._requests[key] = request
                self._changed("request", request)
        self._commit()

    def pop_friend_requests(self, target: str) -> list[FriendshipRequestRecord]:
        with self._lock:
            delivered = [r for (t, _), r in sorted(self._requests.items()) if t == target]
            for request in delivered:
                del self._requests[(target, request.requester_username)]
            if delivered:
                self._changed("request", *delivered, removed=True)
        self._commit()
        return delivered

    def upsert_relay(self, relay: RelayRecord) -> None:
        key = (relay.address, relay.port)
        with self._lock:
            if self._relays.get(key) != relay:
                self._relays[key] = relay
                self._changed("relay", relay)
        self._commit()

    def relay_rows(self) -> list[RelayRecord]:
        with self._lock:
            return list(self._relays.values())

    def remove_relay(self, address: str, port: int) -> None:
        with self._lock:
            relay = self._relays.pop((address, port), None)
            if relay is not None:
                self._changed("relay", relay, removed=True)
        self._commit()


class SqliteStore(MemoryStore):
    """A MemoryStore whose every change is also committed to a sqlite file."""

    def __init__(self, db_url: str):
        super().__init__()
        self._db = sqlite3.connect(db_url, check_same_thread=False)
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS records"
            " (kind TEXT NOT NULL, key TEXT NOT NULL, value BLOB NOT NULL, PRIMARY KEY (kind, key))"
        )
        # rowid order is insertion order: an update keeps its row's place.
        stale = []
        for kind, key, value in self._db.execute("SELECT kind, key, value FROM records ORDER BY rowid"):
            cls, key_of = _KINDS[kind]
            try:
                record = cls.decode(value)
            except MalformedRequest:
                if kind != "peer":
                    raise
                stale.append(("peer", key))  # a registration its owner re-sends
                continue
            self._tables[kind][key_of(record)] = record
        self._db.executemany("DELETE FROM records WHERE kind = ? AND key = ?", stale)
        self._db.commit()
        # (statement, rows) per change, in the order the store lock saw them
        self._queued: deque[tuple[str, list[tuple]]] = deque()
        self._file_lock = threading.Lock()  # held while the file is written

    def _changed(self, kind: str, *records, removed: bool = False) -> None:
        key_of = _KINDS[kind][1]
        if removed:
            self._queued.append((
                "DELETE FROM records WHERE kind = ? AND key = ?",
                [(kind, repr(key_of(r))) for r in records],
            ))
        else:
            self._queued.append((
                "INSERT INTO records VALUES (?, ?, ?)"
                " ON CONFLICT (kind, key) DO UPDATE SET value = excluded.value",
                [(kind, repr(key_of(r)), r.encode()) for r in records],
            ))

    def _commit(self) -> None:
        # Whoever holds the file lock writes every change queued so far, so
        # once this thread holds it, every change this call made or saw is
        # written and committed. With nothing queued, commit() sends nothing.
        with self._file_lock:
            while self._queued:
                self._db.executemany(*self._queued.popleft())
            self._db.commit()


def evict_stale_relays(store: MemoryStore, now: int, age_ms: int) -> list[RelayRecord]:
    """Drop relays whose updates stopped arriving; returns the removals."""
    removed = []
    for relay in store.relay_rows():
        if now - relay.last_update > age_ms:
            store.remove_relay(relay.address, relay.port)
            removed.append(relay)
    return removed


def select_relay(store: MemoryStore, now: int, age_ms: int) -> RelayRecord | None:
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
