"""The rendezvous server.

Peer registration with sealed passphrase/mirror data, passphrase lookup,
relay directory with load balancing, friendship-request mailbox, staleness
eviction, the chord ring face (lookup, stabilization, verified
replication) and the complaint ledger driving collaborative eviction.

A peer's exchanges run on a session over one connection, opened by the
one handshake of secure.py (the server holds no certificate, so it answers
with a bare session key sealed to the client) and served by the same
secure.ResponderSession as a friend channel: the app kinds register,
locate, friend_request and passphrase_blob each travel as an APP_DATA
frame, so no frame code names the operation. Relay directory, chord
lookup, complaints and server-to-server ring traffic are plain frames,
served by wire.serve. Either way a request reaches the session's
_on_<name> handler and the handler returns the reply values. Record
integrity rests on owner signatures, never on the servers.

A locate answers the owner's certificate only when the locator asks for
it: a locator that already holds it (every friend locate) gets the record
alone, about 160 bytes less. Register, locate and ring_notify follow the
held-bytes rule (records.record_tag): a register names the record this
server last accepted from the peer by its tag, a locate the record the
locator holds, and a notify the state the notifier last took from this
node, and none of those bytes is sent again while they have the tag. A
tagged register is served exactly as the register of the record the
row holds under the sender's name, owned ring id and certificate (a
replica is promoted), and refused not_found otherwise. The tag is no
secret: only the owner's session reaches its row, and it stores nothing
the register of the same record would not. An "unchanged" locate
carries the record's proof, which the tag does not reveal, so a server
that dropped or never had the row cannot answer it by echoing the tag,
and a sentinel probe takes no such server as a witness. As before, what a
server must produce is the record's bytes; one that has them can answer
with an old record, then as now.

A row moves between servers only when it or its replica holder changed:
an unchanged re-registration, which builds a row equal to the stored one,
is neither verified again nor pushed again to a successor that already
accepted its replica (chord.RingNode.put_primary).
"""
from __future__ import annotations

import functools
import random
import time
from dataclasses import replace
from typing import Callable

from . import chord, identity, secure, sentinel, wire
from .channel import Endpoint, SessionContext
from .chord import RingNode, dual_hash
from .config import RendezvousConfig
from .errors import IntegrityError, MalformedRequest, NotFound, ProtocolError
from .identity import Certificate
from .records import (
    REGISTERED, TAG_LEN, FriendshipRequestRecord, PeerRow, RegistrationRecord, RelayRecord, record_tag,
)
from .sentinel import Complaint, ComplaintLedger
from .store import MemoryStore, SqliteStore, evict_stale_relays, select_relay
from .wire import Frame


def host_of(addr: str) -> str:
    return addr.rsplit(":", 1)[0] if ":" in addr else addr


class WireRingTransport:
    """chord.RingTransport over channels; one connection per call."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint

    def _call(self, addr: str, code: int, *values) -> tuple:
        channel = self.endpoint.connect(addr)
        try:
            return wire.call(channel, code, *values)
        finally:
            channel.close()

    def get_state(self, addr: str) -> tuple[str | None, list[str]]:
        pred, succs = self._call(addr, wire.RING_STATE)
        return pred or None, succs

    def query(self, addr: str, ident: int) -> tuple[str, list[str]]:
        closest, succ, more = self._call(addr, wire.RING_CLOSEST, ident)
        return closest, [succ, *more]

    def notify(self, addr: str, candidate: str, tag: bytes) -> tuple[bool, chord.State | None]:
        adopted, pred, succs = self._call(addr, wire.RING_NOTIFY, candidate, tag)
        return adopted, (pred or None, succs) if succs else None

    def replicate(self, addr: str, rows: list[PeerRow]) -> list[bool]:
        (accepted,) = self._call(addr, wire.RING_REPLICATE, rows)
        return accepted

    def transfer(self, addr: str, rows: list[PeerRow], departing: str | None) -> None:
        self._call(addr, wire.RING_TRANSFER, departing or "", rows)


class RendezvousServer:
    def __init__(
        self,
        addr: str,
        config: RendezvousConfig | None = None,
        ca_public_key: bytes = b"",
        ca_algorithm: str = identity.DEFAULT_ALGORITHM,
        store: MemoryStore | None = None,
        endpoint: Endpoint | None = None,
        rng: random.Random | None = None,
        clock: Callable[[], int] | None = None,
        on_event: Callable[..., None] | None = None,
    ):
        self.addr = addr
        self.config = config or RendezvousConfig()
        identity.check_algorithm(ca_algorithm)  # accepted for callers that name it; not kept
        self.ca_public_key = ca_public_key
        if store is not None:
            self.store = store
        elif self.config.db_url and self.config.db_url != ":memory:":
            self.store = SqliteStore(self.config.db_url)
        else:
            self.store = MemoryStore()
        self.endpoint = endpoint
        # Secrets are drawn from it: a CSPRNG unless the simulator injects its own.
        self.rng = rng or random.SystemRandom()
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.on_event = on_event or (lambda kind, **fields: None)
        self.ring: RingNode | None = None
        if self.config.ring_enabled and endpoint is not None:
            self.ring = RingNode(
                addr,
                WireRingTransport(endpoint),
                bits=self.config.ring_bits,
                store=self.store,
                verify_row=self._verify_row,
            )
        self.ledger = ComplaintLedger(self.config.complaint_threshold)
        self.evictions: list[tuple[int, str]] = []

    # -- ring plumbing ---------------------------------------------------------

    def _verify_row(self, row: PeerRow) -> bool:
        return row.verified(self.ca_public_key)

    def join_ring(self, bootstrap_addr: str) -> None:
        if self.ring is None:
            raise MalformedRequest("ring not enabled")
        self.ring.join(bootstrap_addr)

    def tick(self) -> None:
        """Periodic upkeep: relay staleness, ring stabilization."""
        now = self.clock()
        evict_stale_relays(self.store, now, self.config.age_ms)
        if self.ring is not None:
            self.ring.check_predecessor()
            self.ring.stabilize()
            self.ring.fix_finger()

    # -- complaints --------------------------------------------------------------

    def _registered_with(self, username: str, accused: str) -> bool:
        """A peer may complain only about a server owning one of its identifiers."""
        if self.ring is None:
            return accused == self.addr
        try:
            ids = dual_hash(username, self.config.ring_bits)
        except MalformedRequest:
            return False
        for ident in ids.both():
            try:
                if self.ring.find_successor(ident).addr == accused:
                    return True
            except ProtocolError:
                continue
        return False

    def handle_complaint(self, complaint: Complaint) -> bool:
        now = self.clock()
        fresh = self.ledger.add(
            complaint,
            self.ca_public_key,
            now,
            self.config.freshness_ms,
            self._registered_with,
        )
        if not fresh:
            return False
        self.on_event(
            "complaint",
            node=self.addr,
            accused=complaint.accused,
            complainant=complaint.complainant,
        )
        self._spread_complaint(complaint)
        self._adjudicate(complaint.accused)
        return True

    def _spread_complaint(self, complaint: Complaint) -> None:
        if self.ring is None or self.endpoint is None:
            return
        targets = self.ring.contacts()
        targets.discard(self.addr)
        targets.discard(complaint.accused)
        frame = Frame(wire.COMPLAINT, complaint.encode())
        for target in sorted(targets):
            try:
                channel = self.endpoint.connect(target)
                try:
                    channel.request(frame)
                finally:
                    channel.close()
            except ProtocolError:
                continue

    def _adjudicate(self, accused: str) -> None:
        if self.ledger.adjudicate(accused) != "evict":
            return
        # A server never evicts itself, so it never records doing so.
        if self.ring is not None and accused != self.addr and accused not in self.ring.evicted:
            self.ring.evict(accused)
            now = self.clock()
            self.evictions.append((now, accused))
            self.on_event("eviction", node=self.addr, accused=accused)

    # -- sessions -----------------------------------------------------------------

    def open_session(self, ctx: SessionContext) -> "RendezvousSession":
        return RendezvousSession(self)


class RendezvousSession:
    def __init__(self, server: RendezvousServer):
        self.server = server
        # The handshake and APP_DATA, served to any certified user with no
        # certificate of the server's own; the app kinds are the _on_ methods.
        self._secure = secure.ResponderSession(
            None, None, server.ca_public_key, lambda username: True,
            functools.partial(secure.dispatch_app, self), rng=server.rng,
        )
        self._friend_target: str | None = None

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        if frame.msg_type in (wire.REGISTER_PEER, wire.APP_DATA):
            return self._secure.handle(frame, ctx)
        return wire.serve(self, frame, ctx)

    # Handlers, one per app kind and plain request (wire.SCHEMA): (the
    # session's client certificate for an app kind, the connection's
    # SessionContext for a plain request, *request values) -> reply values.

    # -- peer registration -------------------------------------------------------------

    def _on_register(self, sender: Certificate, registered: bytes) -> tuple:
        # registered: the record's fields less the username (records.REGISTERED),
        # or the tag of the record the server last accepted from the sender,
        # served from the row that holds it under the session's certificate
        ring_id = self._owned_ring_id(sender.username)
        if len(registered) != TAG_LEN:
            record = RegistrationRecord(sender.username, *REGISTERED.unpack(registered))
            return self._registered(PeerRow(record, sender, ring_id))
        row = self.server.store.peer(sender.username, ring_id)
        if row is None or row.certificate != sender or record_tag(row.record.encode())[0] != registered:
            raise NotFound("no such record held; register it")
        return self._registered(row)

    def _registered(self, row: PeerRow) -> tuple:
        """Store a registration's row as primary; the reply: the requests pending for its owner."""
        server = self.server
        # At most one signature check either way, and none for a row equal
        # to the stored one: the ring verifies what it stores.
        if server.ring is not None:
            stored = server.ring.put_primary(row)
        else:
            stored = server.store.holds_peer(row) or server._verify_row(row)
            if stored:
                server.store.upsert_peer(row)
        if not stored:
            raise IntegrityError("registration record failed verification")
        username = row.record.username
        server.on_event("peer_registered", node=server.addr, username=username)
        return (server.store.pop_friend_requests(username),)

    def _owned_ring_id(self, username: str) -> int:
        server = self.server
        if server.ring is None:
            return 0
        ids = dual_hash(username, server.config.ring_bits)
        for ident in ids.both():
            if server.ring.owns(ident):
                return ident
        return ids.id_md5

    # -- lookup -------------------------------------------------------------------------

    def _on_locate(self, sender: Certificate, passphrase: str, tag: bytes,
                   with_certificate: bool) -> tuple:
        row = self.server.store.peer_by_passphrase(passphrase)
        self.server.on_event(
            "locate",
            node=self.server.addr,
            requester=sender.username,
            found=row is not None,
        )
        if row is None:
            raise NotFound("no record under that passphrase")
        record = row.record.encode()
        if tag:
            held_tag, proof = record_tag(record)
            if tag == held_tag:
                record = proof  # "unchanged"
        return record, row.certificate.encode() if with_certificate else b""

    # -- friendship requests ---------------------------------------------------------------

    def _on_friend_request(self, sender: Certificate, target: str) -> tuple:
        # A session lives across requests: the blob that follows is for this
        # target only, and a refused request leaves no target behind.
        row = self.server.store.peer_by_username(target)
        self._friend_target = None if row is None else target
        if row is None:
            raise NotFound(f"no user {target}")
        return (row.certificate.encode(),)

    def _on_passphrase_blob(self, sender: Certificate, blob: bytes) -> tuple:
        target, self._friend_target = self._friend_target, None
        if target is None:
            raise MalformedRequest("no friend_request before the blob")
        request = FriendshipRequestRecord(
            target_username=target,
            requester_username=sender.username,
            sealed_passphrase=blob,  # stored verbatim; the server cannot open it
        )
        self.server.store.put_friend_request(request)
        return ()

    # -- relay directory ----------------------------------------------------------------------

    def _on_relay_register(self, ctx: SessionContext, port: int, capacity: int) -> tuple:
        self._on_relay_update(ctx, port, 0, capacity)
        return (self.server.config.refresh_interval_ms,)

    def _on_relay_update(self, ctx: SessionContext, port: int, load: int, capacity: int) -> tuple:
        relay = RelayRecord(host_of(ctx.remote_addr), port, capacity, load, self.server.clock())
        self.server.store.upsert_relay(relay)
        return ()

    def _on_request_relay(self, ctx: SessionContext) -> tuple | Frame:
        # Deliberately plaintext: carries nothing sensitive.
        now = self.server.clock()
        best = select_relay(self.server.store, now, self.server.config.age_ms)
        if best is None:
            return Frame(wire.NO_RELAY_AVAILABLE)  # a reply of its own code, with no status
        # Optimistic load bump keeps assignments balanced between updates.
        self.server.store.upsert_relay(replace(best, load=best.load + 1))
        return best.address, best.port

    # -- chord ------------------------------------------------------------------------------------

    def _on_chord_lookup(self, ctx: SessionContext, ident: int) -> tuple:
        server = self.server
        if server.ring is None:
            return server.addr, 0
        result = server.ring.find_successor(self._ring_id(ident))
        server.on_event("chord_lookup", node=server.addr, hops=result.hops)
        return result.addr, result.hops

    def _on_complaint(self, ctx: SessionContext, complaint: Complaint) -> tuple:
        self.server.handle_complaint(complaint)
        # Invalid complaints are dropped without telling the sender why.
        return ()

    # -- ring maintenance ---------------------------------------------------------------------------

    def _ring(self) -> RingNode:
        if self.server.ring is None:
            raise MalformedRequest("ring not enabled")
        return self.server.ring

    def _ring_id(self, ident: int) -> int:
        """A requested id, refused if the ring's id space does not hold it."""
        if ident >= 1 << self._ring().bits:
            raise MalformedRequest("identifier off the ring")
        return ident

    def _on_ring_state(self, ctx: SessionContext) -> tuple:
        pred, succs = self._ring().state()
        return pred or "", succs

    def _on_ring_closest(self, ctx: SessionContext, ident: int) -> tuple:
        closest, succs = self._ring().local_query(self._ring_id(ident))
        return closest, succs[0], succs[1:]

    def _on_ring_notify(self, ctx: SessionContext, candidate: str, tag: bytes) -> tuple:
        adopted, state = self._ring().notified(candidate, tag)
        pred, succs = state or (None, [])  # "unchanged" names no successor
        return adopted, pred or "", succs

    def _on_ring_replicate(self, ctx: SessionContext, rows: list[PeerRow]) -> tuple:
        ring = self._ring()
        return ([ring.accept_replica(row) for row in rows],)

    def _on_ring_transfer(self, ctx: SessionContext, departing: str, rows: list[PeerRow]) -> tuple:
        return (self._ring().accept_transfer(rows, departing or None),)
