"""The rendezvous server.

Peer registration with sealed passphrase/mirror data, passphrase lookup,
relay directory with load balancing, friendship-request mailbox, staleness
eviction, the chord ring face (lookup, stabilization, verified
replication) and the complaint ledger driving collaborative eviction.

Every client exchange is a session over one connection: certificate in,
server-generated session key out (sealed under the client's public key),
then encrypted request/reply pairs. Server-to-server ring traffic is
plain; record integrity rests on owner signatures, never on the servers.
"""
from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Callable

from . import chord, identity, sentinel, wire
from .channel import Endpoint, SessionContext
from .chord import RingNode, dual_hash
from .config import RendezvousConfig
from .errors import MalformedRequest, ProtocolError
from .identity import Certificate, SessionCipher, SignedDigest
from .records import FriendshipRequestRecord, PeerRow, RegistrationRecord, RelayRecord
from .secure import enc_reply
from .sentinel import Complaint, ComplaintLedger
from .store import MemoryStore, RendezvousStore, SqliteStore, evict_stale_relays, select_relay
from .wire import Frame


def host_of(addr: str) -> str:
    return addr.rsplit(":", 1)[0] if ":" in addr else addr


class WireRingTransport:
    """chord.RingTransport over channels; one connection per call."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint

    def _request(self, addr: str, frame: Frame) -> list[bytes]:
        channel = self.endpoint.connect(addr)
        try:
            return wire.open_reply(channel.request(frame))
        finally:
            channel.close()

    def get_state(self, addr: str) -> tuple[str | None, list[str]]:
        fields = self._request(addr, Frame(wire.RING_STATE))
        pred = wire.unpack_str(fields[0]) if fields and fields[0] else None
        return pred, [wire.unpack_str(f) for f in fields[1:]]

    def query(self, addr: str, ident: int) -> tuple[str, str]:
        fields = self._request(
            addr, Frame(wire.RING_CLOSEST, wire.pack_fields(_ident_bytes(ident)))
        )
        return wire.unpack_str(fields[0]), wire.unpack_str(fields[1])

    def notify(self, addr: str, candidate: str) -> None:
        self._request(addr, Frame(wire.RING_NOTIFY, wire.pack_fields(wire.pack_str(candidate))))

    def replicate(self, addr: str, row: PeerRow) -> bool:
        fields = self._request(
            addr, Frame(wire.RING_REPLICATE, wire.pack_fields(_encode_ring_row(row)))
        )
        return fields[0] == b"1"

    def transfer(self, addr: str, rows: list[PeerRow], departing: str | None) -> None:
        payload = wire.pack_fields(
            wire.pack_str(departing or ""), *[_encode_ring_row(r) for r in rows]
        )
        self._request(addr, Frame(wire.RING_TRANSFER, payload))


def _ident_bytes(ident: int) -> bytes:
    return format(ident, "x").encode("ascii")


def _ident_from(field: bytes) -> int:
    try:
        return int(field.decode("ascii"), 16)
    except (UnicodeDecodeError, ValueError) as exc:
        raise MalformedRequest("bad identifier") from exc


def _encode_ring_row(row: PeerRow) -> bytes:
    return wire.pack_fields(_ident_bytes(row.ring_id), row.encode(), b"1" if row.replica else b"0")


def _decode_ring_row(data: bytes) -> PeerRow:
    ring_id, value, replica = wire.unpack_fields(data, expect=3)
    return replace(PeerRow.decode(value), ring_id=_ident_from(ring_id), replica=replica == b"1")


class RendezvousServer:
    def __init__(
        self,
        addr: str,
        config: RendezvousConfig | None = None,
        ca_public_key: bytes = b"",
        ca_algorithm: str = identity.DEFAULT_ALGORITHM,
        store: RendezvousStore | None = None,
        endpoint: Endpoint | None = None,
        rng: random.Random | None = None,
        clock: Callable[[], int] | None = None,
        on_event: Callable[..., None] | None = None,
    ):
        self.addr = addr
        self.config = config or RendezvousConfig()
        self.ca_public_key = ca_public_key
        self.ca_algorithm = ca_algorithm
        if store is not None:
            self.store = store
        elif self.config.db_url and self.config.db_url != ":memory:":
            self.store = SqliteStore(self.config.db_url)
        else:
            self.store = MemoryStore()
        self.endpoint = endpoint
        self.rng = rng or random.Random()
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.on_event = on_event or (lambda kind, **fields: None)
        self.ring: RingNode | None = None
        if self.config.ring_enabled and endpoint is not None:
            self.ring = RingNode(
                addr,
                WireRingTransport(endpoint),
                bits=self.config.ring_bits,
                store=self.store,
                verify_row=self._verify_ring_row,
            )
        self.ledger = ComplaintLedger(self.config.complaint_threshold)
        self.evictions: list[tuple[int, str]] = []
        self._seen_complaints: set[tuple[str, str]] = set()
        self._tick_count = 0

    # -- ring plumbing ---------------------------------------------------------

    def _verify_ring_row(self, row: PeerRow) -> bool:
        return row.verified(self.ca_public_key, self.ca_algorithm)

    def join_ring(self, bootstrap_addr: str) -> None:
        if self.ring is None:
            raise MalformedRequest("ring not enabled")
        self.ring.join(bootstrap_addr)

    def leave_ring(self) -> None:
        if self.ring is not None:
            self.ring.leave()

    def tick(self) -> None:
        """Periodic upkeep: relay staleness, ring stabilization."""
        now = self.clock()
        evict_stale_relays(self.store, now, self.config.age_ms)
        if self.ring is not None:
            self.ring.check_predecessor()
            self.ring.stabilize()
            self._tick_count += 1
            if self._tick_count % 4 == 1:
                self.ring.fix_fingers()

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
            self.ca_algorithm,
            now,
            self.config.freshness_ms,
            self._registered_with,
        )
        if not fresh:
            return False
        # Flood dedup keyed by (accused, complainant), marked only for
        # valid complaints so forgeries cannot pre-block a real one.
        key = (complaint.accused, complaint.complainant)
        if key in self._seen_complaints:
            return False
        self._seen_complaints.add(key)
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
        targets = set(self.ring.successors) | {f for f in self.ring.fingers if f}
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

    def _registered_count_estimate(self, accused: str) -> int:
        count = 0
        for row in self.store.peer_rows():
            try:
                ids = dual_hash(row.record.username, self.config.ring_bits)
            except MalformedRequest:
                continue
            if self.ring is not None:
                try:
                    if any(self.ring.find_successor(i).addr == accused for i in ids.both()):
                        count += 1
                except ProtocolError:
                    continue
        return count

    def _adjudicate(self, accused: str) -> None:
        hint = None
        if self.ledger.threshold is None:
            hint = self._registered_count_estimate(accused)
        if self.ledger.adjudicate(accused, hint) != "evict":
            return
        if self.ring is not None and accused not in self.ring.evicted:
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
        self.peer_cert: Certificate | None = None
        self.cipher: SessionCipher | None = None
        self._friend_target: str | None = None

    def closed(self, ctx: SessionContext) -> None:
        pass

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        try:
            return self._dispatch(frame, ctx)
        except ProtocolError as exc:
            return wire.err_reply(frame.msg_type, exc.code)

    def _dispatch(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        handlers = {
            wire.REGISTER_PEER: self.handle_session_hello,
            wire.REGISTRATION_PAYLOAD: self.handle_peer_register,
            wire.LOCATE_PEER: self.handle_locate_peer,
            wire.FRIEND_REQUEST: self.handle_friend_request,
            wire.PASSPHRASE_BLOB: self.handle_passphrase_blob,
            wire.RELAY_REGISTER: self.handle_relay_register,
            wire.RELAY_UPDATE: self.handle_relay_update,
            wire.REQUEST_RELAY: self.handle_request_relay,
            wire.CHORD_LOOKUP: self.handle_chord_lookup,
            wire.COMPLAINT: self.handle_complaint,
            wire.RING_STATE: self.handle_ring_state,
            wire.RING_CLOSEST: self.handle_ring_closest,
            wire.RING_NOTIFY: self.handle_ring_notify,
            wire.RING_REPLICATE: self.handle_ring_replicate,
            wire.RING_TRANSFER: self.handle_ring_transfer,
        }
        handler = handlers.get(frame.msg_type)
        if handler is None:
            return wire.err_reply(frame.msg_type, "malformed_request", "unexpected message")
        return handler(frame, ctx)

    # -- secure session plumbing ----------------------------------------------------

    def handle_session_hello(self, frame: Frame, ctx: SessionContext) -> Frame:
        try:
            (cert_bytes,) = wire.unpack_fields(frame.payload, expect=1)
            cert = Certificate.decode(cert_bytes)
        except ProtocolError:
            return wire.err_reply(wire.SESSION_KEY, "malformed_request")
        if not identity.verify_certificate(cert, self.server.ca_public_key, self.server.ca_algorithm):
            return wire.err_reply(wire.SESSION_KEY, "auth_error", "bad certificate")
        session_key = identity.generate_session_key(
            self.server.config.session_key_type, rng=self.server.rng
        )
        self.peer_cert = cert
        self.cipher = SessionCipher(session_key, direction=1)
        sealed = identity.seal(cert.public_key, session_key.encode(), cert.algorithm_id)
        return wire.ok_reply(wire.SESSION_KEY, sealed)

    def _decrypt(self, frame: Frame) -> bytes:
        if self.cipher is None or self.peer_cert is None:
            raise ProtocolError("session not established")
        return self.cipher.decrypt(frame.payload)

    # -- peer registration -------------------------------------------------------------

    def handle_peer_register(self, frame: Frame, ctx: SessionContext) -> Frame:
        server = self.server
        plain = self._decrypt(frame)
        fields = wire.unpack_fields(plain, expect=10)
        record = RegistrationRecord(
            username=self.peer_cert.username,
            ip=wire.unpack_str(fields[0]),
            port=wire.unpack_int(fields[1]),
            nat_kind=wire.unpack_str(fields[2]),
            protocol=wire.unpack_str(fields[3]),
            relay_address=wire.unpack_str(fields[4]),
            relay_port=wire.unpack_int(fields[5]),
            passphrase=wire.unpack_str(fields[6]),
            encrypted_mirror_list=fields[7],
            signed_digest=SignedDigest(digest=fields[8], signature=fields[9]),
            last_refresh=server.clock(),
        )
        if record.nat_kind not in ("public", "full_cone", "non_full_cone"):
            return enc_reply(wire.PEER_REGISTERED, self.cipher, "malformed_request")
        row = PeerRow(
            record=record,
            certificate=self.peer_cert.encode(),
            ring_id=self._owned_ring_id(record.username),
            replica=False,
        )
        if not row.verified(server.ca_public_key, server.ca_algorithm):
            # Rejected, not stored.
            return enc_reply(wire.PEER_REGISTERED, self.cipher, "integrity_error")
        if server.ring is not None:
            server.ring.put_primary(row)
        else:
            server.store.upsert_peer(row)
        server.on_event("peer_registered", node=server.addr, username=record.username)
        pending = server.store.pop_friend_requests(record.username)
        return enc_reply(
            wire.PEER_REGISTERED, self.cipher, "ok", *[p.encode() for p in pending]
        )

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

    def handle_locate_peer(self, frame: Frame, ctx: SessionContext) -> Frame:
        plain = self._decrypt(frame)
        (passphrase,) = wire.unpack_fields(plain, expect=1)
        row = self.server.store.peer_by_passphrase(wire.unpack_str(passphrase))
        self.server.on_event(
            "locate",
            node=self.server.addr,
            requester=self.peer_cert.username,
            found=row is not None,
        )
        if row is None:
            return enc_reply(wire.PEER_INFO, self.cipher, "not_found")
        return enc_reply(wire.PEER_INFO, self.cipher, "ok", row.record.encode(), row.certificate)

    # -- friendship requests ---------------------------------------------------------------

    def handle_friend_request(self, frame: Frame, ctx: SessionContext) -> Frame:
        plain = self._decrypt(frame)
        (target,) = wire.unpack_fields(plain, expect=1)
        target_name = wire.unpack_str(target)
        row = self.server.store.peer_by_username(target_name)
        if row is None:
            return enc_reply(wire.CERT_REPLY, self.cipher, "not_found")
        self._friend_target = target_name
        return enc_reply(wire.CERT_REPLY, self.cipher, "ok", row.certificate)

    def handle_passphrase_blob(self, frame: Frame, ctx: SessionContext) -> Frame:
        plain = self._decrypt(frame)
        (blob,) = wire.unpack_fields(plain, expect=1)
        if self._friend_target is None:
            return enc_reply(wire.PASSPHRASE_BLOB, self.cipher, "malformed_request")
        request = FriendshipRequestRecord(
            target_username=self._friend_target,
            requester_username=self.peer_cert.username,
            sealed_passphrase=blob,  # stored verbatim; the server cannot open it
        )
        self.server.store.put_friend_request(request)
        return enc_reply(wire.PASSPHRASE_BLOB, self.cipher, "ok")

    # -- relay directory ----------------------------------------------------------------------

    def handle_relay_register(self, frame: Frame, ctx: SessionContext) -> Frame:
        try:
            port_b, capacity_b = wire.unpack_fields(frame.payload, expect=2)
            port = wire.unpack_int(port_b)
            capacity = wire.unpack_int(capacity_b)
        except ProtocolError:
            return wire.err_reply(wire.RELAY_REGISTER, "reject")
        relay = RelayRecord(
            address=host_of(ctx.remote_addr),
            port=port,
            capacity=capacity,
            load=0,
            last_update=self.server.clock(),
        )
        self.server.store.upsert_relay(relay)
        return wire.ok_reply(
            wire.RELAY_REGISTER, wire.pack_int(self.server.config.refresh_interval_ms)
        )

    def handle_relay_update(self, frame: Frame, ctx: SessionContext) -> Frame:
        port_b, load_b, capacity_b = wire.unpack_fields(frame.payload, expect=3)
        relay = RelayRecord(
            address=host_of(ctx.remote_addr),
            port=wire.unpack_int(port_b),
            capacity=wire.unpack_int(capacity_b),
            load=wire.unpack_int(load_b),
            last_update=self.server.clock(),
        )
        self.server.store.upsert_relay(relay)
        return wire.ok_reply(wire.RELAY_UPDATE)

    def handle_request_relay(self, frame: Frame, ctx: SessionContext) -> Frame:
        # Deliberately plaintext: carries nothing sensitive.
        now = self.server.clock()
        best = select_relay(self.server.store, now, self.server.config.age_ms)
        if best is None:
            return Frame(wire.NO_RELAY_AVAILABLE)
        # Optimistic load bump keeps assignments balanced between updates.
        self.server.store.upsert_relay(replace_load(best, best.load + 1))
        return wire.ok_reply(
            wire.REQUEST_RELAY, wire.pack_str(best.address), wire.pack_int(best.port)
        )

    # -- chord ------------------------------------------------------------------------------------

    def handle_chord_lookup(self, frame: Frame, ctx: SessionContext) -> Frame:
        (ident_b,) = wire.unpack_fields(frame.payload, expect=1)
        ident = _ident_from(ident_b)
        if self.server.ring is None:
            return wire.ok_reply(wire.CHORD_REPLY, wire.pack_str(self.server.addr), wire.pack_int(0))
        result = self.server.ring.find_successor(ident)
        self.server.on_event("chord_lookup", node=self.server.addr, hops=result.hops)
        return wire.ok_reply(
            wire.CHORD_REPLY, wire.pack_str(result.addr), wire.pack_int(result.hops)
        )

    def handle_complaint(self, frame: Frame, ctx: SessionContext) -> Frame:
        complaint = Complaint.decode(frame.payload)
        self.server.handle_complaint(complaint)
        # Invalid complaints are dropped without telling the sender why.
        return wire.ok_reply(wire.COMPLAINT)

    # -- ring maintenance ---------------------------------------------------------------------------

    def _ring(self) -> RingNode:
        if self.server.ring is None:
            raise MalformedRequest("ring not enabled")
        return self.server.ring

    def handle_ring_state(self, frame: Frame, ctx: SessionContext) -> Frame:
        pred, succs = self._ring().state()
        return wire.ok_reply(
            wire.RING_STATE,
            wire.pack_str(pred or ""),
            *[wire.pack_str(s) for s in succs],
        )

    def handle_ring_closest(self, frame: Frame, ctx: SessionContext) -> Frame:
        (ident_b,) = wire.unpack_fields(frame.payload, expect=1)
        closest, succ = self._ring().local_query(_ident_from(ident_b))
        return wire.ok_reply(wire.RING_CLOSEST, wire.pack_str(closest), wire.pack_str(succ))

    def handle_ring_notify(self, frame: Frame, ctx: SessionContext) -> Frame:
        (candidate,) = wire.unpack_fields(frame.payload, expect=1)
        self._ring().notified(wire.unpack_str(candidate))
        return wire.ok_reply(wire.RING_NOTIFY)

    def handle_ring_replicate(self, frame: Frame, ctx: SessionContext) -> Frame:
        (row_b,) = wire.unpack_fields(frame.payload, expect=1)
        accepted = self._ring().accept_replica(_decode_ring_row(row_b))
        return wire.ok_reply(wire.RING_REPLICATE, b"1" if accepted else b"0")

    def handle_ring_transfer(self, frame: Frame, ctx: SessionContext) -> Frame:
        fields = wire.unpack_fields(frame.payload)
        if not fields:
            raise MalformedRequest("empty transfer")
        departing = wire.unpack_str(fields[0]) or None
        rows = [_decode_ring_row(f) for f in fields[1:]]
        accepted = self._ring().accept_transfer(rows, departing)
        return wire.ok_reply(wire.RING_TRANSFER, wire.pack_int(accepted))


def replace_load(relay: RelayRecord, load: int) -> RelayRecord:
    return RelayRecord(
        address=relay.address,
        port=relay.port,
        capacity=relay.capacity,
        load=load,
        last_update=relay.last_update,
    )
