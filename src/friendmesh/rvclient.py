"""Client-side calls against rendezvous and relay servers.

Each function drives one protocol exchange: the secure ones over a
rendezvous session (secure.connect_secure), the rest over an open
channel.
"""
from __future__ import annotations

from . import identity, wire
from .channel import Channel
from .errors import NotFound, ProtocolError
from .identity import Certificate, KeyPair
from .records import REGISTERED, FriendshipRequestRecord, RegistrationRecord, record_tag
from .secure import SecureChannel
from .wire import Frame


def register_peer(
    session: SecureChannel, record: RegistrationRecord, accepted: bytes = b""
) -> list[FriendshipRequestRecord]:
    """Submit the signed registration payload; returns pending friendship
    requests. accepted is record's tag (records.record_tag) when the server
    last accepted this very record from the caller: the register then names
    the record by it, and sends the record only when the server refuses
    that not_found, holding another record or none."""
    if accepted:
        try:
            return session.call("register", accepted)[0]
        except NotFound:
            pass
    return session.call("register", REGISTERED.encode(record))[0]


def locate_peer(
    session: SecureChannel, passphrase: str, with_certificate: bool = True,
    held: RegistrationRecord | None = None,
) -> tuple[RegistrationRecord, bytes]:
    """Exact-passphrase lookup, conditional on the record the caller holds
    (held): the server's record, or held itself when the server answers
    "unchanged" with held's proof, and, when asked for, its owner's
    certificate as the server holds it (b"" when not asked for). Raises
    NotFound when no row matches, and MalformedRequest on a reply that is
    neither the proof nor a record that decodes."""
    tag, proof = (b"", None) if held is None else record_tag(held.encode())
    record, certificate = session.call("locate", passphrase, tag, with_certificate)
    if record == proof:
        return held, certificate
    return RegistrationRecord.decode(record), certificate


def friend_request(session: SecureChannel, target_username: str) -> Certificate:
    (cert,) = session.call("friend_request", target_username)
    return Certificate.decode(cert)


def submit_passphrase_blob(session: SecureChannel, sealed_blob: bytes) -> None:
    session.call("passphrase_blob", sealed_blob)


# Inside a sealed friendship request: the requester's username and passphrase.
_REQUEST_BLOB = wire.Layout("request_blob", (wire.STR, wire.STR))


def seal_request_blob(target_cert: Certificate, requester_username: str, passphrase: str) -> bytes:
    """Bind the requester's name inside the sealed blob so nobody can reuse it."""
    body = _REQUEST_BLOB.pack((requester_username, passphrase))
    return identity.seal(target_cert.public_key, body)


def open_request_blob(
    keys: KeyPair, request: FriendshipRequestRecord
) -> str | None:
    """Open a delivered request; None when it fails to open or was re-used."""
    try:
        body = identity.open_sealed(keys.private_key, request.sealed_passphrase)
        name, passphrase = _REQUEST_BLOB.unpack(body)
    except ProtocolError:
        return None
    if name != request.requester_username:
        return None
    return passphrase


def request_relay(channel: Channel) -> tuple[str, int] | None:
    reply = channel.request(Frame(wire.REQUEST_RELAY))
    if reply.msg_type == wire.NO_RELAY_AVAILABLE:
        return None
    return wire.open_reply(reply, wire.REQUEST_RELAY)


def relay_register(channel: Channel, port: int, capacity: int) -> int:
    (interval,) = wire.call(channel, wire.RELAY_REGISTER, port, capacity)
    return interval


def relay_update(channel: Channel, port: int, load: int, capacity: int) -> None:
    wire.call(channel, wire.RELAY_UPDATE, port, load, capacity)


def chord_lookup(channel: Channel, ident: int) -> tuple[str, int]:
    return wire.call(channel, wire.CHORD_LOOKUP, ident)


def submit_complaint(channel: Channel, complaint_bytes: bytes) -> None:
    wire.open_reply(channel.request(Frame(wire.COMPLAINT, complaint_bytes)), wire.COMPLAINT)
