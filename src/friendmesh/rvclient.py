"""Client-side calls against rendezvous and relay servers.

Each function drives one protocol exchange: the secure ones over a
rendezvous session (secure.connect_secure), the rest over an open
channel.
"""
from __future__ import annotations

from . import identity, wire
from .channel import Channel
from .errors import ProtocolError
from .identity import Certificate, KeyPair
from .records import FriendshipRequestRecord, RegistrationRecord
from .secure import SecureChannel
from .wire import Frame


def register_peer(
    session: SecureChannel, record: RegistrationRecord
) -> list[FriendshipRequestRecord]:
    """Submit the signed registration payload; returns pending friendship requests."""
    fields = RegistrationRecord.LAYOUT.values(record)[1:-1]  # less username and last_refresh
    (pending,) = session.call("register", *fields)
    return pending


def locate_peer(
    session: SecureChannel, passphrase: str
) -> tuple[RegistrationRecord, bytes]:
    """Exact-passphrase lookup; raises NotFound when no row matches."""
    return session.call("locate", passphrase)


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
    return wire.call(channel, wire.CHORD_LOOKUP, ident, expect=wire.CHORD_REPLY)


def submit_complaint(channel: Channel, complaint_bytes: bytes) -> None:
    wire.open_reply(channel.request(Frame(wire.COMPLAINT, complaint_bytes)), wire.COMPLAINT)
