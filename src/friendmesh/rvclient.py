"""Client-side calls against rendezvous and relay servers.

Each function drives one protocol exchange over an open channel; the
secure ones establish the certificate/session-key prelude first.
"""
from __future__ import annotations

from dataclasses import astuple

from . import identity, wire
from .channel import Channel
from .errors import ProtocolError
from .identity import Certificate, KeyPair
from .records import FriendshipRequestRecord, RegistrationRecord
from .secure import SecureClient
from .wire import Frame


def open_secure(channel: Channel, cert: Certificate, keys: KeyPair) -> SecureClient:
    client = SecureClient(channel, cert, keys)
    client.establish()
    return client


def register_peer(
    client: SecureClient, record: RegistrationRecord
) -> list[FriendshipRequestRecord]:
    """Submit the signed registration payload; returns pending friendship requests."""
    _, *head, signed, _ = astuple(record)  # the record's own fields (wire.REGISTRATION_PAYLOAD)
    (pending,) = client.call(wire.REGISTRATION_PAYLOAD, *head, *signed)
    return pending


def locate_peer(
    client: SecureClient, passphrase: str
) -> tuple[RegistrationRecord, bytes]:
    """Exact-passphrase lookup; raises NotFound when no row matches."""
    return client.call(wire.LOCATE_PEER, passphrase)


def friend_request(client: SecureClient, target_username: str) -> Certificate:
    (cert,) = client.call(wire.FRIEND_REQUEST, target_username)
    return Certificate.decode(cert)


def submit_passphrase_blob(client: SecureClient, sealed_blob: bytes) -> None:
    client.call(wire.PASSPHRASE_BLOB, sealed_blob)


def seal_request_blob(target_cert: Certificate, requester_username: str, passphrase: str) -> bytes:
    """Bind the requester's name inside the sealed blob so nobody can reuse it."""
    body = wire.pack_fields(wire.pack_str(requester_username), wire.pack_str(passphrase))
    return identity.seal(target_cert.public_key, body, target_cert.algorithm_id)


def open_request_blob(
    keys: KeyPair, request: FriendshipRequestRecord
) -> str | None:
    """Open a delivered request; None when it fails to open or was re-used."""
    try:
        body = identity.open_sealed(keys.private_key, request.sealed_passphrase, keys.algorithm_id)
        name, passphrase = map(wire.unpack_str, wire.unpack_fields(body, expect=2))
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
