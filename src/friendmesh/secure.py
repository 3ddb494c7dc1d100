"""TLS-like secure channels between certified endpoints.

Peer-to-peer handshake: the initiator presents its certificate in the
clear; the responder answers with its own certificate sealed under the
initiator's public key (an observer never learns who answered); the
initiator generates the session key and sends it signed-then-sealed. After
that every byte on the wire is ciphertext under the session key.

Server sessions (rendezvous-style) differ only in the second message: the
server replies with a session key it generated itself, sealed under the
client's public key. SecureClient speaks that dialect.

Both kinds of session are meant to be kept across requests. One stays
established while it is in step: every reply so far authenticated under
its key, an authenticated error reply included. A failure on the way (the
transport, a reply that does not decrypt, a plain error) leaves it out of
step for good, and the owner drops it. Of those, only peer_unreachable says
that the request cannot have been served. The responder checks admission on
every app frame, not only at the handshake, so a peer that stops admitting
a user refuses the user's open channel too.
"""
from __future__ import annotations

import random
from typing import Callable

from . import identity, wire
from .channel import Channel, SessionContext
from .errors import (
    AuthError,
    HandshakeError,
    IntegrityError,
    MalformedRequest,
    PeerUnreachable,
    ProtocolError,
    error_for_code,
)
from .identity import Certificate, KeyPair, SessionCipher, SessionKey
from .wire import Frame

AdmissionGate = Callable[[str], bool]
# App handler: (plaintext body, peer certificate, ctx) -> plaintext reply body.
AppHandler = Callable[[bytes, Certificate, SessionContext], bytes]


def pack_app(kind: str, *fields: bytes) -> bytes:
    return wire.pack_fields(kind.encode("ascii"), *fields)


def read_app_kind(body: bytes) -> tuple[str, int]:
    """An app body's kind, and the position of the field after it."""
    if not body:
        raise ProtocolError("empty app envelope")
    kind, pos = wire.read_field(body)
    return kind.decode("ascii", "replace"), pos


def unpack_app(body: bytes) -> tuple[str, list[bytes]]:
    kind, pos = read_app_kind(body)
    return kind, wire.unpack_fields(body[pos:])


class SecureChannel:
    """Initiator's end of an established peer-to-peer channel."""

    def __init__(self, channel: Channel, cipher: SessionCipher, peer_cert: Certificate,
                 session_key: SessionKey):
        self._channel = channel
        self._cipher: SessionCipher | None = cipher
        self.peer_cert = peer_cert
        self.session_key = session_key

    @property
    def peer_username(self) -> str:
        return self.peer_cert.username

    @property
    def remote_addr(self) -> str:
        return self._channel.remote_addr

    @property
    def established(self) -> bool:
        """Still in step, so fit for another request."""
        return self._cipher is not None

    def _exchange(self, body: bytes) -> tuple[bytes, int]:
        """Send one app body; return the reply body and the position after
        its kind. An err reply raises the error it reports."""
        cipher, self._cipher = self._cipher, None  # out of step until the reply authenticates
        if cipher is None:
            raise HandshakeError("channel out of step")
        reply = self._channel.request(Frame(wire.APP_DATA, cipher.encrypt(body)))
        if reply.msg_type != wire.APP_DATA:
            raise ProtocolError(f"unexpected reply type {reply.msg_type}")
        try:
            body = cipher.decrypt(reply.payload)
        except IntegrityError:
            _raise_if_unreachable(reply)
            raise
        self._cipher = cipher
        kind, pos = read_app_kind(body)
        if kind == "err":
            _, fields = unpack_app(body)
            raise error_for_code(fields[0].decode("ascii", "replace") if fields else "protocol_error")
        return body, pos

    def request_app(self, kind: str, *fields: bytes) -> list[bytes]:
        body, pos = self._exchange(pack_app(kind, *fields))
        return wire.unpack_fields(body[pos:])

    def call(self, kind: str, *values) -> tuple:
        """request_app for a kind in wire.SCHEMA: typed values both ways."""
        body, pos = self._exchange(pack_app(kind) + wire.encode(kind, *values))
        return wire.decode(kind, body, pos, reply=True)

    def close(self) -> None:
        self._channel.close()


def _raise_if_unreachable(reply: Frame) -> None:
    """A plain peer_unreachable, as a relay answers for a peer it no longer
    serves, means the request never reached the peer."""
    try:
        wire.open_reply(reply)
    except PeerUnreachable:
        raise
    except ProtocolError:
        pass


def connect_secure(
    channel: Channel,
    my_cert: Certificate,
    my_keys: KeyPair,
    ca_public_key: bytes,
    expected_username: str | None = None,
    rng: random.Random | None = None,
) -> SecureChannel:
    """Run the initiator side of the peer-to-peer handshake on a channel."""
    reply = channel.request(Frame(wire.REGISTER_PEER, wire.encode(wire.REGISTER_PEER, my_cert)))
    if reply.msg_type != wire.CERT_REPLY:
        raise HandshakeError(f"expected cert_reply, got {reply.msg_type}")
    (sealed_cert,) = wire.open_reply(reply, wire.REGISTER_PEER)
    try:
        peer_cert = Certificate.decode(identity.open_sealed(my_keys.private_key, sealed_cert))
    except ProtocolError as exc:
        raise HandshakeError("responder certificate failed to open") from exc
    if not identity.verify_certificate(peer_cert, ca_public_key):
        raise AuthError("responder certificate failed CA verification")
    if expected_username is not None and peer_cert.username != expected_username:
        raise AuthError(
            f"responder is {peer_cert.username!r}, expected {expected_username!r}"
        )
    session_key = identity.generate_session_key(rng=rng)
    blob = identity.seal_session_key(session_key, peer_cert.public_key, my_keys.private_key)
    ack = channel.request(Frame(wire.SESSION_KEY, wire.encode(wire.SESSION_KEY, blob)))
    if ack.msg_type != wire.SESSION_KEY:
        raise HandshakeError(f"expected session_key ack, got {ack.msg_type}")
    wire.open_reply(ack, wire.SESSION_KEY)
    return SecureChannel(channel, SessionCipher(session_key, direction=0), peer_cert, session_key)


class ResponderSession:
    """Server side of the peer-to-peer handshake plus encrypted app traffic."""

    def __init__(
        self,
        my_cert: Certificate,
        my_keys: KeyPair,
        ca_public_key: bytes,
        admission: AdmissionGate,
        app_handler: AppHandler,
    ):
        self._cert = my_cert
        self._keys = my_keys
        self._ca_pub = ca_public_key
        self._admission = admission
        self._app_handler = app_handler
        self._peer_cert: Certificate | None = None
        self._cipher: SessionCipher | None = None

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        if frame.msg_type == wire.REGISTER_PEER:
            return self._on_hello(frame)
        if frame.msg_type == wire.SESSION_KEY:
            return self._on_session_key(frame)
        if frame.msg_type == wire.APP_DATA:
            return self._on_app(frame, ctx)
        return wire.err_reply(frame.msg_type, "malformed_request", "unexpected message")

    def _on_hello(self, frame: Frame) -> Frame:
        if self._cipher is not None:  # one handshake per channel: a kept one is never re-keyed
            return wire.err_reply(wire.CERT_REPLY, "handshake_error", "already established")
        try:
            (peer_cert,) = wire.decode(wire.REGISTER_PEER, frame.payload)
        except MalformedRequest:
            return wire.err_reply(wire.CERT_REPLY, "malformed_request")
        if not identity.verify_certificate(peer_cert, self._ca_pub):
            return wire.err_reply(wire.CERT_REPLY, "auth_error", "bad certificate")
        # Admission before anything about this endpoint is revealed.
        if not self._admission(peer_cert.username):
            return wire.err_reply(wire.CERT_REPLY, "auth_error", "not authorized")
        self._peer_cert = peer_cert
        sealed = identity.seal(peer_cert.public_key, self._cert.encode())
        return wire.reply(wire.REGISTER_PEER, sealed, msg_type=wire.CERT_REPLY)

    def _on_session_key(self, frame: Frame) -> Frame:
        if self._cipher is not None:
            return wire.err_reply(wire.SESSION_KEY, "handshake_error", "already established")
        if self._peer_cert is None:
            return wire.err_reply(wire.SESSION_KEY, "handshake_error", "no certificate yet")
        try:
            (blob,) = wire.decode(wire.SESSION_KEY, frame.payload)
            session_key = identity.open_session_key(blob, self._peer_cert.public_key, self._keys.private_key)
            self._cipher = SessionCipher(session_key, direction=1)
        except ProtocolError as exc:
            return wire.err_reply(wire.SESSION_KEY, exc.code)
        return wire.reply(wire.SESSION_KEY)

    def _on_app(self, frame: Frame, ctx: SessionContext) -> Frame:
        if self._cipher is None or self._peer_cert is None:
            return wire.err_reply(wire.APP_DATA, "handshake_error", "channel not established")
        try:
            body = self._cipher.decrypt(frame.payload)
        except ProtocolError as exc:
            return wire.err_reply(wire.APP_DATA, exc.code)
        try:
            if not self._admission(self._peer_cert.username):
                raise AuthError("not authorized")
            reply_body = self._app_handler(body, self._peer_cert, ctx)
        except ProtocolError as exc:
            reply_body = pack_app("err", exc.code.encode("ascii"))
        return Frame(wire.APP_DATA, self._cipher.encrypt(reply_body))


class SecureClient:
    """Client side of a server session keyed by a server-generated session key."""

    def __init__(self, channel: Channel, my_cert: Certificate, my_keys: KeyPair):
        self._channel = channel
        self._cert = my_cert
        self._keys = my_keys
        self._cipher: SessionCipher | None = None

    def establish(self) -> None:
        reply = self._channel.request(
            Frame(wire.REGISTER_PEER, wire.encode(wire.REGISTER_PEER, self._cert))
        )
        if reply.msg_type != wire.SESSION_KEY:
            raise HandshakeError(f"expected session_key, got {reply.msg_type}")
        (sealed,) = wire.open_reply(reply, wire.REGISTER_PEER)
        try:
            plain = identity.open_sealed(self._keys.private_key, sealed)
            session_key = SessionKey.decode(plain)
        except ProtocolError as exc:
            raise HandshakeError("session key failed to open") from exc
        self._cipher = SessionCipher(session_key, direction=0)

    @property
    def established(self) -> bool:
        """Established and still in step, so fit for another request."""
        return self._cipher is not None

    def call(self, msg_type: int, *values) -> tuple:
        """Send one encrypted request; return the reply's values (wire.SCHEMA).

        Server replies are pack(b"enc", ciphertext) with the status inside
        the ciphertext, so outcomes like not_found stay hidden from
        observers; plain pack(code, message) marks pre-session failures.
        """
        cipher, self._cipher = self._cipher, None  # out of step until the reply authenticates
        if cipher is None:
            raise HandshakeError("session not established")
        reply = self._channel.request(
            Frame(msg_type, cipher.encrypt(wire.encode(msg_type, *values)))
        )
        outer = wire.unpack_fields(reply.payload)
        if len(outer) == 2 and outer[0] == b"enc":
            inner = cipher.decrypt(outer[1])
            self._cipher = cipher
            return wire.open_reply(Frame(reply.msg_type, inner), msg_type)
        wire.open_reply(reply)  # raises the pre-session failure it reports
        raise MalformedRequest("reply is neither encrypted nor an error")

    def close(self) -> None:
        self._channel.close()


def enc_reply(msg_type: int, cipher: SessionCipher, status: str, fields: bytes = b"") -> Frame:
    """Server-side helper: encrypted reply with in-ciphertext status,
    followed by the already packed fields."""
    inner = wire.pack_fields(status.encode("ascii")) + fields
    return Frame(msg_type, wire.pack_fields(b"enc", cipher.encrypt(inner)))
