"""TLS-like secure sessions between certified endpoints.

Two handshakes open a session, and both start with the client presenting
its certificate in the clear (REGISTER_PEER):

- Peer to peer: the responder answers with its own certificate sealed
  under the initiator's public key (an observer never learns who
  answered); the initiator generates the session key and sends it
  signed-then-sealed.
- Rendezvous: the server answers with a session key it generated itself,
  sealed under the client's public key. The server presents no
  certificate, so the client's end has peer_cert None.

Both end in a SecureChannel, and from then on every request is an APP_DATA
frame whose plaintext is pack(kind) and then that kind's fields
(wire.SCHEMA), and every reply's plaintext is a plain reply's payload:
b"ok" or an error code, then the fields. The frame code so names neither
the operation nor its outcome; frame lengths still differ, as nothing is
padded. answer_app serves such a frame for the peer responder and the
rendezvous server alike.

Sessions are meant to be kept across requests. One stays established
while it is in step: every reply so far authenticated under its key, an
authenticated error reply included. A failure on the way (the transport,
a reply that does not decrypt) leaves it out of step for good, and the
owner drops it. A reply that does not decrypt is believed only as a plain
peer_unreachable, as a relay answers for a peer it no longer serves: it
says the request cannot have been served. Any other is an IntegrityError.
The peer responder checks admission on every app frame, not only at the
handshake, so a peer that stops admitting a user refuses the user's open
channel too.
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
)
from .identity import Certificate, KeyPair, SessionCipher, SessionKey
from .wire import Frame

AdmissionGate = Callable[[str], bool]
# App handler: (plaintext body, peer certificate) -> the reply's packed fields
# after its status. A ProtocolError it raises is answered with its code.
AppHandler = Callable[[bytes, Certificate], bytes]


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


def dispatch_app(service, body: bytes, sender: Certificate) -> bytes:
    """The packed reply fields to an app body whose kind is in wire.SCHEMA,
    served by service._on_<kind>(sender, *request values) -> reply values."""
    kind, pos = read_app_kind(body)
    handler = getattr(service, f"_on_{kind}", None) if kind in wire.SCHEMA else None
    if handler is None:
        raise MalformedRequest(f"unknown app kind {kind}")
    return wire.encode(kind, *handler(sender, *wire.decode(kind, body, pos)), reply=True)


def answer_app(cipher: SessionCipher | None, frame: Frame, serve: Callable[[bytes], bytes]) -> Frame:
    """The reply to an APP_DATA frame on a session keyed by cipher (None
    before the handshake). serve(plaintext body) returns the reply's packed
    fields or raises a ProtocolError, and either answer goes back encrypted;
    a frame that does not decrypt gets a plain error reply."""
    if cipher is None:
        return wire.err_reply(wire.APP_DATA, "handshake_error", "session not established")
    try:
        body = cipher.decrypt(frame.payload)
    except ProtocolError as exc:
        return wire.err_reply(wire.APP_DATA, exc.code)
    try:
        reply = wire.OK + serve(body)
    except ProtocolError as exc:
        reply = wire.pack_fields(exc.code.encode("ascii"))
    return Frame(wire.APP_DATA, cipher.encrypt(reply))


class SecureChannel:
    """The client's end of an established session: to a friend (peer_cert
    is the friend's certificate) or to a rendezvous server (peer_cert None)."""

    def __init__(self, channel: Channel, cipher: SessionCipher, peer_cert: Certificate | None,
                 session_key: SessionKey):
        self._channel = channel
        self._cipher: SessionCipher | None = cipher
        self.peer_cert = peer_cert
        self.session_key = session_key

    @property
    def remote_addr(self) -> str:
        return self._channel.remote_addr

    @property
    def established(self) -> bool:
        """Still in step, so fit for another request."""
        return self._cipher is not None

    def _exchange(self, body: bytes, key: str | None = None) -> list[bytes] | tuple:
        """Send one app body; return what wire.open_reply reads from the
        reply, which raises the error an error reply reports."""
        cipher, self._cipher = self._cipher, None  # out of step until the reply authenticates
        if cipher is None:
            raise HandshakeError("channel out of step")
        reply = self._channel.request(Frame(wire.APP_DATA, cipher.encrypt(body)))
        try:
            plain = cipher.decrypt(reply.payload)
        except IntegrityError:
            _raise_if_unreachable(reply)
            raise
        self._cipher = cipher
        return wire.open_reply(Frame(wire.APP_DATA, plain), key)

    def request_app(self, kind: str, *fields: bytes) -> list[bytes]:
        return self._exchange(pack_app(kind, *fields))

    def call(self, kind: str, *values) -> tuple:
        """request_app for a kind in wire.SCHEMA: typed values both ways."""
        return self._exchange(pack_app(kind) + wire.encode(kind, *values), kind)

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


def _hello(channel: Channel, my_cert: Certificate, answer: int) -> bytes:
    """Present my_cert; return the sealed blob of the reply, which must come
    under the answer code."""
    reply = channel.request(Frame(wire.REGISTER_PEER, wire.encode(wire.REGISTER_PEER, my_cert)))
    if reply.msg_type != answer:
        raise HandshakeError(f"expected {wire.MSG_NAMES[answer]}, got {reply.msg_type}")
    (sealed,) = wire.open_reply(reply, wire.REGISTER_PEER)
    return sealed


def connect_secure(
    channel: Channel,
    my_cert: Certificate,
    my_keys: KeyPair,
    ca_public_key: bytes,
    expected_username: str | None = None,
    rng: random.Random | None = None,
) -> SecureChannel:
    """Run the initiator side of the peer-to-peer handshake on a channel."""
    sealed_cert = _hello(channel, my_cert, wire.CERT_REPLY)
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


def connect_rendezvous(channel: Channel, my_cert: Certificate, my_keys: KeyPair) -> SecureChannel:
    """Run the client side of the rendezvous handshake on a channel."""
    sealed = _hello(channel, my_cert, wire.SESSION_KEY)
    try:
        session_key = SessionKey.decode(identity.open_sealed(my_keys.private_key, sealed))
    except ProtocolError as exc:
        raise HandshakeError("session key failed to open") from exc
    return SecureChannel(channel, SessionCipher(session_key, direction=0), None, session_key)


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
            return answer_app(self._cipher, frame, self._serve)
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

    def _serve(self, body: bytes) -> bytes:
        if not self._admission(self._peer_cert.username):
            raise AuthError("not authorized")
        return self._app_handler(body, self._peer_cert)
