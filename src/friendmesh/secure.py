"""TLS-like secure sessions between certified endpoints.

One handshake opens every session, a friend channel and a rendezvous
session alike, in one round trip:

- The initiator presents its certificate and a fresh 16-byte nonce in the
  clear (REGISTER_PEER).
- The responder checks the certificate and admission, generates the
  session key itself and answers SESSION_KEY with one blob sealed to the
  initiator's public key: the session key, the responder's certificate
  and its signature over the transcript (the hello as sent, the session
  key, the certificate). An observer so never learns who answered.
- A rendezvous server holds no certificate: it leaves those two fields
  empty, and its client's end has peer_cert None. An initiator that names
  the user it expects refuses such an answer.

The responder's fresh key means a replayed hello opens a new session, in
which replayed app frames do not decrypt; the signature covers the
initiator's nonce, so a replayed answer does not verify. The rendezvous
server is not authenticated, and no key is ephemeral: a leaked long-term
key opens every recorded session.

Every session ends in a SecureChannel, and from then on every request is an
APP_DATA frame whose plaintext is pack(kind) and then that kind's fields
(wire.SCHEMA), and every reply's plaintext is a plain reply's payload:
b"ok" or an error code, then the fields. The frame code so names neither
the operation nor its outcome; frame lengths still differ, as nothing is
padded. ResponderSession serves the hello and APP_DATA for the peer
responder and the rendezvous server alike.

Sessions are meant to be kept across requests. One stays established
while it is in step: every reply so far authenticated under its key, an
authenticated error reply included. A failure on the way (the transport,
a reply that does not decrypt) leaves it out of step for good, and the
owner drops it. A reply that does not decrypt is believed only as a plain
peer_unreachable, as a relay answers for a peer it no longer serves: it
says the request cannot have been served. Any other is an IntegrityError.
The responder checks admission on every app frame, not only at the
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
from .wire import RAW, Frame, Layout

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


NONCE_LEN = 16

# The answer to a hello, sealed to the initiator: the session key, the
# responder's certificate and its signature over the transcript (both b""
# from a rendezvous server).
_KEY_REPLY = Layout("key_reply", (SessionKey, RAW, RAW))
# What that signature covers: a label, the hello as sent (certificate and
# nonce), the session key and the responder's certificate.
_TRANSCRIPT = Layout("transcript", (RAW, RAW, SessionKey, RAW))


def _transcript(hello: bytes, session_key: SessionKey, cert: bytes) -> bytes:
    return _TRANSCRIPT.pack((b"friendmesh handshake", hello, session_key, cert))


def seal_key_reply(peer_pub: bytes, hello: bytes, session_key: SessionKey,
                   my_cert: Certificate | None, my_keys: KeyPair | None) -> bytes:
    """The sealed answer to hello, signed when the responder holds a certificate."""
    cert = signature = b""
    if my_cert is not None:
        cert = my_cert.encode()
        signature = identity.sign(my_keys.private_key, _transcript(hello, session_key, cert))
    return identity.seal(peer_pub, _KEY_REPLY.pack((session_key, cert, signature)))


def connect_secure(
    channel: Channel,
    my_cert: Certificate,
    my_keys: KeyPair,
    ca_public_key: bytes,
    expected_username: str | None = None,
    rng: random.Random | None = None,
) -> SecureChannel:
    """Run the initiator side of the handshake on a channel. An answer that
    carries a certificate must carry a CA-verified one and its signature
    over this transcript; given expected_username, it must carry that
    user's, so a rendezvous server's answer is refused."""
    hello = wire.encode(wire.REGISTER_PEER, my_cert, identity.random_bytes(NONCE_LEN, rng))
    reply = channel.request(Frame(wire.REGISTER_PEER, hello))
    if reply.msg_type != wire.SESSION_KEY:
        raise HandshakeError(f"expected session_key, got {reply.msg_type}")
    (sealed,) = wire.open_reply(reply, wire.REGISTER_PEER)
    try:
        session_key, cert, signature = _KEY_REPLY.unpack(identity.open_sealed(my_keys.private_key, sealed))
        peer_cert = Certificate.decode(cert) if cert else None
        cipher = SessionCipher(session_key, direction=0)
    except ProtocolError as exc:
        raise HandshakeError("session key failed to open") from exc
    if peer_cert is None:
        if expected_username is not None:
            raise HandshakeError("responder presented no certificate")
    elif not identity.verify_certificate(peer_cert, ca_public_key):
        raise AuthError("responder certificate failed CA verification")
    elif expected_username is not None and peer_cert.username != expected_username:
        raise AuthError(f"responder is {peer_cert.username!r}, expected {expected_username!r}")
    elif not identity.verify(peer_cert.public_key, _transcript(hello, session_key, cert), signature):
        raise HandshakeError("responder signature does not cover this hello")
    return SecureChannel(channel, cipher, peer_cert, session_key)


class ResponderSession:
    """The responder side of the handshake plus encrypted app traffic: a
    peer's, or a rendezvous server's with no certificate (my_cert and my_keys
    None). The session key comes from rng, the OS CSPRNG when it is None."""

    def __init__(
        self,
        my_cert: Certificate | None,
        my_keys: KeyPair | None,
        ca_public_key: bytes,
        admission: AdmissionGate,
        app_handler: AppHandler,
        rng: random.Random | None = None,
    ):
        self._cert = my_cert
        self._keys = my_keys
        self._ca_pub = ca_public_key
        self._admission = admission
        self._app_handler = app_handler
        self._rng = rng
        self._peer_cert: Certificate | None = None
        self._cipher: SessionCipher | None = None

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        if frame.msg_type == wire.REGISTER_PEER:
            return self._on_hello(frame)
        if frame.msg_type == wire.APP_DATA:
            return self._on_app(frame)
        return wire.err_reply(frame.msg_type, "malformed_request", "unexpected message")

    def _on_hello(self, frame: Frame) -> Frame:
        if self._cipher is not None:  # one handshake per channel: a kept one is never re-keyed
            return wire.err_reply(wire.SESSION_KEY, "handshake_error", "already established")
        try:
            peer_cert, nonce = wire.decode(wire.REGISTER_PEER, frame.payload)
        except MalformedRequest:
            return wire.err_reply(wire.SESSION_KEY, "malformed_request")
        if len(nonce) != NONCE_LEN:
            return wire.err_reply(wire.SESSION_KEY, "malformed_request", "bad nonce")
        if not identity.verify_certificate(peer_cert, self._ca_pub):
            return wire.err_reply(wire.SESSION_KEY, "auth_error", "bad certificate")
        # Admission before anything about this endpoint is revealed.
        if not self._admission(peer_cert.username):
            return wire.err_reply(wire.SESSION_KEY, "auth_error", "not authorized")
        session_key = identity.generate_session_key(rng=self._rng)
        sealed = seal_key_reply(peer_cert.public_key, frame.payload, session_key, self._cert, self._keys)
        self._peer_cert = peer_cert
        self._cipher = SessionCipher(session_key, direction=1)
        return wire.reply(wire.REGISTER_PEER, sealed, msg_type=wire.SESSION_KEY)

    def _on_app(self, frame: Frame) -> Frame:
        """The app handler's answer, or the ProtocolError it raised, goes back
        encrypted; a frame before the handshake, or one that does not
        decrypt, gets a plain error reply."""
        cipher = self._cipher
        if cipher is None:
            return wire.err_reply(wire.APP_DATA, "handshake_error", "session not established")
        try:
            body = cipher.decrypt(frame.payload)
        except ProtocolError as exc:
            return wire.err_reply(wire.APP_DATA, exc.code)
        try:
            if not self._admission(self._peer_cert.username):
                raise AuthError("not authorized")
            reply = wire.OK + self._app_handler(body, self._peer_cert)
        except ProtocolError as exc:
            reply = wire.pack_fields(exc.code.encode("ascii"))
        return Frame(wire.APP_DATA, cipher.encrypt(reply))
