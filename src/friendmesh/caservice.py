"""Wire face of the certificate authority."""
from __future__ import annotations

from . import identity, wire
from .channel import Channel, SessionContext
from .errors import ProtocolError
from .identity import CAState, Certificate, KeyPair
from .wire import Frame


class CAService:
    """Serves sealed certificate requests over cert_reply frames."""

    def __init__(self, ca: CAState):
        self.ca = ca

    def open_session(self, ctx: SessionContext) -> "CASession":
        return CASession(self.ca)


class CASession:
    def __init__(self, ca: CAState):
        self.ca = ca

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame:
        if frame.msg_type != wire.CERT_REPLY:
            return wire.err_reply(frame.msg_type, "malformed_request", "unexpected message")
        try:
            (request,) = wire.decode(wire.CERT_REPLY, frame.payload)
            sealed_reply = self.ca.handle_request(request)
        except ProtocolError as exc:
            return wire.err_reply(wire.CERT_REPLY, exc.code)
        return wire.reply(wire.CERT_REPLY, sealed_reply)


def request_certificate(
    channel: Channel,
    username: str,
    keypair: KeyPair,
    ca_public_key: bytes,
) -> Certificate:
    """One-shot signup: sealed request out, sealed certificate back."""
    request = identity.build_cert_request(username, keypair.public_key, ca_public_key)
    (sealed,) = wire.call(channel, wire.CERT_REPLY, request)
    return identity.open_cert_reply(sealed, keypair, ca_public_key)
