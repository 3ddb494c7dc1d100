"""Wire face of the certificate authority."""
from __future__ import annotations

from . import identity, wire
from .channel import Channel, SessionContext
from .identity import CAState, Certificate, KeyPair
from .wire import Frame


class CAService:
    """Serves sealed certificate requests over cert_reply frames, by
    wire.serve; it keeps no per-connection state, so it is its own session."""

    def __init__(self, ca: CAState):
        self.ca = ca

    def open_session(self, ctx: SessionContext) -> "CAService":
        return self

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame:
        return wire.serve(self, frame, ctx)

    def _on_cert_reply(self, ctx: SessionContext, request: bytes) -> tuple:
        return (self.ca.handle_request(request),)


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
